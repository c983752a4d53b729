#include "core/baselines.h"

#include <gtest/gtest.h>

#include <cmath>

namespace harmony::core {
namespace {

monitor::SystemState state(double read_rate, double write_rate,
                           double window_us = 10000) {
  monitor::SystemState s;
  s.read_rate = read_rate;
  s.write_rate = write_rate;
  s.prop_delays_us = {window_us / 10, window_us / 2, window_us};
  return s;
}

TEST(ConflictRationing, QuietSystemStaysWeak) {
  ConflictRationingPolicy p(5);
  p.tick(state(1000, 0.1));
  EXPECT_FALSE(p.strong());
  EXPECT_EQ(p.read_requirement().count, 1);
  EXPECT_LT(p.last_conflict_probability(), 0.01);
}

TEST(ConflictRationing, BusyWritesGoStrong) {
  ConflictRationingPolicy p(5);
  p.tick(state(1000, 5000));  // 5000 writes/s over a 10ms window: conflicts
  EXPECT_TRUE(p.strong());
  EXPECT_EQ(p.read_requirement().count, 3);   // quorum of 5
  EXPECT_EQ(p.write_requirement().count, 3);  // R+W>N in strong mode
  EXPECT_GT(p.last_conflict_probability(), 0.5);
}

TEST(ConflictRationing, PoissonConflictFormula) {
  // n = lambda * w; P(>=2 arrivals) = 1 - e^-n (1 + n).
  ConflictRationingPolicy p(3);
  p.tick(state(0, 10.0, 100'000));  // 100 ms window: n = 1.0
  EXPECT_NEAR(p.last_conflict_probability(), 1.0 - std::exp(-1.0) * 2.0, 1e-9);
}

TEST(ConflictRationing, SwitchCounting) {
  ConflictRationingPolicy p(5);
  p.tick(state(1000, 5000));
  p.tick(state(1000, 5000));  // no change
  p.tick(state(1000, 0.1));
  EXPECT_EQ(p.switches(), 2u);
}

TEST(RwRatio, ReadMostlyStaysEventual) {
  ReadWriteRatioPolicy p(5);
  p.tick(state(950, 50));
  EXPECT_FALSE(p.strong());
  EXPECT_EQ(p.read_requirement().count, 1);
}

TEST(RwRatio, WriteHeavyGoesStrong) {
  ReadWriteRatioPolicy p(5);
  p.tick(state(500, 500));
  EXPECT_TRUE(p.strong());
  EXPECT_EQ(p.read_requirement().count, 5);
}

TEST(RwRatio, StaticThresholdIsTheKnob) {
  // The one static threshold: strong above a 30% write share, weak below.
  ReadWriteRatioPolicy below(5);
  below.tick(state(710, 290));
  EXPECT_FALSE(below.strong());

  ReadWriteRatioPolicy above(5);
  above.tick(state(690, 310));
  EXPECT_TRUE(above.strong());
}

TEST(RwRatio, ZeroTrafficIsWeak) {
  ReadWriteRatioPolicy p(5);
  p.tick(state(0, 0));
  EXPECT_FALSE(p.strong());
}

TEST(Factories, ProduceWorkingPolicies) {
  policy::PolicyInit init;
  init.local_rf = 3;
  auto a = conflict_rationing_policy()(init);
  auto b = rw_ratio_policy()(init);
  EXPECT_EQ(a->name(), "conflict-rationing");
  EXPECT_EQ(b->name(), "rw-ratio");
  EXPECT_GE(a->read_requirement().count, 1);
  EXPECT_GE(b->read_requirement().count, 1);
}

}  // namespace
}  // namespace harmony::core
