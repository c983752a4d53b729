#include <gtest/gtest.h>

#include "common/check.h"
#include "workload/spec.h"
#include "workload/trace.h"

namespace harmony::workload {
namespace {

TEST(WorkloadSpec, PresetsValidate) {
  EXPECT_NO_THROW(WorkloadSpec::ycsb_a().validate());
  EXPECT_NO_THROW(WorkloadSpec::ycsb_b().validate());
  EXPECT_NO_THROW(WorkloadSpec::heavy_read_update().validate());
}

TEST(WorkloadSpec, PresetMixes) {
  EXPECT_DOUBLE_EQ(WorkloadSpec::ycsb_a().read_proportion, 0.5);
  EXPECT_DOUBLE_EQ(WorkloadSpec::ycsb_a().update_proportion, 0.5);
  EXPECT_DOUBLE_EQ(WorkloadSpec::ycsb_b().read_proportion, 0.95);
  EXPECT_DOUBLE_EQ(WorkloadSpec::ycsb_b().update_proportion, 0.05);
  for (const auto& spec : {WorkloadSpec::ycsb_a(), WorkloadSpec::ycsb_b()}) {
    EXPECT_EQ(spec.request_dist.kind, KeyDistributionKind::kScrambledZipfian);
    EXPECT_DOUBLE_EQ(spec.insert_proportion, 0.0);
    EXPECT_DOUBLE_EQ(spec.rmw_proportion, 0.0);
  }
}

TEST(WorkloadSpec, HeavyReadUpdateIsTheExperimentWorkload) {
  const auto s = WorkloadSpec::heavy_read_update();
  EXPECT_GT(s.update_proportion, 0.2);  // update-heavy enough to create windows
  EXPECT_EQ(s.request_dist.kind, KeyDistributionKind::kZipfian);
}

TEST(WorkloadSpec, InvalidProportionsThrow) {
  WorkloadSpec s;
  s.read_proportion = 0.7;
  s.update_proportion = 0.7;
  EXPECT_THROW(s.validate(), CheckError);
}

TEST(Trace, PhasedGeneratorProducesSortedRecords) {
  const auto trace = generate_phased_trace(webshop_day_phases(), 1);
  ASSERT_GT(trace.records.size(), 1000u);
  SimTime prev = 0;
  for (const auto& r : trace.records) {
    ASSERT_GE(r.time, prev);
    prev = r.time;
  }
  EXPECT_GT(trace.duration(), 200 * kSecond);
}

TEST(Trace, PhasesHaveDistinctMixes) {
  const auto phases = webshop_day_phases();
  const auto trace = generate_phased_trace(phases, 2);
  // Count writes inside each phase span.
  SimTime t0 = 0;
  std::vector<double> write_share;
  for (const auto& p : phases) {
    std::uint64_t ops = 0, writes = 0;
    for (const auto& r : trace.records) {
      if (r.time >= t0 && r.time < t0 + p.duration) {
        ++ops;
        if (r.op != OpType::kRead) ++writes;
      }
    }
    ASSERT_GT(ops, 0u);
    write_share.push_back(static_cast<double>(writes) /
                          static_cast<double>(ops));
    t0 += p.duration;
  }
  // flash-sale is far more write-heavy than browse and reporting.
  EXPECT_GT(write_share[1], write_share[0] + 0.3);
  EXPECT_GT(write_share[1], write_share[2] + 0.3);
}

TEST(Trace, DeterministicInSeed) {
  const auto a = generate_phased_trace(webshop_day_phases(), 7);
  const auto b = generate_phased_trace(webshop_day_phases(), 7);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); i += 97) {
    EXPECT_EQ(a.records[i].time, b.records[i].time);
    EXPECT_EQ(a.records[i].key, b.records[i].key);
  }
}

TEST(Trace, RatesApproximatelyHonored) {
  TracePhase p;
  p.duration = 10 * kSecond;
  p.ops_per_second = 500;
  const auto trace = generate_phased_trace({p}, 3);
  EXPECT_NEAR(static_cast<double>(trace.records.size()), 5000.0, 300.0);
}

TEST(OpType, Names) {
  EXPECT_EQ(to_string(OpType::kRead), "read");
  EXPECT_EQ(to_string(OpType::kReadModifyWrite), "rmw");
}

}  // namespace
}  // namespace harmony::workload
