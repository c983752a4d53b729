#include "core/behavior.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "core/harmony.h"
#include "workload/runner.h"

namespace harmony::core {
namespace {

TEST(StateProfile, FromFeatures) {
  const auto p = StateProfile::from_features({100, 50, 0.33, 5.5, 1.2, 1024});
  EXPECT_DOUBLE_EQ(p.read_rate, 100);
  EXPECT_DOUBLE_EQ(p.write_share, 0.33);
  EXPECT_DOUBLE_EQ(p.mean_value_size, 1024);
  EXPECT_NE(p.describe().find("wshare=0.33"), std::string::npos);
}

TEST(GenericRules, CatchAllAlwaysMatches) {
  const auto rules = generic_rules();
  ASSERT_FALSE(rules.empty());
  StateProfile odd;
  odd.read_rate = 1;
  odd.write_share = 0.07;
  odd.key_entropy = 7.9;
  bool matched = false;
  for (const auto& r : rules) {
    if (r.applies(odd)) {
      matched = true;
      break;
    }
  }
  EXPECT_TRUE(matched);
}

TEST(GenericRules, ReadMostlyMapsToEventual) {
  const auto rules = generic_rules();
  StateProfile browse;
  browse.write_share = 0.01;
  EXPECT_EQ(rules.front().label, "read-mostly->eventual");
  EXPECT_TRUE(rules.front().applies(browse));
}

class BehaviorModelFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto trace =
        workload::generate_phased_trace(workload::webshop_day_phases(), 5);
    BehaviorModelOptions opt;
    opt.timeline.window = 10 * kSecond;
    model_ = std::make_shared<ApplicationModel>(BehaviorModeler(opt).fit(trace));
  }
  std::shared_ptr<ApplicationModel> model_;
};

TEST_F(BehaviorModelFixture, DiscoversMultipleStates) {
  EXPECT_GE(model_->state_count(), 2u);
  EXPECT_LE(model_->state_count(), 6u);
  EXPECT_GT(model_->silhouette(), 0.3);
  double weight_sum = 0;
  for (const double w : model_->state_weights()) weight_sum += w;
  EXPECT_NEAR(weight_sum, 1.0, 1e-9);
}

TEST_F(BehaviorModelFixture, FindsTheFlashSaleState) {
  // Some state must look like the flash sale: write-heavy, high rate.
  bool found = false;
  for (std::size_t s = 0; s < model_->state_count(); ++s) {
    const auto& p = model_->profile(s);
    if (p.write_share > 0.3 && p.read_rate + p.write_rate > 2000) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(BehaviorModelFixture, RulesAssignedToEveryState) {
  for (std::size_t s = 0; s < model_->state_count(); ++s) {
    EXPECT_FALSE(model_->rule_label(s).empty());
    EXPECT_NE(model_->policy_for(s), nullptr);
  }
}

TEST_F(BehaviorModelFixture, ClassifiesPhaseSignatures) {
  // Synthetic live windows shaped like the browse and sale phases must land
  // in states whose profiles match.
  const std::size_t browse_state =
      model_->classify({800 * 0.97, 800 * 0.03, 0.03, 7.0, 1.0, 1024});
  const std::size_t sale_state =
      model_->classify({4000 * 0.55, 4000 * 0.45, 0.45, 4.0, 1.0, 1024});
  EXPECT_NE(browse_state, sale_state);
  EXPECT_LT(model_->profile(browse_state).write_share, 0.2);
  EXPECT_GT(model_->profile(sale_state).write_share, 0.25);
}

TEST_F(BehaviorModelFixture, RuntimePolicySwitchesStates) {
  policy::PolicyInit init;
  init.local_rf = 3;
  BehaviorAdaptivePolicy policy(model_, init);

  monitor::SystemState browse;
  browse.read_rate = 776;
  browse.write_rate = 24;
  browse.write_share = 0.03;
  browse.key_entropy = 7.0;
  browse.burstiness = 1.0;
  browse.mean_value_size = 1024;
  policy.tick(browse);
  const auto browse_state = policy.current_state();

  monitor::SystemState sale;
  sale.read_rate = 2200;
  sale.write_rate = 1800;
  sale.write_share = 0.45;
  sale.key_entropy = 4.0;
  sale.burstiness = 1.0;
  sale.mean_value_size = 1024;
  policy.tick(sale);
  EXPECT_NE(policy.current_state(), browse_state);
  EXPECT_GE(policy.switches(), 1u);
}

TEST(BehaviorModeler, CustomRuleOutranksGeneric) {
  const auto trace =
      workload::generate_phased_trace(workload::webshop_day_phases(), 6);
  BehaviorModelOptions opt;
  opt.timeline.window = 10 * kSecond;
  BehaviorModeler modeler(opt);
  modeler.add_rule({"admin-override",
                    [](const StateProfile&) { return true; },
                    harmony_policy(0.33)});
  const auto model = modeler.fit(trace);
  for (std::size_t s = 0; s < model.state_count(); ++s) {
    EXPECT_EQ(model.rule_label(s), "admin-override");
  }
}

TEST(BehaviorModeler, ShortTraceThrows) {
  workload::Trace tiny;
  for (int i = 0; i < 10; ++i) {
    tiny.records.push_back({i * 1000, workload::OpType::kRead, 0, 10});
  }
  EXPECT_THROW(BehaviorModeler().fit(tiny), CheckError);
}

TEST(BehaviorPolicyInSim, RunsEndToEnd) {
  const auto trace =
      workload::generate_phased_trace(workload::webshop_day_phases(), 7);
  BehaviorModelOptions opt;
  opt.timeline.window = 10 * kSecond;
  auto model = std::make_shared<ApplicationModel>(BehaviorModeler(opt).fit(trace));

  workload::RunConfig cfg;
  cfg.cluster.node_count = 8;
  cfg.cluster.dc_count = 2;
  cfg.cluster.rf = 3;
  cfg.workload = workload::WorkloadSpec::ycsb_a();
  cfg.workload.op_count = 20000;
  cfg.workload.record_count = 500;
  cfg.workload.clients_per_dc = 8;
  cfg.policy = behavior_policy(model);
  cfg.warmup = 500 * kMillisecond;
  cfg.policy_tick = 200 * kMillisecond;
  cfg.seed = 21;
  const auto r = workload::run_experiment(cfg);
  EXPECT_EQ(r.policy_name, "behavior-model");
  EXPECT_GT(r.ops, 8000u);
  EXPECT_EQ(r.errors, 0u);
}

}  // namespace
}  // namespace harmony::core
