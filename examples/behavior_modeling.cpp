// Application behavior modeling (paper §III-C), end to end:
//
//   1. offline: take a day-in-the-life access trace of a webshop
//      (browse -> flash sale -> reporting), build the metric timeline,
//      cluster it into application states (k-means + silhouette), and attach
//      a consistency policy to each state via the generic rule set;
//   2. online: run a live workload through the state classifier and watch
//      the policy switch as the application changes state.
#include <cstdio>

#include "common/config.h"
#include "core/behavior.h"
#include "core/static_policy.h"
#include "workload/runner.h"

int main(int argc, char** argv) {
  using namespace harmony;
  const Config options = Config::from_args(argc, argv, {"seed", "ops"});
  const auto seed = static_cast<std::uint64_t>(options.get_int("seed", 11));

  // ---- offline: model the application from its past trace -----------------
  const auto phases = workload::webshop_day_phases();
  const auto trace = workload::generate_phased_trace(phases, seed);
  std::printf("trace: %zu operations over %s (browse / flash-sale / reporting)\n\n",
              trace.records.size(),
              format_duration(trace.duration()).c_str());

  core::BehaviorModelOptions opt;
  opt.timeline.window = 10 * kSecond;
  core::BehaviorModeler modeler(opt);
  // An administrator rule (paper: "customized rules integrated by the
  // application's administrator"): reporting dashboards may read stale data
  // no matter what, so pin very-read-heavy low-rate states to eventual.
  modeler.add_rule({"admin: dashboards->eventual",
                    [](const core::StateProfile& s) {
                      return s.write_share < 0.005 && s.read_rate < 600;
                    },
                    core::static_counts(1, 1)});

  const auto model =
      std::make_shared<core::ApplicationModel>(modeler.fit(trace));

  std::printf("discovered %zu application states (silhouette %.2f):\n",
              model->state_count(), model->silhouette());
  for (std::size_t s = 0; s < model->state_count(); ++s) {
    std::printf("  state %zu  %5.1f%% of windows  [%s]\n        -> %s\n", s,
                model->state_weights()[s] * 100,
                model->profile(s).describe().c_str(),
                model->rule_label(s).c_str());
  }

  // ---- online: drive a live run through the classifier --------------------
  workload::RunConfig cfg;
  cfg.label = "behavior-driven";
  cfg.cluster.node_count = 10;
  cfg.cluster.dc_count = 2;
  cfg.cluster.rf = 3;
  cfg.cluster.latency = net::TieredLatencyModel::ec2_two_az();
  cfg.workload = workload::WorkloadSpec::ycsb_a();  // sale-like mix
  cfg.workload.op_count =
      static_cast<std::uint64_t>(options.get_int("ops", 25'000));
  cfg.workload.record_count = 500;
  cfg.workload.clients_per_dc = 10;
  cfg.policy = core::behavior_policy(model);
  cfg.policy_tick = 200 * kMillisecond;
  cfg.warmup = 500 * kMillisecond;
  cfg.seed = seed;

  const auto r = workload::run_experiment(cfg);
  std::printf("\nlive run under the behavior-model policy:\n");
  std::printf("  %s\n", r.summary().c_str());
  std::printf("  state/level switches: %llu\n",
              static_cast<unsigned long long>(r.policy_switches));
  return 0;
}
