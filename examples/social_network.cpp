// Social-network scenario (paper §III-C): "a social network application
// requires a less strict consistency as reading stale data has less
// disastrous consequences" — so optimize the *bill* instead (paper §III-B).
//
// A timeline service on an EC2-style deployment compares static levels with
// Bismar, which tunes for consistency-cost efficiency. Output: the monthly
// bill extrapolated from the measured run, plus staleness for context.
#include <cstdio>

#include "common/config.h"
#include "core/bismar.h"
#include "core/static_policy.h"
#include "workload/runner.h"

int main(int argc, char** argv) {
  using namespace harmony;
  const Config options = Config::from_args(argc, argv, {"ops", "seed"});
  const auto ops = static_cast<std::uint64_t>(options.get_int("ops", 30'000));
  const auto seed = static_cast<std::uint64_t>(options.get_int("seed", 3));

  auto base = [&] {
    workload::RunConfig cfg;
    cfg.cluster.node_count = 18;
    cfg.cluster.dc_count = 2;
    cfg.cluster.rf = 5;
    cfg.cluster.latency = net::TieredLatencyModel::ec2_two_az();
    // Timeline traffic: read-mostly with a steady stream of posts/likes.
    cfg.workload = workload::WorkloadSpec::ycsb_b();
    cfg.workload.record_count = 2'000;
    cfg.workload.op_count = ops;
    cfg.workload.clients_per_dc = 16;
    cfg.policy_tick = 200 * kMillisecond;
    cfg.warmup = 500 * kMillisecond;
    cfg.seed = seed;
    cfg.price_book = cost::PriceBook::ec2_2012();
    return cfg;
  };

  std::printf(
      "social timeline — 18 VMs / 2 AZs, rf=5, read-mostly (YCSB-B)\n\n");
  std::printf("%-18s %14s %16s %12s %12s\n", "strategy", "ops/s",
              "$ per M ops*", "stale reads", "avg replicas");

  struct Strategy {
    const char* name;
    policy::PolicyFactory factory;
  };
  const Strategy strategies[] = {
      {"eventual (ONE)", core::static_level(cluster::Level::kOne)},
      {"QUORUM", core::static_level(cluster::Level::kQuorum)},
      {"strong (ALL)", core::static_level(cluster::Level::kAll)},
      {"bismar", core::bismar_policy()},
  };

  for (const auto& s : strategies) {
    auto cfg = base();
    cfg.label = s.name;
    cfg.policy = s.factory;
    const auto r = workload::run_experiment(cfg);
    // Cost per unit of work: a fleet serving this timeline continuously pays
    // the same instance-hours regardless of policy, but weaker consistency
    // serves more operations per node-hour.
    const double per_m_ops =
        r.ops ? r.bill.total() / static_cast<double>(r.ops) * 1e6 : 0.0;
    std::printf("%-18s %14.0f %15.2f$ %11.2f%% %12.2f\n", s.name, r.throughput,
                per_m_ops, r.stale_fraction * 100, r.avg_read_replicas);
  }

  std::printf(
      "\n* measured bill divided by operations served, scaled to 1M ops.\n"
      "  Timelines tolerate stale reads; Bismar exploits that to run near\n"
      "  the cheap end, escalating only when its efficiency metric says\n"
      "  consistency is worth the money.\n");
  return 0;
}
