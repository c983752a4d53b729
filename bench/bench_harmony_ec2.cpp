// §IV-A (Amazon EC2) — Harmony performance/staleness evaluation.
//
// Paper setup: Cassandra on 20 VMs on EC2, heavy read-update YCSB workload,
// 5M operations, 23.85 GB dataset; Harmony tolerances 40% and 60% vs static
// eventual and strong (quorum R+W>N) consistency. Claims as in the
// Grid'5000 run. EC2's cross-AZ latency is small, so this platform runs in
// the load-dominated regime: clients are sized to keep the cluster busy,
// which is where the paper's high EC2 staleness estimates come from.
//
// Each policy row is a multi-seed sweep cell (see --seeds/--jobs in
// bench_common.h); cells run concurrently on the thread pool and the table
// reports across-seed means ±95% CI.
#include "bench_common.h"

#include "core/harmony.h"
#include "core/static_policy.h"

int main(int argc, char** argv) {
  using namespace harmony;
  // Paper: 5M ops. Default scale: /100 => 50k ops.
  const auto args = bench::BenchArgs::parse(argc, argv, 50'000,
                                            {"records", "clients"});

  auto base = [&] {
    workload::RunConfig cfg;
    cfg.cluster.node_count = 20;  // 20 VMs
    cfg.cluster.dc_count = 2;     // spread over two AZs
    cfg.cluster.rf = 3;
    cfg.cluster.latency = net::TieredLatencyModel::ec2_two_az();
    cfg.workload = workload::WorkloadSpec::heavy_read_update();
    cfg.workload.op_count = args.ops;
    cfg.workload.record_count =
        static_cast<std::uint64_t>(args.config.get_int("records", 250));
    cfg.workload.clients_per_dc =
        static_cast<int>(args.config.get_int("clients", 48));
    cfg.policy_tick = 200 * kMillisecond;
    cfg.warmup = 600 * kMillisecond;
    cfg.seed = args.seed;
    return cfg;
  };

  struct Row {
    std::string name;
    policy::PolicyFactory factory;
    int write_acks;
  };
  std::vector<Row> rows;
  rows.push_back({"eventual (ONE)", core::static_level(cluster::Level::kOne), 1});
  rows.push_back({"harmony 40%", core::harmony_policy(0.40), 1});
  rows.push_back({"harmony 60%", core::harmony_policy(0.60), 1});
  rows.push_back({"strong (QUORUM)",
                  core::static_level(cluster::Level::kQuorum), 2});

  bench::print_header(
      "§IV-A Harmony on Amazon EC2",
      "20 VMs / 2 AZs, rf=3, heavy read-update (zipfian), " +
          std::to_string(args.ops) + " ops (paper: 5M), tolerances 40%/60%, " +
          args.seeds_note());

  workload::SweepRunner sweep(args.sweep_options());
  for (const auto& row : rows) {
    auto cfg = base();
    cfg.label = row.name;
    cfg.policy = row.factory;
    sweep.add(cfg);
  }
  const auto results = sweep.run();

  TextTable table({"policy", "throughput (ops/s)", "read mean", "read p95",
                   "stale (oracle)", "stale (paper est.)", "avg replicas/read"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& s = results[i];
    const auto read_mean = s.over(
        [](const workload::RunResult& r) { return r.read_latency.mean(); });
    const auto read_p95 = s.over([](const workload::RunResult& r) {
      return static_cast<double>(r.read_latency.p95());
    });
    table.add_row({rows[i].name, bench::ci_num(s.throughput, 0),
                   bench::ci_dur(read_mean), bench::ci_dur(read_p95),
                   bench::ci_pct(s.stale_fraction),
                   bench::ci_pct(bench::estimate_summary(
                       s, static_cast<int>(base().cluster.rf),
                       rows[i].write_acks)),
                   bench::ci_num(s.avg_read_replicas, 2)});
  }
  bench::print_table(table, args.csv);
  std::printf("\n");

  const auto& one = results[0];
  const auto& strong = results[3];
  double best_stale_cut = 0, best_thr_gain = -1;
  for (std::size_t i = 1; i <= 2; ++i) {
    if (one.stale_fraction.mean > 0) {
      best_stale_cut =
          std::max(best_stale_cut,
                   1.0 - results[i].stale_fraction.mean / one.stale_fraction.mean);
    }
    if (strong.throughput.mean > 0) {
      best_thr_gain = std::max(
          best_thr_gain, results[i].throughput.mean / strong.throughput.mean - 1.0);
    }
  }
  bench::claim(
      "Harmony reduces stale reads vs eventual by ~80%; throughput up to "
      "+45% vs strong consistency",
      "best Harmony run cuts stale reads by " +
          bench::fmt("%.0f%%", best_stale_cut * 100) +
          " vs ONE; best throughput " +
          bench::fmt("%+.0f%%", best_thr_gain * 100) + " vs strong(QUORUM)");
  return 0;
}
