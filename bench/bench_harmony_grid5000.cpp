// §IV-A (Grid'5000) — Harmony performance/staleness evaluation.
//
// Paper setup: Cassandra on 84 nodes across two Grid'5000 clusters, heavy
// read-update YCSB workload, 3M operations, 14.3 GB dataset. Policies:
// Harmony with tolerated stale-read rates 20% and 40%, vs static eventual
// (ONE) and static strong consistency (quorum reads + quorum writes, the
// R+W>N configuration "strong consistency in Cassandra" means in practice;
// ALL appears in the §IV-B level sweep).
//
// Paper claims: Harmony cuts stale reads vs eventual by ~80% at minimal
// added latency, and improves throughput vs strong by up to 45% while
// keeping the application's staleness requirement.
//
// Each policy row is a multi-seed sweep cell (see --seeds/--jobs in
// bench_common.h); the table reports across-seed means ±95% CI.
#include "bench_common.h"

#include "core/harmony.h"
#include "core/static_policy.h"

int main(int argc, char** argv) {
  using namespace harmony;
  // Paper: 3M ops. Default scale: /60 => 50k ops (~seconds on one core).
  const auto args = bench::BenchArgs::parse(argc, argv, 50'000,
                                            {"records", "clients"});

  auto base = [&] {
    workload::RunConfig cfg;
    cfg.cluster.node_count = 84;  // two Grid'5000 clusters
    cfg.cluster.dc_count = 2;
    cfg.cluster.rf = 3;
    cfg.cluster.latency = net::TieredLatencyModel::grid5000_two_sites();
    cfg.workload = workload::WorkloadSpec::heavy_read_update();
    cfg.workload.op_count = args.ops;
    cfg.workload.record_count =
        static_cast<std::uint64_t>(args.config.get_int("records", 600));
    cfg.workload.clients_per_dc =
        static_cast<int>(args.config.get_int("clients", 24));
    cfg.policy_tick = 200 * kMillisecond;
    cfg.warmup = 600 * kMillisecond;
    cfg.seed = args.seed;
    cfg.price_book = cost::PriceBook::grid5000();
    return cfg;
  };

  struct Row {
    std::string name;
    policy::PolicyFactory factory;
    int write_acks;
    bool is_harmony;
  };
  std::vector<Row> rows;
  rows.push_back({"eventual (ONE)", core::static_level(cluster::Level::kOne),
                  1, false});
  rows.push_back({"harmony 20%", core::harmony_policy(0.20), 1, true});
  rows.push_back({"harmony 40%", core::harmony_policy(0.40), 1, true});
  rows.push_back({"strong (QUORUM)",
                  core::static_level(cluster::Level::kQuorum), 2, false});

  bench::print_header(
      "§IV-A Harmony on Grid'5000",
      "84 nodes / 2 sites, rf=3, heavy read-update (zipfian), " +
          std::to_string(args.ops) + " ops (paper: 3M), tolerances 20%/40%, " +
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
  std::vector<workload::MetricSummary> read_means;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& s = results[i];
    read_means.push_back(s.over(
        [](const workload::RunResult& r) { return r.read_latency.mean(); }));
    const auto read_p95 = s.over([](const workload::RunResult& r) {
      return static_cast<double>(r.read_latency.p95());
    });
    table.add_row({rows[i].name, bench::ci_num(s.throughput, 0),
                   bench::ci_dur(read_means.back()), bench::ci_dur(read_p95),
                   bench::ci_pct(s.stale_fraction),
                   bench::ci_pct(bench::estimate_summary(s, 3,
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
      "Harmony reduces stale reads vs eventual by ~80% at minimal latency "
      "cost; throughput up to +45% vs strong",
      "best Harmony run cuts stale reads by " +
          bench::fmt("%.0f%%", best_stale_cut * 100) +
          " vs ONE; best throughput " + bench::fmt("%+.0f%%", best_thr_gain * 100) +
          " vs strong(QUORUM); read mean " +
          format_duration(static_cast<SimDuration>(read_means[1].mean)) +
          " vs ONE " +
          format_duration(static_cast<SimDuration>(read_means[0].mean)));
  return 0;
}
