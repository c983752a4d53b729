// §IV-B bullet 2 — Bismar: consistency-cost efficiency.
//
// Two parts, as in the paper:
//  (a) metric validation: run the same workload under different access
//      patterns and levels, sample the consistency-cost efficiency metric,
//      and confirm that the most efficient levels are exactly the ones whose
//      staleness stays under ~20%;
//  (b) Bismar vs static levels: Bismar should cost ~31% less than static
//      QUORUM (one of the most efficient static choices) while tolerating
//      only ~3.5% stale reads, whereas ONE is cheaper still but tolerates
//      up to ~61% stale reads (paper's estimate).
//
// Every (pattern x level) sample and every policy row is a multi-seed sweep
// cell (see --seeds/--jobs); efficiency is computed from across-seed means.
#include "bench_common.h"

#include "core/bismar.h"
#include "core/static_policy.h"
#include "cost/cost_model.h"

int main(int argc, char** argv) {
  using namespace harmony;
  // Paper: 10M ops. Default scale: /250 => 40k ops per run (many runs).
  const auto args = bench::BenchArgs::parse(argc, argv, 40'000,
                                            {"records", "clients"});

  auto base = [&] {
    workload::RunConfig cfg;
    cfg.cluster.node_count = 18;
    cfg.cluster.dc_count = 2;
    cfg.cluster.rf = 5;
    cfg.cluster.latency = net::TieredLatencyModel::ec2_two_az();
    cfg.workload = workload::WorkloadSpec::heavy_read_update();
    cfg.workload.op_count = args.ops;
    cfg.workload.record_count =
        static_cast<std::uint64_t>(args.config.get_int("records", 500));
    cfg.workload.clients_per_dc =
        static_cast<int>(args.config.get_int("clients", 20));
    cfg.policy_tick = 200 * kMillisecond;
    cfg.warmup = 600 * kMillisecond;
    cfg.seed = args.seed;
    return cfg;
  };

  // ---------------- (a) efficiency metric samples across access patterns ---
  bench::print_header(
      "§IV-B.2a consistency-cost efficiency metric samples",
      "efficiency(level) = consistency^2 / relative cost, sampled across\n"
      "access patterns (write share x key skew); paper: levels with stale\n"
      "rate < 20% are the efficient ones; " + args.seeds_note());

  TextTable samples({"pattern", "level", "stale (oracle)", "rel. cost",
                     "efficiency", "most efficient?"});
  struct Pattern {
    std::string name;
    double write_share;
    KeyDistributionKind dist;
  };
  const std::vector<Pattern> patterns = {
      {"read-mostly uniform", 0.05, KeyDistributionKind::kUniform},
      {"balanced zipfian", 0.40, KeyDistributionKind::kZipfian},
      {"write-heavy zipfian", 0.60, KeyDistributionKind::kZipfian},
  };
  const std::vector<cluster::Level> sample_levels = {
      cluster::Level::kOne, cluster::Level::kTwo, cluster::Level::kQuorum,
      cluster::Level::kAll};

  // One sweep over the whole pattern x level grid, so every cell runs
  // concurrently; cells come back in insertion order.
  workload::SweepRunner grid(args.sweep_options());
  for (const auto& pattern : patterns) {
    for (const auto level : sample_levels) {
      auto cfg = base();
      cfg.workload.op_count = std::max<std::uint64_t>(args.ops / 2, 10'000);
      cfg.workload.read_proportion = 1.0 - pattern.write_share;
      cfg.workload.update_proportion = pattern.write_share;
      cfg.workload.request_dist.kind = pattern.dist;
      cfg.label = pattern.name + "/" + cluster::to_string(level);
      cfg.policy = core::static_level(level);
      grid.add(cfg);
    }
  }
  const auto grid_stats = grid.run();

  bool efficient_levels_are_fresh = true;
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    std::vector<cost::LevelEstimate> estimates;
    for (std::size_t l = 0; l < sample_levels.size(); ++l) {
      const auto& s = grid_stats[p * sample_levels.size() + l];
      cost::LevelEstimate e;
      e.replicas = cluster::resolve(sample_levels[l], 5, 3).count;
      e.read_latency_us =
          s.over([](const workload::RunResult& r) {
             return r.read_latency.mean();
           }).mean;
      e.write_latency_us =
          s.over([](const workload::RunResult& r) {
             return r.write_latency.mean();
           }).mean;
      e.cross_dc_bytes_per_op =
          s.over([](const workload::RunResult& r) {
             return r.ops ? r.usage.cross_dc_gb * 1e9 /
                                static_cast<double>(r.ops)
                          : 1.0;
           }).mean;
      e.p_stale = s.stale_fraction.mean;
      estimates.push_back(e);
    }
    const cost::ConsistencyCostEfficiency metric;
    const auto points = metric.evaluate(estimates);
    std::size_t best = 0;
    for (std::size_t i = 1; i < points.size(); ++i) {
      if (points[i].efficiency > points[best].efficiency) best = i;
    }
    const auto& best_stats = grid_stats[p * sample_levels.size() + best];
    if (best_stats.stale_fraction.mean >= 0.20) {
      efficient_levels_are_fresh = false;
    }
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto& s = grid_stats[p * sample_levels.size() + i];
      samples.add_row({patterns[p].name, cluster::to_string(sample_levels[i]),
                       bench::ci_pct(s.stale_fraction),
                       TextTable::num(points[i].relative_cost, 2),
                       TextTable::num(points[i].efficiency, 3),
                       i == best ? "<== best" : ""});
    }
  }
  bench::print_table(samples, args.csv);
  std::printf("\n");
  bench::claim(
      "the most efficient consistency levels are the ones that provide a "
      "staleness rate smaller than 20%",
      efficient_levels_are_fresh
          ? "holds for every sampled access pattern"
          : "VIOLATED for at least one sampled pattern");

  // ---------------- (b) Bismar vs static levels ----------------------------
  bench::print_header("§IV-B.2b Bismar vs static levels",
                      "same setup as §IV-B.1; Bismar retunes each 200ms tick; " +
                          args.seeds_note());

  TextTable table({"policy", "total bill", "vs QUORUM", "stale (oracle)",
                   "stale (paper est.)", "avg replicas/read", "throughput"});

  struct Row {
    std::string name;
    policy::PolicyFactory factory;
  };
  std::vector<Row> rows;
  rows.push_back({"ONE", core::static_level(cluster::Level::kOne)});
  rows.push_back({"QUORUM", core::static_level(cluster::Level::kQuorum)});
  rows.push_back({"ALL", core::static_level(cluster::Level::kAll)});
  rows.push_back({"bismar", core::bismar_policy()});

  workload::SweepRunner sweep(args.sweep_options());
  for (const auto& row : rows) {
    auto cfg = base();
    cfg.label = row.name;
    cfg.policy = row.factory;
    sweep.add(cfg);
  }
  const auto results = sweep.run();

  const double quorum_bill = results[1].bill_total.mean;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& s = results[i];
    table.add_row(
        {rows[i].name, bench::ci_money(s.bill_total),
         bench::fmt("%+.0f%%", (s.bill_total.mean / quorum_bill - 1.0) * 100),
         bench::ci_pct(s.stale_fraction),
         bench::ci_pct(bench::estimate_summary(s, 5, 1)),
         bench::ci_num(s.avg_read_replicas, 2),
         bench::ci_num(s.throughput, 0)});
  }
  bench::print_table(table, args.csv);
  std::printf("\n");

  const auto& bismar = results[3];
  const auto& one = results[0];
  const double cut = 1.0 - bismar.bill_total.mean / quorum_bill;
  const double one_est =
      one.over([](const workload::RunResult& r) {
           return bench::paper_style_estimate(r, 5, 1, 1);
         }).mean;
  bench::claim(
      "Bismar cuts cost by ~31% vs static QUORUM while tolerating only ~3.5% "
      "stale reads; only ONE costs less but tolerates ~61% stale reads (est.)",
      "bismar bill " + bench::fmt("%.0f%%", cut * 100) +
          " below QUORUM at " +
          bench::fmt("%.1f%%", bismar.stale_fraction.mean * 100) +
          " stale (oracle); ONE is cheapest at " +
          bench::fmt("%.1f%%", one_est * 100) + " estimated stale");
  return 0;
}
