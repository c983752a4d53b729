// §V extension — power behaviour of consistency levels.
//
// The paper's first future-work direction: "analyze power consumption and
// resources usage of the whole storage system considering different
// consistency levels". This bench regenerates that study on the simulator:
// per level, fleet utilization, average power draw, energy per operation and
// the energy bill under the Grid'5000 (energy-billed) price book. Every level
// is a multi-seed sweep cell (--seeds/--jobs) like the other paper benches;
// cells report the across-seed mean ±95% CI.
#include "bench_common.h"

#include "core/static_policy.h"
#include "cost/energy.h"

int main(int argc, char** argv) {
  using namespace harmony;
  const auto args = bench::BenchArgs::parse(argc, argv, 40'000);

  auto base = [&] {
    workload::RunConfig cfg;
    cfg.cluster.node_count = 50;  // the paper's 50-node Grid'5000 setup
    cfg.cluster.dc_count = 2;
    cfg.cluster.rf = 5;
    cfg.cluster.latency = net::TieredLatencyModel::grid5000_two_sites();
    cfg.workload = workload::WorkloadSpec::heavy_read_update();
    cfg.workload.op_count = args.ops;
    cfg.workload.record_count =
        static_cast<std::uint64_t>(args.config.get_int("records", 500));
    cfg.workload.clients_per_dc =
        static_cast<int>(args.config.get_int("clients", 24));
    cfg.policy_tick = 200 * kMillisecond;
    cfg.warmup = 600 * kMillisecond;
    cfg.seed = args.seed;
    cfg.price_book = cost::PriceBook::grid5000();
    return cfg;
  };

  bench::print_header(
      "§V power study — energy per consistency level",
      "50 nodes / 2 sites, rf=5, heavy read-update, " + std::to_string(args.ops) +
          " ops; linear-utilization power model, Grid'5000 energy tariff; " +
          args.seeds_note());

  TextTable table({"level", "wall time (s)", "avg watts", "kWh", "J/op",
                   "energy bill", "throughput"});

  workload::SweepRunner sweep_runner(args.sweep_options());
  const auto levels = cluster::global_levels();
  for (const auto level : levels) {
    auto cfg = base();
    cfg.label = cluster::to_string(level);
    cfg.policy = core::static_level(level);
    sweep_runner.add(cfg);
  }
  const auto results = sweep_runner.run();

  const auto avg_watts = [](const workload::RunResult& r) {
    return r.total_sim_s > 0
               ? r.energy_kwh * 1000.0 / (r.total_sim_s / 3600.0)
               : 0.0;
  };
  const auto joules_per_op = [](const workload::RunResult& r) {
    return r.ops ? r.energy_kwh * 3.6e6 / static_cast<double>(r.ops) : 0.0;
  };

  std::vector<double> kwh_means;
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const auto& s = results[i];
    const auto wall = s.over(
        [](const workload::RunResult& r) { return r.total_sim_s; });
    const auto watts = s.over(avg_watts);
    const auto kwh = s.over(
        [](const workload::RunResult& r) { return r.energy_kwh; });
    const auto jop = s.over(joules_per_op);
    const auto bill = s.over(
        [](const workload::RunResult& r) { return r.bill.energy; });
    kwh_means.push_back(kwh.mean);
    table.add_row({cluster::to_string(levels[i]), bench::ci_num(wall, 2),
                   bench::ci_num(watts, 0), bench::ci_num(kwh, 6),
                   bench::ci_num(jop, 1), bench::ci_money(bill),
                   bench::ci_num(s.throughput, 0)});
  }
  bench::print_table(table, args.csv);
  std::printf("\n");
  bench::claim(
      "(future work) stronger consistency should consume more power: more "
      "replica work per op and longer runtime for a fixed op budget",
      "ALL consumes " + bench::fmt("%.1fx", kwh_means.back() / kwh_means.front()) +
          " the energy of ONE for the same operation budget");
  return 0;
}
