// §IV-B bullet 1 — consistency impact on monetary cost.
//
// Paper setup: Cassandra RF=5 over two datacenters (18 VMs in us-east-1 /
// 50 Grid'5000 nodes), heavy read-update YCSB workload, 10M operations,
// 23.84 GB. Sweep the static consistency level over ONE..ALL and decompose
// the bill into instances + storage + network.
//
// Paper claims: total cost drops up to 48% from the strongest to the weakest
// level; only ~21% of reads are *estimated* up-to-date at ONE; QUORUM always
// returns fresh data yet costs 13% less than ALL.
//
// Every level is a multi-seed sweep cell (see --seeds/--jobs); bills and
// freshness are across-seed means ±95% CI.
#include "bench_common.h"

#include "core/static_policy.h"

int main(int argc, char** argv) {
  using namespace harmony;
  // Paper: 10M ops. Default scale: /200 => 50k ops.
  const auto args = bench::BenchArgs::parse(argc, argv, 50'000,
                                            {"records", "clients"});

  auto base = [&] {
    workload::RunConfig cfg;
    cfg.cluster.node_count = 18;  // the EC2 variant of the setup
    cfg.cluster.dc_count = 2;     // two availability zones
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
    cfg.price_book = cost::PriceBook::ec2_2012();
    return cfg;
  };

  bench::print_header(
      "§IV-B.1 consistency level vs monetary cost",
      "rf=5 over 2 AZs, 18 VMs, heavy read-update, " + std::to_string(args.ops) +
          " ops (paper: 10M); bill decomposed into instances/storage/network; " +
          args.seeds_note());

  TextTable table({"level", "total bill", "instances", "storage", "network",
                   "vs ALL", "fresh (oracle)", "fresh (paper est.)",
                   "throughput"});

  const auto levels = cluster::global_levels();
  workload::SweepRunner sweep(args.sweep_options());
  for (const auto level : levels) {
    auto cfg = base();
    cfg.label = cluster::to_string(level);
    cfg.policy = core::static_level(level);
    sweep.add(cfg);
  }
  const auto results = sweep.run();
  const double all_bill = results.back().bill_total.mean;

  double one_fresh_est = 1.0;
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const auto& s = results[i];
    const int k = cluster::resolve(levels[i], 5, 3).count;
    const auto fresh_est = s.over([k](const workload::RunResult& r) {
      return 1.0 - bench::paper_style_estimate(r, 5, k, k);
    });
    if (levels[i] == cluster::Level::kOne) one_fresh_est = fresh_est.mean;
    const auto instances = s.over(
        [](const workload::RunResult& r) { return r.bill.instances; });
    const auto storage =
        s.over([](const workload::RunResult& r) { return r.bill.storage; });
    const auto network =
        s.over([](const workload::RunResult& r) { return r.bill.network; });
    const auto fresh = s.over(
        [](const workload::RunResult& r) { return 1.0 - r.stale_fraction; });
    table.add_row(
        {cluster::to_string(levels[i]), bench::ci_money(s.bill_total),
         bench::fmt("$%.4f", instances.mean), bench::fmt("$%.4f", storage.mean),
         bench::fmt("$%.4f", network.mean),
         bench::fmt("%+.0f%%", (s.bill_total.mean / all_bill - 1.0) * 100),
         bench::ci_pct(fresh), bench::ci_pct(fresh_est),
         bench::ci_num(s.throughput, 0)});
  }
  bench::print_table(table, args.csv);
  std::printf("\n");

  const double one_cut = 1.0 - results.front().bill_total.mean / all_bill;
  const double quorum_cut = 1.0 - results[3].bill_total.mean / all_bill;
  std::uint64_t quorum_stale = 0;
  for (const auto& r : results[3].runs) quorum_stale += r.stale_reads;
  bench::claim("weakest level cuts the total bill by up to 48% vs strong",
               "ONE costs " + bench::fmt("%.0f%%", one_cut * 100) +
                   " less than ALL");
  bench::claim("only 21% of reads are estimated up-to-date at level ONE",
               bench::fmt("%.0f%%", one_fresh_est * 100) +
                   " estimated fresh at ONE (oracle: " +
                   bench::fmt("%.0f%%",
                              (1.0 - results.front().stale_fraction.mean) *
                                  100) +
                   ")");
  bench::claim(
      "QUORUM always returns an up-to-date replica and costs 13% less than "
      "the strong level",
      "QUORUM stale reads = " + std::to_string(quorum_stale) +
          " across all seeds; bill " + bench::fmt("%.0f%%", quorum_cut * 100) +
          " below ALL");
  return 0;
}
