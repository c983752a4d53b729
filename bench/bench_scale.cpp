// Open-loop scale bench — coordinated omission made visible, then fixed.
//
// Three scenarios (see bench/README.md "Open-loop scale" for methodology):
//
//   1. Coordinated omission: the same saturated cluster measured three ways —
//      closed-loop unthrottled (throughput IS capacity, latency looks like
//      service time), closed-loop rate-capped at 2.5x capacity (post-fix, the
//      intended-arrival grid exposes the backlog), and the open-loop engine
//      at the same offered rate. The open/paced p99 must diverge from the
//      closed-loop p99 by >= 5x, and the open-loop overload ledger must
//      conserve exactly: arrivals == completed + shed + queued + in-flight.
//   2. Arrival processes: Poisson vs self-similar gaps under constant /
//      diurnal / flash-crowd rate envelopes, over a heavy-tailed (scrambled
//      zipfian) population of simulated users. The flash window must lift
//      offered load; the heavy-tailed gaps must fatten the queueing tail.
//   3. Determinism: the whole engine re-run with the same seed, and one DC
//      cut into four key-range shards run on 1/2/4 worker threads, must
//      reproduce every ledger counter, histogram percentile, and event count
//      exactly.
//
// Extra flags on top of bench_common.h:
//   --smoke       CI-sized run: 1 seed, small population, short duration
//   --users=N     simulated user population (default 2,000,000; smoke 50,000)
//   --records=N   dataset keys (default 100,000; smoke 2,000)
#include "bench_common.h"

#include "core/static_policy.h"

namespace {

using namespace harmony;

struct ScaleParams {
  bool smoke = false;
  std::uint64_t users = 2'000'000;
  std::uint64_t records = 100'000;
  SimDuration duration = 6 * kSecond;
  SimDuration drain = 2 * kSecond;
};

/// The conservation identities; prints the first violation, if any.
bool ledger_conserved(const workload::OpenLoopResult& ol, const char* label) {
  const bool arrivals_ok =
      ol.arrivals == ol.completed + ol.shed_queue_full + ol.queued_at_end +
                         ol.in_flight_at_end;
  const bool issued_ok = ol.issued == ol.completed + ol.in_flight_at_end;
  if (!arrivals_ok || !issued_ok) {
    std::printf("LEDGER VIOLATION [%s]: arrivals=%llu completed=%llu "
                "shed=%llu queued=%llu in-flight=%llu issued=%llu\n",
                label, static_cast<unsigned long long>(ol.arrivals),
                static_cast<unsigned long long>(ol.completed),
                static_cast<unsigned long long>(ol.shed_queue_full),
                static_cast<unsigned long long>(ol.queued_at_end),
                static_cast<unsigned long long>(ol.in_flight_at_end),
                static_cast<unsigned long long>(ol.issued));
  }
  return arrivals_ok && issued_ok;
}

bool ledger_conserved(const workload::SweepStats& s) {
  bool ok = true;
  for (const auto& r : s.runs) ok &= ledger_conserved(r.open_loop, s.label.c_str());
  return ok;
}

/// Shared cluster + workload shape for every scenario: 8 nodes / 2 DCs
/// (AZ link), rf=3, YCSB-A over a zipfian key space, CL=ONE.
workload::RunConfig base_config(const ScaleParams& p, std::uint64_t seed) {
  workload::RunConfig cfg;
  cfg.cluster.node_count = 8;
  cfg.cluster.dc_count = 2;
  cfg.cluster.rf = 3;
  cfg.cluster.latency = net::TieredLatencyModel::ec2_two_az();
  cfg.workload = workload::WorkloadSpec::ycsb_a();
  cfg.workload.record_count = p.records;
  cfg.policy = core::static_level(cluster::Level::kOne);
  cfg.warmup = 500 * kMillisecond;
  cfg.seed = seed;
  return cfg;
}

workload::RunConfig open_config(const ScaleParams& p, double rate,
                                std::uint64_t seed) {
  auto cfg = base_config(p, seed);
  cfg.workload.open_loop.enabled = true;
  cfg.workload.open_loop.rate_per_s = rate;
  cfg.workload.open_loop.duration = p.duration;
  cfg.workload.open_loop.drain_grace = p.drain;
  cfg.workload.open_loop.user_count = p.users;
  return cfg;
}

/// Queueing-delay histogram merged across a cell's seeds.
LatencyHistogram merged_queueing(const workload::SweepStats& s) {
  LatencyHistogram h;
  for (const auto& r : s.runs) h.merge(r.open_loop.queueing_delay);
  return h;
}

std::string count_cell(const workload::SweepStats& s,
                       std::uint64_t (workload::OpenLoopResult::*field)) {
  return bench::ci_num(s.over([field](const workload::RunResult& r) {
    return static_cast<double>(r.open_loop.*field);
  }));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace harmony;
  const auto args = bench::BenchArgs::parse(argc, argv, 40'000,
                                            {"smoke", "users", "records"});

  ScaleParams p;
  p.smoke = args.config.get_bool("smoke", false);
  if (p.smoke) {
    p.users = 50'000;
    p.records = 2'000;
    p.duration = 2 * kSecond;
    p.drain = kSecond;
  }
  p.users = static_cast<std::uint64_t>(
      args.config.get_int("users", static_cast<std::int64_t>(p.users)));
  p.records = static_cast<std::uint64_t>(
      args.config.get_int("records", static_cast<std::int64_t>(p.records)));
  const std::uint64_t closed_ops =
      p.smoke ? std::min<std::uint64_t>(args.ops, 8'000) : args.ops;
  const unsigned seeds = p.smoke ? 1 : args.seeds;

  workload::SweepOptions sweep_opts = args.sweep_options();
  sweep_opts.seeds = seeds;

  const std::string setup =
      "8 nodes / 2 DCs (AZ link), rf=3, CL=ONE, YCSB-A, " +
      std::to_string(p.records) + " records, " + std::to_string(p.users) +
      " simulated users (scrambled zipfian 0.99), " +
      std::to_string(seeds) + (seeds == 1 ? " seed" : " seeds");
  bool all_pass = true;

  // ------------------------------------------------------------------------
  // Calibration: the closed loop's delivered throughput IS the cluster's
  // absorbable rate for this shape; every overload scenario offers a
  // multiple of it. Deterministic in --seed, so the derived rates (and thus
  // the whole bench output) reproduce for any --jobs value.
  // ------------------------------------------------------------------------
  double capacity = 0;
  {
    auto cfg = base_config(p, args.seed);
    cfg.label = "calibrate";
    cfg.workload.op_count = closed_ops;
    cfg.workload.clients_per_dc = 8;
    capacity = workload::run_experiment(cfg).throughput;
  }
  if (capacity <= 0) {
    std::printf("calibration run delivered no throughput\n");
    return 1;
  }
  const double saturating = 2.5 * capacity;

  // ------------------------------------------------------------------------
  // Scenario 1: coordinated omission.
  // ------------------------------------------------------------------------
  {
    bench::print_header(
        "Scale 1/3: coordinated omission — closed vs paced vs open loop",
        setup + "; closed loop delivers ~" + bench::fmt("%.0f", capacity) +
            " ops/s; paced and open variants offer 2.5x that");

    workload::SweepRunner sweep(sweep_opts);
    {
      auto cfg = base_config(p, args.seed);
      cfg.label = "closed unthrottled";
      cfg.workload.op_count = closed_ops;
      cfg.workload.clients_per_dc = 8;
      sweep.add(cfg);
    }
    {
      auto cfg = base_config(p, args.seed);
      cfg.label = "closed paced @2.5x";
      cfg.workload.op_count = closed_ops;
      cfg.workload.clients_per_dc = 8;
      cfg.workload.target_rate_per_client =
          saturating / (8.0 * cfg.cluster.dc_count);
      sweep.add(cfg);
    }
    {
      auto cfg = open_config(p, saturating, args.seed);
      cfg.label = "open loop @2.5x";
      sweep.add(cfg);
    }
    const auto stats = sweep.run();

    TextTable table({"variant", "offered", "delivered", "read p50", "read p99",
                     "SLA", "shed", "timeouts"});
    for (std::size_t i = 0; i < stats.size(); ++i) {
      const auto& s = stats[i];
      const bool open = i == 2;
      std::string offered =
          i == 0 ? "(demand-bound)"
                 : open ? bench::ci_num(s.over([](const workload::RunResult& r) {
                            return r.open_loop.offered_rate;
                          })) + " ops/s"
                        : bench::fmt("%.0f", saturating) + " ops/s";
      table.add_row(
          {s.label, offered, bench::ci_num(s.throughput) + " ops/s",
           format_duration(s.read_latency.median()),
           format_duration(s.read_latency.p99()),
           open ? bench::ci_pct(s.over([](const workload::RunResult& r) {
                    return r.open_loop.sla_attainment;
                  }))
                : std::string("-"),
           open ? count_cell(s, &workload::OpenLoopResult::shed_queue_full)
                : std::string("-"),
           bench::ci_num(s.over([](const workload::RunResult& r) {
             return static_cast<double>(r.timeouts);
           }))});
    }
    bench::print_table(table, args.csv);

    const double closed_p99 = static_cast<double>(stats[0].read_latency.p99());
    const double paced_p99 = static_cast<double>(stats[1].read_latency.p99());
    const double open_p99 = static_cast<double>(stats[2].read_latency.p99());
    const bool conserved = ledger_conserved(stats[2]);
    const bool pass = conserved && closed_p99 > 0 &&
                      open_p99 >= 5.0 * closed_p99 &&
                      paced_p99 >= 5.0 * closed_p99;
    all_pass = all_pass && pass;
    std::printf(
        "\ncoordinated omission: closed-loop p99 %s hides the backlog; "
        "measured from intended arrivals, paced p99 = %s (%.0fx) and "
        "open-loop p99 = %s (%.0fx)\n"
        "%s: open & paced p99 >= 5x closed p99 at 2.5x capacity; "
        "arrivals == completed + shed + queued + in-flight%s\n\n",
        format_duration(static_cast<SimDuration>(closed_p99)).c_str(),
        format_duration(static_cast<SimDuration>(paced_p99)).c_str(),
        closed_p99 > 0 ? paced_p99 / closed_p99 : 0.0,
        format_duration(static_cast<SimDuration>(open_p99)).c_str(),
        closed_p99 > 0 ? open_p99 / closed_p99 : 0.0, pass ? "PASS" : "FAIL",
        conserved ? "" : " (LEDGER VIOLATION)");
  }

  // ------------------------------------------------------------------------
  // Scenario 2: arrival processes and rate envelopes.
  // ------------------------------------------------------------------------
  {
    // Base rate at half capacity: constant/diurnal ride below saturation, the
    // flash crowd (x8) punches 4x past it, and the heavy-tailed gaps overload
    // in bursts — each regime exercises a different part of the ledger.
    const double rate = 0.5 * capacity;
    bench::print_header(
        "Scale 2/3: arrival processes x rate envelopes",
        setup + "; base rate " + bench::fmt("%.0f", rate) +
            " ops/s (0.5x capacity), flash crowd x8 for " +
            format_duration(p.duration / 5));

    auto open_base = [&](const char* label) {
      auto cfg = open_config(p, rate, args.seed);
      cfg.label = label;
      cfg.workload.open_loop.diurnal_period = p.duration / 2;
      cfg.workload.open_loop.flash_at = p.duration / 2;
      cfg.workload.open_loop.flash_ramp = p.duration / 10;
      cfg.workload.open_loop.flash_hold = p.duration / 5;
      // A bounded client (small connection pool, finite FIFO) instead of the
      // default wide-open window: bursts and the flash window then show up in
      // the queueing-delay histogram and the shed ledger, not only in-cluster.
      cfg.workload.open_loop.max_in_flight_per_dc = 64;
      cfg.workload.open_loop.queue_capacity_per_dc = 4096;
      return cfg;
    };

    workload::SweepRunner sweep(sweep_opts);
    sweep.add(open_base("poisson / constant"));
    {
      auto cfg = open_base("poisson / diurnal");
      cfg.workload.open_loop.curve = workload::RateCurve::kDiurnal;
      sweep.add(cfg);
    }
    {
      auto cfg = open_base("poisson / flash crowd");
      cfg.workload.open_loop.curve = workload::RateCurve::kFlashCrowd;
      sweep.add(cfg);
    }
    {
      auto cfg = open_base("self-similar a=1.2");
      cfg.workload.open_loop.process = workload::ArrivalProcess::kSelfSimilar;
      cfg.workload.open_loop.pareto_alpha = 1.2;
      sweep.add(cfg);
    }
    const auto stats = sweep.run();

    TextTable table({"variant", "arrivals", "offered", "read p99", "queue p99",
                     "shed", "SLA"});
    for (const auto& s : stats) {
      table.add_row(
          {s.label, count_cell(s, &workload::OpenLoopResult::arrivals),
           bench::ci_num(s.over([](const workload::RunResult& r) {
             return r.open_loop.offered_rate;
           })) + " ops/s",
           format_duration(s.read_latency.p99()),
           format_duration(merged_queueing(s).percentile(99)),
           count_cell(s, &workload::OpenLoopResult::shed_queue_full),
           bench::ci_pct(s.over([](const workload::RunResult& r) {
             return r.open_loop.sla_attainment;
           }))});
    }
    bench::print_table(table, args.csv);

    bool conserved = true;
    for (const auto& s : stats) conserved &= ledger_conserved(s);
    auto arrivals_of = [](const workload::SweepStats& s) {
      return s.over([](const workload::RunResult& r) {
        return static_cast<double>(r.open_loop.arrivals);
      }).mean;
    };
    const double flat = arrivals_of(stats[0]);
    const double flash = arrivals_of(stats[2]);
    const auto poisson_q99 = merged_queueing(stats[0]).percentile(99);
    const auto pareto_q99 = merged_queueing(stats[3]).percentile(99);
    const bool pass = conserved && flat > 0 && flash > 1.3 * flat;
    all_pass = all_pass && pass;
    std::printf(
        "\nenvelopes: flash crowd lifts arrivals %.0f -> %.0f (%.2fx); "
        "self-similar gaps queue p99 %s vs poisson %s\n"
        "%s: flash window injects >= 1.3x arrivals; every variant's ledger "
        "conserves%s\n\n",
        flat, flash, flat > 0 ? flash / flat : 0.0,
        format_duration(pareto_q99).c_str(),
        format_duration(poisson_q99).c_str(), pass ? "PASS" : "FAIL",
        conserved ? "" : " (LEDGER VIOLATION)");
  }

  // ------------------------------------------------------------------------
  // Scenario 3: determinism — rerun- and shard-thread-invariance.
  // ------------------------------------------------------------------------
  {
    bench::print_header(
        "Scale 3/3: determinism — reruns and shard threads",
        "8 nodes / 1 DC split into 4 key-range shards (150us intra-DC "
        "floors), flash-crowd overload; the same seed must reproduce every "
        "counter and percentile exactly for a rerun and for 1/2/4 shard "
        "worker threads");

    // One source per key-range shard, ownership-filtered key streams: 1/2/4
    // workers must reproduce the merged-serial ledger exactly.
    auto make_kr = [&](unsigned threads) {
      auto cfg = open_config(p, saturating, args.seed);
      cfg.label = "kr-threads=" + std::to_string(threads);
      cfg.cluster.node_count = 8;
      cfg.cluster.dc_count = 1;
      cfg.cluster.latency.same_rack.floor = usec(150);
      cfg.cluster.latency.same_dc.floor = usec(150);
      cfg.workload.open_loop.curve = workload::RateCurve::kFlashCrowd;
      cfg.workload.open_loop.flash_at = p.duration / 2;
      cfg.workload.open_loop.flash_ramp = p.duration / 10;
      cfg.workload.open_loop.flash_hold = p.duration / 5;
      cfg.num_shard_threads = threads;
      cfg.shards_per_dc = 4;
      return cfg;
    };

    // Every comparison is exact equality — "close" is a determinism bug.
    auto same = [](const workload::RunResult& a, const workload::RunResult& b,
                   const char* what) {
      const auto& x = a.open_loop;
      const auto& y = b.open_loop;
      const bool ok =
          a.reads == b.reads && a.writes == b.writes && a.errors == b.errors &&
          a.sim_events == b.sim_events &&
          a.net.total_bytes() == b.net.total_bytes() &&
          a.read_latency.count() == b.read_latency.count() &&
          a.read_latency.percentile(99) == b.read_latency.percentile(99) &&
          a.write_latency.percentile(99) == b.write_latency.percentile(99) &&
          x.arrivals == y.arrivals && x.issued == y.issued &&
          x.completed == y.completed && x.failed == y.failed &&
          x.shed_queue_full == y.shed_queue_full &&
          x.queued_at_end == y.queued_at_end &&
          x.in_flight_at_end == y.in_flight_at_end && x.sla_ok == y.sla_ok &&
          x.sla_total == y.sla_total &&
          x.queueing_delay.count() == y.queueing_delay.count() &&
          x.queueing_delay.percentile(99) == y.queueing_delay.percentile(99);
      std::printf("  %-28s %s\n", what, ok ? "identical" : "DIVERGED");
      return ok;
    };

    const auto kr_serial = workload::run_experiment(make_kr(1));
    const auto kr_rerun = workload::run_experiment(make_kr(1));
    const auto kr_two = workload::run_experiment(make_kr(2));
    const auto kr_four = workload::run_experiment(make_kr(4));
    std::printf("key-range 1 DC x 4 shards: %llu arrivals, %llu events\n",
                static_cast<unsigned long long>(kr_serial.open_loop.arrivals),
                static_cast<unsigned long long>(kr_serial.sim_events));
    bool pass = ledger_conserved(kr_serial.open_loop, "kr-threads=1");
    pass &= same(kr_serial, kr_rerun, "key-range rerun, same seed");
    pass &= same(kr_serial, kr_two, "key-range, 2 threads");
    pass &= same(kr_serial, kr_four, "key-range, 4 threads");

    all_pass = all_pass && pass;
    std::printf("%s: byte-identical ledger and percentiles across reruns and "
                "shard-thread counts\n\n",
                pass ? "PASS" : "FAIL");
  }

  std::printf("%s\n", all_pass ? "ALL SCENARIOS PASS" : "SCENARIO FAILURES");
  return all_pass ? 0 : 1;
}
