// bench_e2e: one run of one end-to-end benchmark workload per process.
//
//   bench_e2e --workload=NAME --seed=N --mode=timed|setup|traced
//             [--smoke] [--threads=N] [--trace-out=PATH]
//   bench_e2e --mode=info
//
// Modes:
//   timed   workload::run_experiment() on the workload, host wall time
//           around the call, peak RSS of the process;
//   setup   the same configuration with traffic cut to nothing (closed loop:
//           one op; open loop: a rate at which no arrival lands), so its
//           wall time is the set-up cost of a run; repeated in the process
//           for a quarter of a second (at least once), median reported;
//   traced  the same run through TracedStack (traced_stack.h), with span
//           aggregates and, with --trace-out, a Chrome trace of the first
//           raw spans;
//   info    compiler and build type, for the results file's host record.
// --threads overrides RunConfig::num_shard_threads (key-range workload: 0 is
// the unsharded reference, 1 merged-serial, N the timed configuration).
//
// Each run prints one JSON object on stdout. bench/e2e/run.py starts one
// process per run and owns the statistics and the correctness checks; the
// workloads and metrics are described in bench/e2e/README.md.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/bismar.h"
#include "core/harmony.h"
#include "core/static_policy.h"
#include "traced_stack.h"
#include "workload/runner.h"

namespace harmony::bench_e2e {
namespace {

// ---------------------------------------------------------------- workloads
// Sizes are full-mode values; --smoke divides op counts and simulated spans
// by kSmokeDivisor and keeps every shape (node counts, clients, and the key
// space of every workload but openloop_2m).
constexpr std::uint64_t kSmokeDivisor = 20;

std::uint64_t sized(std::uint64_t full, bool smoke) {
  return smoke ? full / kSmokeDivisor : full;
}

// Set-up mode repeats the set-up until this much host time has passed.
constexpr double kSetupBudgetS = 0.25;
constexpr std::size_t kMaxSetupRepeats = 101;

/// Paper §IV-A: Harmony's adaptive loop on the EC2 two-AZ shape at full
/// closed-loop capacity.
workload::RunConfig harmony_ec2(bool smoke) {
  workload::RunConfig cfg;
  cfg.cluster.node_count = 20;
  cfg.cluster.dc_count = 2;
  cfg.cluster.rf = 3;
  cfg.cluster.latency = net::TieredLatencyModel::ec2_two_az();
  cfg.workload = workload::WorkloadSpec::heavy_read_update();
  cfg.workload.record_count = 100'000;
  cfg.workload.op_count = sized(1'000'000, smoke);
  cfg.workload.clients_per_dc = 48;
  cfg.policy = core::harmony_policy(0.40);
  cfg.policy_tick = 200 * kMillisecond;
  cfg.warmup = 600 * kMillisecond;
  return cfg;
}

/// Open-loop Poisson arrivals from 2M users over 2M records: set-up and
/// memory dominated, working set far beyond the replica cache.
workload::RunConfig openloop_2m(bool smoke) {
  workload::RunConfig cfg;
  cfg.cluster.node_count = 12;
  cfg.cluster.dc_count = 3;
  cfg.cluster.rf = 3;
  cfg.cluster.latency = net::TieredLatencyModel::ec2_two_az();
  // With the default 8 tokens per node, some seeds' rings give one node
  // twice its share of the 2M keys, its store outgrows the preload reserve
  // and peak RSS jumps by ~15%; 64 tokens keep every seed's ring balanced.
  cfg.cluster.vnodes_per_node = 64;
  cfg.workload = workload::WorkloadSpec::ycsb_b();
  // Smoke mode shrinks the key and user space too: at full size their
  // set-up would dwarf a twentieth of the traffic.
  cfg.workload.record_count = sized(2'000'000, smoke);
  cfg.workload.open_loop.enabled = true;
  cfg.workload.open_loop.rate_per_s = 9'000;
  cfg.workload.open_loop.duration =
      static_cast<SimDuration>(sized(110, smoke) * kSecond);
  cfg.workload.open_loop.user_count = sized(2'000'000, smoke);
  cfg.policy = core::static_level(cluster::Level::kOne);
  return cfg;
}

/// Writes beside reads on a shared hot set, with one node's links slowed
/// mid-run: oracle write storms, read repair, anti-entropy, hedged reads.
/// The fault is a slowdown, not a kill: Bismar reads at ALL whenever the
/// write storm makes staleness likely, and a read at ALL with a replica down
/// is unavailable, while the benchmark's workloads must not fail operations.
workload::RunConfig write_storm_faults(bool smoke) {
  workload::RunConfig cfg;
  cfg.cluster.node_count = 9;
  cfg.cluster.dc_count = 3;
  cfg.cluster.rf = 3;
  cfg.cluster.latency = net::TieredLatencyModel::ec2_two_az();
  cfg.cluster.anti_entropy_period = 500 * kMillisecond;
  cfg.cluster.resilience.hedge_reads = true;
  cfg.cluster.resilience.read_retries = 2;
  cfg.workload.read_proportion = 0.2;
  cfg.workload.update_proportion = 0.8;
  cfg.workload.request_dist.kind = KeyDistributionKind::kZipfian;
  cfg.workload.record_count = 1'000;
  cfg.workload.op_count = sized(600'000, smoke);
  cfg.workload.clients_per_dc = 32;
  cfg.policy = core::bismar_policy();
  // Slow node 4 down from 1/4 to 1/2 of the run's simulated span.
  const auto span = static_cast<SimTime>(sized(80, smoke) * kSecond);
  cfg.fault_schedule = {
      {span / 4, cluster::FaultOp::kDegradeNode, /*node=*/4, 0, 20.0},
      {span / 2, cluster::FaultOp::kRestoreNode, /*node=*/4, 0, 1.0}};
  return cfg;
}

/// One DC split into four key-range shards: the only workload through the
/// sharded executor (windows, barriers, mailboxes, barrier-hook replay).
/// Latency floors of BM_KeyRangeShardedThroughput.
workload::RunConfig keyrange_sharded(bool smoke) {
  workload::RunConfig cfg;
  cfg.cluster.node_count = 16;
  cfg.cluster.dc_count = 1;
  cfg.cluster.rf = 3;
  cfg.cluster.latency = net::TieredLatencyModel::ec2_two_az();
  cfg.cluster.latency.cross_dc = {msec(2), 0.3, msec(1)};
  cfg.cluster.latency.same_rack.floor = usec(150);
  cfg.cluster.latency.same_dc.floor = usec(150);
  cfg.workload = workload::WorkloadSpec::ycsb_a();
  cfg.workload.record_count = 100'000;
  cfg.workload.op_count = sized(250'000, smoke);
  cfg.workload.clients_per_dc = 64;
  cfg.policy = core::static_level(cluster::Level::kOne);
  cfg.warmup = 500 * kMillisecond;
  cfg.shards_per_dc = 4;
  cfg.num_shard_threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  return cfg;
}

struct WorkloadDef {
  const char* name;
  workload::RunConfig (*make)(bool smoke);
};

constexpr WorkloadDef kWorkloads[] = {
    {"harmony_ec2", &harmony_ec2},
    {"openloop_2m", &openloop_2m},
    {"write_storm_faults", &write_storm_faults},
    {"keyrange_sharded", &keyrange_sharded},
};

// ------------------------------------------------------------------ output

/// One flat-ish JSON object, built field by field.
class JsonObject {
 public:
  void num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    raw(key, buf);
  }
  void u64(const char* key, std::uint64_t v) { raw(key, std::to_string(v)); }
  void str(const char* key, const std::string& v) {
    raw(key, "\"" + v + "\"");
  }
  void raw(const char* key, const std::string& json) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"";
    body_ += key;
    body_ += "\":";
    body_ += json;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Percentile in milliseconds of a histogram recorded in microseconds.
double percentile_ms(const LatencyHistogram& h, double p) {
  return static_cast<double>(h.percentile(p)) / 1e3;
}

/// The RunResult fields run.py reads: model metrics, exact layer counts,
/// parity and ledger fields.
void add_outcome(JsonObject& j, const workload::RunResult& r) {
  j.u64("ops", r.ops);
  j.u64("reads", r.reads);
  j.u64("writes", r.writes);
  j.u64("errors", r.errors);
  j.u64("read_count", r.read_latency.count());
  j.u64("write_count", r.write_latency.count());
  j.num("read_p50_ms", percentile_ms(r.read_latency, 50));
  j.num("read_p99_ms", percentile_ms(r.read_latency, 99));
  j.num("write_p99_ms", percentile_ms(r.write_latency, 99));
  j.num("throughput", r.throughput);
  j.u64("stale_reads", r.stale_reads);
  j.u64("fresh_reads", r.fresh_reads);
  j.num("bill_usd", r.bill.total());
  j.u64("sim_events", r.sim_events);
  j.u64("net_messages", r.net.total_messages());
  j.u64("net_bytes", r.net.total_bytes());
  j.u64("net_cross_dc_bytes", r.net.cross_dc_bytes());
  j.u64("timeouts", r.timeouts);
  j.u64("unavailable", r.unavailable);
  j.u64("sheds", r.sheds);
  j.u64("read_repairs", r.read_repairs);
  j.u64("retries", r.retries);
  j.u64("hedges_fired", r.hedges_fired);
  j.u64("hedge_wins", r.hedge_wins);
  j.u64("policy_switches", r.policy_switches);
  j.num("avg_read_replicas", r.avg_read_replicas);
  j.u64("mailbox_spills", r.mailbox_spills);
  const workload::OpenLoopResult& ol = r.open_loop;
  j.u64("ol_arrivals", ol.arrivals);
  j.u64("ol_issued", ol.issued);
  j.u64("ol_completed", ol.completed);
  j.u64("ol_failed", ol.failed);
  j.u64("ol_shed_queue_full", ol.shed_queue_full);
  j.u64("ol_queued_at_end", ol.queued_at_end);
  j.u64("ol_in_flight_at_end", ol.in_flight_at_end);
  j.num("ol_queueing_p99_ms", percentile_ms(ol.queueing_delay, 99));
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload=NAME --seed=N "
               "--mode=timed|setup|traced [--smoke] [--threads=N] "
               "[--trace-out=PATH]\n       bench_e2e --mode=info\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& v, const char* flag) {
  char* end = nullptr;
  const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0') usage(flag);
  return n;
}

int run(int argc, char** argv) {
  std::string name, mode, trace_out;
  std::uint64_t seed = 42;
  bool smoke = false;
  long threads = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") {
      name = val;
    } else if (key == "--mode") {
      mode = val;
    } else if (key == "--seed") {
      seed = parse_u64(val, "bad --seed");
    } else if (key == "--threads") {
      const std::uint64_t t = parse_u64(val, "bad --threads");
      if (t > 256) usage("bad --threads");
      threads = static_cast<long>(t);
    } else if (key == "--trace-out") {
      trace_out = val;
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }

  JsonObject out;
  if (mode == "info") {
    out.str("compiler", __VERSION__);
    out.str("build_type", HARMONY_E2E_BUILD_TYPE);
    std::printf("%s\n", out.text().c_str());
    return 0;
  }
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) def = &w;
  }
  if (def == nullptr) usage("unknown or missing --workload");

  workload::RunConfig cfg = def->make(smoke);
  cfg.label = def->name;
  cfg.seed = seed;
  if (threads >= 0) cfg.num_shard_threads = static_cast<unsigned>(threads);
  workload::OpenLoopSpec& ol = cfg.workload.open_loop;
  if (mode == "setup") {
    // Mean gap 1e16 us against a few-minute horizon: no arrival lands, and
    // the largest exponential draw still fits a SimDuration.
    if (ol.enabled) ol.rate_per_s = 1e-10;
    cfg.workload.op_count = 1;
  }
  out.str("workload", def->name);
  out.str("mode", mode);
  out.u64("seed", seed);
  out.u64("threads", cfg.num_shard_threads);
  out.u64("op_count", ol.enabled ? 0 : cfg.workload.op_count);

  if (mode == "timed") {
    const Clock::time_point t0 = Clock::now();
    const workload::RunResult r = workload::run_experiment(cfg);
    out.num("wall_s", seconds_since(t0));
    out.num("peak_rss_mb", peak_rss_mb());
    add_outcome(out, r);
  } else if (mode == "setup") {
    // One set-up of a small workload takes about a millisecond, too short
    // for one reading to be steady: set up repeatedly for kSetupBudgetS
    // (at least once) and report the median.
    std::vector<double> walls;
    workload::RunResult r;
    const Clock::time_point start = Clock::now();
    do {
      const Clock::time_point t0 = Clock::now();
      r = workload::run_experiment(cfg);
      walls.push_back(seconds_since(t0));
    } while (walls.size() < kMaxSetupRepeats &&
             seconds_since(start) < kSetupBudgetS);
    std::sort(walls.begin(), walls.end());
    const std::size_t mid = walls.size() / 2;
    out.num("wall_s", walls.size() % 2 ? walls[mid]
                                       : (walls[mid - 1] + walls[mid]) / 2);
    out.u64("setup_repeats", walls.size());
    out.num("peak_rss_mb", peak_rss_mb());
    add_outcome(out, r);
  } else if (mode == "traced") {
    SpanRecorder rec;
    const Clock::time_point t0 = Clock::now();
    TracedStack stack(cfg, rec);
    const workload::RunResult r = stack.run();
    out.num("wall_s", seconds_since(t0));
    out.num("peak_rss_mb", peak_rss_mb());
    out.num("setup_rss_mb", stack.setup_rss_mb());
    out.u64("completions", stack.completions());
    add_outcome(out, r);
    JsonObject spans;
    for (std::size_t i = 0; i < kSpanNames.size(); ++i) {
      const SpanStats& s = rec.stats(static_cast<SpanId>(i));
      JsonObject one;
      one.u64("count", s.count);
      one.num("total_ns", static_cast<double>(s.total_ns));
      one.num("self_ns", static_cast<double>(s.self_ns));
      one.num("p50_ns", static_cast<double>(s.duration_ns.percentile(50)));
      one.num("p99_ns", static_cast<double>(s.duration_ns.percentile(99)));
      spans.raw(kSpanNames[i], one.text());
    }
    out.raw("spans", spans.text());
    if (!trace_out.empty() && !rec.write_chrome_trace(trace_out.c_str())) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n", trace_out.c_str());
      return 1;
    }
  } else {
    usage("unknown or missing --mode");
  }
  std::printf("%s\n", out.text().c_str());
  return 0;
}

}  // namespace
}  // namespace harmony::bench_e2e

int main(int argc, char** argv) { return harmony::bench_e2e::run(argc, argv); }
