// The experiment runner's serial stack, rebuilt from public API, with spans
// around every call the benchmark can see from outside the program.
//
// workload::run_experiment() hides its stack, so it cannot say where host
// time goes. TracedStack assembles the same Simulation, Cluster, Monitor,
// policy and Client / OpenLoopSource objects that workload/runner.cpp builds,
// forks the master RNG with the same salts in the same order (Rng::fork
// advances the master stream, so order matters), and books the same warm-up,
// policy-tick and fault events. For a given seed it therefore replays
// run_experiment() event for event; bench/e2e/run.py checks that (the parity
// gate) before it prints any number from here. Serial runs only
// (RunConfig::num_shard_threads == 0), without the legacy `faults` closures
// or record_trace.
//
// Spans wrap set-up calls, Simulation::run / run_until, the ClientEnv
// callbacks, a Monitor subclass forwarding every record_* / on_* hook,
// Monitor::snapshot, a policy decorator and the workload event dispatcher.
// A span's self time is its duration minus its child spans' durations.
// Everything below the dispatcher and the hooks -- event kernel, cluster,
// network model, staleness oracle -- is the self time of "sim.run".
#pragma once

#include <sys/resource.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/histogram.h"
#include "monitor/monitor.h"
#include "workload/client.h"
#include "workload/open_loop.h"
#include "workload/runner.h"

namespace harmony::bench_e2e {

using Clock = std::chrono::steady_clock;

/// Peak resident set of this process so far, MiB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

enum class SpanId : std::uint8_t {
  kClusterCtor,      ///< cluster::Cluster constructor
  kKeydistBuild,     ///< KeyDistributionSpec::build (key zeta sums)
  kPreload,          ///< Cluster::preload_range
  kUsersBuild,       ///< open-loop user population (user zeta sums)
  kSimRun,           ///< Simulation::run / run_until: the request path
  kWorkloadIssue,    ///< workload-domain event: client issue / arrival
  kNextOp,           ///< ClientEnv::next_op
  kComplete,         ///< ClientEnv::on_read_complete / on_write_complete
  kMonitorIngest,    ///< Monitor record_* / on_* hooks
  kMonitorSnapshot,  ///< Monitor::snapshot at a policy tick
  kPolicyDecide,     ///< read_requirement / write_requirement
  kPolicyTick,       ///< ConsistencyPolicy::tick
  kCount,
};

inline constexpr std::array<const char*, static_cast<std::size_t>(SpanId::kCount)>
    kSpanNames = {"setup.cluster_ctor", "setup.keydist_build", "setup.preload",
                  "setup.users_build",  "sim.run",             "workload.issue",
                  "workload.next_op",   "workload.complete",   "monitor.ingest",
                  "monitor.snapshot",   "policy.decide",       "policy.tick"};

/// Aggregate of every span of one name.
struct SpanStats {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  /// Span durations; LatencyHistogram's unit is read as nanoseconds here.
  LatencyHistogram duration_ns;
};

/// In-memory span recorder: a stack of open spans for self time, per-name
/// aggregates, and the first kRawLimit raw spans for a Chrome trace file.
/// Single-threaded, like the serial run it observes.
class SpanRecorder {
 public:
  static constexpr std::size_t kRawLimit = 20'000;

  SpanRecorder() : origin_(Clock::now()) {
    stack_.reserve(16);
    raw_.reserve(kRawLimit + 16);
  }

  void begin(SpanId id) { stack_.push_back(Open{id, Clock::now(), 0}); }

  void end() {
    const Clock::time_point stop = Clock::now();
    const Open open = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = ns(stop - open.start);
    SpanStats& s = stats_[static_cast<std::size_t>(open.id)];
    ++s.count;
    s.total_ns += dur;
    s.self_ns += dur - open.child_ns;
    s.duration_ns.record(dur);
    if (!stack_.empty()) stack_.back().child_ns += dur;
    // Top-level spans (set-up calls, the run itself) are always kept so the
    // trace file shows the whole run even after the raw buffer filled.
    if (raw_.size() < kRawLimit || stack_.empty()) {
      raw_.push_back(Raw{open.id, ns(open.start - origin_), dur});
    }
  }

  const SpanStats& stats(SpanId id) const {
    return stats_[static_cast<std::size_t>(id)];
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  bool write_chrome_trace(const char* path) const {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) return false;
    std::fputs("{\"traceEvents\":[", f);
    for (std::size_t i = 0; i < raw_.size(); ++i) {
      const Raw& r = raw_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f}",
                   i ? "," : "", kSpanNames[static_cast<std::size_t>(r.id)],
                   static_cast<double>(r.start_ns) / 1e3,
                   static_cast<double>(r.dur_ns) / 1e3);
    }
    std::fputs("\n],\"displayTimeUnit\":\"ns\"}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  struct Open {
    SpanId id;
    Clock::time_point start;
    std::int64_t child_ns;
  };
  struct Raw {
    SpanId id;
    std::int64_t start_ns;
    std::int64_t dur_ns;
  };

  static std::int64_t ns(Clock::duration d) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
  }

  Clock::time_point origin_;
  std::vector<Open> stack_;
  std::array<SpanStats, static_cast<std::size_t>(SpanId::kCount)> stats_{};
  std::vector<Raw> raw_;
};

class Span {
 public:
  Span(SpanRecorder& rec, SpanId id) : rec_(rec) { rec_.begin(id); }
  ~Span() { rec_.end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder& rec_;
};

/// The monitor with a span around every hook the cluster and clients call.
class TracedMonitor final : public monitor::Monitor {
 public:
  TracedMonitor(const monitor::MonitorConfig& cfg, SpanRecorder& rec)
      : Monitor(cfg), rec_(rec) {}

  void record_read_issued(SimTime now, std::uint64_t key) override {
    Span s(rec_, SpanId::kMonitorIngest);
    Monitor::record_read_issued(now, key);
  }
  void record_write_issued(SimTime now, std::uint64_t key,
                           std::uint32_t value_size) override {
    Span s(rec_, SpanId::kMonitorIngest);
    Monitor::record_write_issued(now, key, value_size);
  }
  void record_read_complete(SimTime now, SimDuration latency) override {
    Span s(rec_, SpanId::kMonitorIngest);
    Monitor::record_read_complete(now, latency);
  }
  void record_write_complete(SimTime now, SimDuration latency) override {
    Span s(rec_, SpanId::kMonitorIngest);
    Monitor::record_write_complete(now, latency);
  }
  void on_write_propagated(cluster::Key key, SimTime write_start,
                           const cluster::DelayList& delays) override {
    Span s(rec_, SpanId::kMonitorIngest);
    Monitor::on_write_propagated(key, write_start, delays);
  }
  void on_replica_read_rtt(net::NodeId replica, SimDuration rtt,
                           bool cross_dc) override {
    Span s(rec_, SpanId::kMonitorIngest);
    Monitor::on_replica_read_rtt(replica, rtt, cross_dc);
  }

 private:
  SpanRecorder& rec_;
};

/// Policy decorator: spans around the per-op decisions and the ticks.
class TracedPolicy final : public policy::ConsistencyPolicy {
 public:
  TracedPolicy(std::unique_ptr<policy::ConsistencyPolicy> inner,
               SpanRecorder& rec)
      : inner_(std::move(inner)), rec_(&rec) {}

  cluster::ReplicaRequirement read_requirement() const override {
    Span s(*rec_, SpanId::kPolicyDecide);
    return inner_->read_requirement();
  }
  cluster::ReplicaRequirement write_requirement() const override {
    Span s(*rec_, SpanId::kPolicyDecide);
    return inner_->write_requirement();
  }
  void tick(const monitor::SystemState& state) override {
    Span s(*rec_, SpanId::kPolicyTick);
    inner_->tick(state);
  }
  std::string name() const override { return inner_->name(); }
  std::uint64_t switches() const override { return inner_->switches(); }

 private:
  std::unique_ptr<policy::ConsistencyPolicy> inner_;
  SpanRecorder* rec_;  // const decisions still record
};

/// Recorder for the workload-domain dispatcher. EventDispatchFn is a plain
/// function pointer, so the wrapper reaches its recorder through this.
inline SpanRecorder* g_dispatch_recorder = nullptr;

inline void traced_workload_dispatch(const sim::TypedEvent& ev) {
  Span s(*g_dispatch_recorder, SpanId::kWorkloadIssue);
  workload::Client::dispatch_event(ev);
}

/// Serial run_experiment() rebuilt with spans. run() fills the RunResult
/// fields the parity gate compares (volume, latency histograms, staleness,
/// events, policy switches, open-loop ledger), nothing else.
class TracedStack final : public workload::ClientEnv {
 public:
  // Mirrors the Runner constructor: cluster, then the op-stream fork, the
  // key distribution, monitor attach and the policy fork, in that order.
  TracedStack(const workload::RunConfig& cfg, SpanRecorder& rec)
      : cfg_(cfg), rec_(rec), sim_(cfg.seed), monitor_(cfg.monitor, rec) {
    HARMONY_CHECK_MSG(cfg_.num_shard_threads == 0,
                      "TracedStack rebuilds the serial runner only");
    HARMONY_CHECK_MSG(cfg_.faults.empty() && !cfg_.record_trace,
                      "TracedStack mirrors fault_schedule runs without "
                      "record_trace");
    HARMONY_CHECK_MSG(cfg_.policy != nullptr && cfg_.policy_tick > 0,
                      "TracedStack needs a policy and a tick period");
    {
      Span s(rec_, SpanId::kClusterCtor);
      cluster_ = std::make_unique<cluster::Cluster>(sim_, cfg_.cluster);
    }
    op_rng_ = sim_.fork_rng(0x0FAB5EED);
    {
      Span s(rec_, SpanId::kKeydistBuild);
      request_dist_ =
          cfg_.workload.request_dist.build(cfg_.workload.record_count);
    }
    cfg_.workload.validate();
    monitor_.attach(*cluster_, /*client_home_dc=*/0);
    policy::PolicyInit init;
    init.rf = cfg_.cluster.rf;
    init.local_rf = cfg_.cluster.local_rf(0);
    init.rng = sim_.fork_rng(0x90110C);
    auto inner = cfg_.policy(init);
    HARMONY_CHECK_MSG(inner != nullptr, "policy factory returned null");
    policy_ = std::make_unique<TracedPolicy>(std::move(inner), rec_);
  }

  TracedStack(const TracedStack&) = delete;
  TracedStack& operator=(const TracedStack&) = delete;

  /// Mirrors Runner::run(): preload, traffic sources, faults, policy timer,
  /// warm-up boundary, the run itself.
  workload::RunResult run() {
    const workload::WorkloadSpec& w = cfg_.workload;
    {
      Span s(rec_, SpanId::kPreload);
      cluster_->preload_range(w.record_count, w.value_size);
    }
    next_insert_key_ = w.record_count;
    if (w.open_loop.enabled) {
      setup_open_loop();
    } else {
      for (std::size_t d = 0; d < cfg_.cluster.dc_count; ++d) {
        if (!hosts_clients(d)) continue;
        for (int i = 0; i < w.clients_per_dc; ++i) {
          clients_.push_back(std::make_unique<workload::Client>(
              *this, static_cast<net::DcId>(d), w.target_rate_per_client,
              sim_.fork_rng(0xC11E017 + clients_.size()),
              w.reroute_on_dc_outage, w.shed_retry_limit));
        }
      }
      for (auto& c : clients_) c->start();
    }
    // start() registered Client::dispatch_event; interpose the span wrapper.
    g_dispatch_recorder = &rec_;
    sim_.set_event_dispatcher(sim::EventDomain::kWorkload,
                              &traced_workload_dispatch);
    for (const auto& fault : cfg_.fault_schedule) cluster_->schedule_fault(fault);
    policy_timer_.start(sim_, cfg_.policy_tick, [this] {
      monitor::SystemState state;
      {
        Span s(rec_, SpanId::kMonitorSnapshot);
        state = monitor_.snapshot(sim_.now());
      }
      policy_->tick(state);
    });
    if (cfg_.warmup > 0) {
      sim_.schedule(cfg_.warmup, [this] { begin_measurement(); });
    } else {
      begin_measurement();
    }
    setup_rss_mb_ = peak_rss_mb();
    {
      Span s(rec_, SpanId::kSimRun);
      if (w.open_loop.enabled) {
        sim_.run_until(w.open_loop.duration + w.open_loop.drain_grace);
      } else {
        sim_.run();
      }
    }
    return collect();
  }

  /// Every client completion over the whole run (warm-up included).
  std::uint64_t completions() const { return ops_completed_; }
  /// Peak RSS when set-up ended, just before the run started.
  double setup_rss_mb() const { return setup_rss_mb_; }

  // ---- ClientEnv -----------------------------------------------------------

  bool next_op(workload::Op& op) override {
    Span s(rec_, SpanId::kNextOp);
    if (ops_issued_ >= cfg_.workload.op_count) return false;
    ++ops_issued_;
    const workload::WorkloadSpec& w = cfg_.workload;
    const double weights[4] = {w.read_proportion, w.update_proportion,
                               w.insert_proportion, w.rmw_proportion};
    op.type = static_cast<workload::OpType>(op_rng_.weighted_index(weights, 4));
    if (op.type == workload::OpType::kInsert) {
      op.key = next_insert_key_++;
      request_dist_->grow(next_insert_key_);
    } else {
      op.key = request_dist_->next(op_rng_);
    }
    op.value_size = w.value_size;
    return true;
  }

  const policy::ConsistencyPolicy& policy() const override { return *policy_; }
  cluster::Cluster& cluster() override { return *cluster_; }
  monitor::Monitor& monitor() override { return monitor_; }
  sim::Simulation& simulation() override { return sim_; }

  void on_read_complete(const cluster::ReadResult& r, SimDuration latency,
                        int /*replicas_requested*/) override {
    Span s(rec_, SpanId::kComplete);
    ++ops_completed_;
    if (!measuring_) return;
    ++result_.reads;
    if (!r.ok) {
      ++result_.errors;
      return;
    }
    result_.read_latency.record(latency);
    if (r.stale) {
      ++result_.stale_reads;
    } else {
      ++result_.fresh_reads;
    }
  }

  void on_write_complete(const cluster::WriteResult& w,
                         SimDuration latency) override {
    Span s(rec_, SpanId::kComplete);
    ++ops_completed_;
    if (!measuring_) return;
    ++result_.writes;
    if (!w.ok) {
      ++result_.errors;
    } else {
      result_.write_latency.record(latency);
    }
  }

  void on_client_finished() override {
    ++clients_finished_;
    if (clients_finished_ == clients_.size() + sources_.size()) {
      policy_timer_.stop();
    }
  }

 private:
  bool hosts_clients(std::size_t dc) const {
    return cfg_.workload.client_dc < 0 ||
           dc == static_cast<std::size_t>(cfg_.workload.client_dc);
  }

  void begin_measurement() {
    measuring_ = true;
    for (auto& s : sources_) s->set_measuring(true);
  }

  /// Mirrors Runner::setup_open_loop() on the unsharded path: one source per
  /// client-hosting DC, each with its share of the rate and its own fork.
  void setup_open_loop() {
    const workload::OpenLoopSpec& ol = cfg_.workload.open_loop;
    HARMONY_CHECK_MSG(cfg_.warmup < ol.duration,
                      "open-loop warmup must end before generation stops");
    const std::size_t dcs = cfg_.cluster.dc_count;
    std::size_t active = 0;
    for (std::size_t d = 0; d < dcs; ++d) active += hosts_clients(d) ? 1 : 0;
    HARMONY_CHECK(active > 0);
    std::unique_ptr<ScrambledZipfianKeys> users;
    {
      Span s(rec_, SpanId::kUsersBuild);
      users = std::make_unique<ScrambledZipfianKeys>(ol.user_count,
                                                     ol.user_zipf_theta);
    }
    for (std::size_t d = 0; d < dcs; ++d) {
      if (!hosts_clients(d)) continue;
      sources_.push_back(std::make_unique<workload::OpenLoopSource>(
          *this, static_cast<net::DcId>(d), cfg_.workload,
          ol.rate_per_s / static_cast<double>(active),
          /*insert_lane=*/d, /*insert_stride=*/dcs,
          sim_.fork_rng(0x01E27007 + 0x9E37 * (d + 1)),
          request_dist_->clone(), *users));
    }
    for (auto& s : sources_) s->start();
  }

  workload::RunResult collect() {
    workload::RunResult& r = result_;
    r.ops = r.reads + r.writes;
    r.policy_switches = policy_->switches();
    r.sim_events = sim_.events_processed();
    for (const auto& s : sources_) s->collect(r.open_loop);
    return r;
  }

  workload::RunConfig cfg_;
  SpanRecorder& rec_;
  sim::Simulation sim_;
  std::unique_ptr<cluster::Cluster> cluster_;
  TracedMonitor monitor_;
  Rng op_rng_;
  std::unique_ptr<KeyDistribution> request_dist_;
  std::unique_ptr<TracedPolicy> policy_;
  std::vector<std::unique_ptr<workload::Client>> clients_;
  std::vector<std::unique_ptr<workload::OpenLoopSource>> sources_;
  sim::PeriodicTimer policy_timer_;
  std::uint64_t ops_issued_ = 0;
  std::uint64_t ops_completed_ = 0;
  std::uint64_t next_insert_key_ = 0;
  std::size_t clients_finished_ = 0;
  bool measuring_ = false;
  double setup_rss_mb_ = 0;
  workload::RunResult result_;
};

}  // namespace harmony::bench_e2e
