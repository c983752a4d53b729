#include "workload/runner.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/check.h"
#include "cost/energy.h"
#include "workload/client.h"

namespace harmony::workload {

namespace {

/// Every run's nodes draw power by cost::PowerModel's default linear model.
const cost::PowerModel kPowerModel{};

/// Owns every entity of one experiment and implements the client callbacks.
class Runner final : public ClientEnv {
 public:
  explicit Runner(const RunConfig& cfg)
      : cfg_(cfg),
        sim_(cfg.seed),
        cluster_(shard_configured(sim_, cfg), cfg.cluster),
        monitor_(cfg.monitor),
        op_rng_(sim_.fork_rng(0x0FAB5EED)),
        request_dist_(cfg.workload.request_dist.build(cfg.workload.record_count)) {
    cfg_.workload.validate();
    HARMONY_CHECK_MSG(
        cfg_.workload.client_dc <
            static_cast<int>(cfg_.cluster.dc_count),
        "client_dc out of range");
    HARMONY_CHECK_MSG(cfg_.policy_tick >= 0,
                      "policy_tick must be >= 0 (0 = never retune)");
    HARMONY_CHECK_MSG(cfg_.warmup >= 0, "warmup must be >= 0");
    if (cfg_.record_trace) trace_ = std::make_shared<Trace>();
    monitor_.attach(cluster_, /*client_home_dc=*/0);
    policy::PolicyInit init;
    init.rf = cfg_.cluster.rf;
    init.local_rf = cfg_.cluster.local_rf(0);
    init.rng = sim_.fork_rng(0x90110C);
    policy_ = cfg_.policy(init);
    HARMONY_CHECK_MSG(policy_ != nullptr, "policy factory returned null");
  }

  RunResult run() {
    cluster_.preload_range(cfg_.workload.record_count, cfg_.workload.value_size);
    init_lanes();

    if (cfg_.workload.open_loop.enabled) {
      setup_open_loop();
    } else {
      // Clients, spread over every DC (or confined to one via client_dc).
      // Each client is homed on one key-range shard (round-robin; shard 0
      // in a one-shard run), where its whole closed loop — and every key it
      // touches — lives.
      for (std::size_t d = 0; d < cfg_.cluster.dc_count; ++d) {
        if (!hosts_clients(d)) continue;
        for (int i = 0; i < cfg_.workload.clients_per_dc; ++i) {
          const std::uint32_t shard =
              static_cast<std::uint32_t>(i) % sim_.shard_count();
          clients_.push_back(std::make_unique<Client>(
              *this, static_cast<net::DcId>(d),
              cfg_.workload.target_rate_per_client,
              sim_.fork_rng(0xC11E017 + clients_.size()),
              cfg_.workload.reroute_on_dc_outage,
              cfg_.workload.shed_retry_limit,
              static_cast<std::uint8_t>(shard)));
          ++lane_[shard].clients;
        }
      }
      for (auto& c : clients_) {
        // The start stagger (and every event it transitively books) belongs
        // to the client's shard.
        sim_.set_setup_shard(c->shard());
        c->start();
      }
      sim_.set_setup_shard(0);
    }

    // Scheduled failure injection, typed lane (serial runs only): the
    // legacy kill/revive list first, then the full schedule (blackouts,
    // degradation windows, ...).
    for (const auto& fault : cfg_.faults) {
      cluster_.schedule_fault(
          {.at = fault.at,
           .op = fault.kill ? cluster::FaultOp::kKillNode
                            : cluster::FaultOp::kReviveNode,
           .node = fault.node});
    }
    for (const auto& fault : cfg_.fault_schedule) {
      cluster_.schedule_fault(fault);
    }

    // Policy retuning ticks, each on a fenced instant (see tick_policy).
    if (cfg_.policy_tick > 0) {
      sim_.register_fence(cfg_.policy_tick);
      policy_timer_.start(sim_, cfg_.policy_tick, [this] { tick_policy(); });
    }

    // Warm-up boundary: reset measurements, keep billing clocks running.
    // One boundary event per lane, on its shard, each flipping only that
    // lane's measuring state — the flip lands at the same (time, seq) point
    // of the merge for every thread count.
    for (std::uint32_t d = 0; d < lane_.size(); ++d) {
      if (cfg_.warmup > 0) {
        sim_.set_setup_shard(d);
        sim_.schedule(cfg_.warmup, [this, d] { begin_measurement(d); });
      } else {
        begin_measurement(d);
      }
    }
    sim_.set_setup_shard(0);

    if (cfg_.workload.open_loop.enabled) {
      // Open-loop runs are time-bounded: generation stops at `duration`,
      // in-flight work gets `drain_grace` to land, and whatever is still
      // queued or in flight at the horizon stays in the ledger as an
      // explicit remainder instead of extending the run.
      sim_.run_until(cfg_.workload.open_loop.duration +
                     cfg_.workload.open_loop.drain_grace);
    } else {
      sim_.run();
    }
    return collect();
  }

  // ---- ClientEnv -----------------------------------------------------------

  /// The op stream: each shard lane owns a slice of the op budget, its own
  /// RNG stream and key distribution. Under key-range sharding the lane
  /// keeps only keys its shard owns: distribution draws are
  /// rejection-sampled against Cluster::home_shard. Inserts are serial-only
  /// (the one lane appends keys record_count, record_count + 1, ...). Runs
  /// on the calling client's shard thread; touches only that shard's
  /// LaneState.
  bool next_op(Op& op) override {
    const std::uint32_t shard = sim_.current_shard();
    LaneState& s = lane_[shard];
    const bool key_filter = lane_.size() > 1;
    if (s.ops_issued >= s.ops_budget) return false;
    ++s.ops_issued;
    const WorkloadSpec& w = cfg_.workload;
    const double weights[4] = {w.read_proportion, w.update_proportion,
                               w.insert_proportion, w.rmw_proportion};
    switch (s.op_rng.weighted_index(weights, 4)) {
      case 0: op.type = OpType::kRead; break;
      case 1: op.type = OpType::kUpdate; break;
      case 2: op.type = OpType::kInsert; break;
      default: op.type = OpType::kReadModifyWrite; break;
    }
    if (op.type == OpType::kInsert) {
      op.key = w.record_count + s.next_insert_seq++;
      s.request_dist->grow(op.key + 1);
    } else {
      int tries = 0;
      do {
        HARMONY_CHECK_MSG(++tries < 65536,
                          "key ownership rejection sampling did not converge "
                          "(degenerate key distribution vs shard ranges)");
        op.key = s.request_dist->next(s.op_rng);
      } while (key_filter && cluster_.home_shard(op.key) != shard);
    }
    op.value_size = w.value_size;
    if (trace_ != nullptr) {
      // Serial-only, so issue order is the (time, seq) order.
      trace_->records.push_back(
          TraceRecord{sim_.now(), op.type, op.key, op.value_size});
    }
    return true;
  }

  const policy::ConsistencyPolicy& policy() const override { return *policy_; }
  cluster::Cluster& cluster() override { return cluster_; }
  monitor::Monitor& monitor() override { return monitor_; }
  sim::Simulation& simulation() override { return sim_; }

  void on_read_complete(const cluster::ReadResult& r, SimDuration latency,
                        int replicas_requested) override {
    LaneState& s = lane_[sim_.current_shard()];
    ++s.ops_completed;
    if (!s.measuring) return;
    ++s.reads;
    if (!r.ok) {
      ++s.errors;
      return;
    }
    s.read_latency.record(latency);
    ++s.read_level_usage[replicas_requested];
    if (r.stale) {
      ++s.stale_reads;
      s.staleness_age.record(r.staleness_age);
    } else {
      ++s.fresh_reads;
    }
  }

  void on_write_complete(const cluster::WriteResult& w,
                         SimDuration latency) override {
    LaneState& s = lane_[sim_.current_shard()];
    ++s.ops_completed;
    if (!s.measuring) return;
    ++s.writes;
    if (!w.ok) {
      ++s.errors;
    } else {
      s.write_latency.record(latency);
    }
  }

  void on_client_finished() override {
    LaneState& s = lane_[sim_.current_shard()];
    if (++s.clients_finished < s.clients) return;
    s.finish_time = sim_.now();
    // Budget drained. A one-shard run stops the retuning timer here, so the
    // queue can empty without one more tick; sharded lanes finish on worker
    // threads, and the next fenced tick stops it instead (tick_policy).
    if (sim_.shard_count() == 1) policy_timer_.stop();
  }

 private:
  /// Per-shard workload state ("lane"): everything a client callback mutates
  /// lives here, indexed by the executing shard, so workers never share a
  /// cache line let alone a counter. A one-shard run has one lane; a
  /// key-range sharded run has one per shard. Padded to a line for the
  /// adjacent-element case.
  struct alignas(64) LaneState {
    Rng op_rng;
    std::unique_ptr<KeyDistribution> request_dist;
    std::uint64_t ops_budget = 0;
    std::uint64_t ops_issued = 0;
    std::uint64_t ops_completed = 0;
    std::uint64_t next_insert_seq = 0;
    std::size_t clients = 0;
    std::size_t clients_finished = 0;
    bool measuring = false;
    std::uint64_t ops_at_measure_start = 0;
    SimTime finish_time = 0;
    // Measured (post-warmup) tallies, merged by collect().
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t errors = 0;
    std::uint64_t stale_reads = 0;
    std::uint64_t fresh_reads = 0;
    LatencyHistogram read_latency;
    LatencyHistogram write_latency;
    LatencyHistogram staleness_age;
    std::map<int, std::uint64_t> read_level_usage;
  };

  /// Runs in the constructor's member-init list: shards must be configured
  /// after the Simulation exists but before the Cluster (or anything else)
  /// schedules its first event, and a shape that cannot run is rejected
  /// here, before the run starts. The one sharded shape is a single DC cut
  /// into shards_per_dc key-range shards, carrying read/update/RMW traffic
  /// on a healthy cluster: the runner refuses its own serial-only settings
  /// here and the Cluster constructor refuses the cluster's. Replicas of a
  /// key sit on several shards, so intra-DC hops cross shards and their
  /// floors bound the conservative lookahead (loopback never crosses
  /// shards: src == dst node => same shard).
  static sim::Simulation& shard_configured(sim::Simulation& sim,
                                           const RunConfig& cfg) {
    if (cfg.num_shard_threads > 0) {
      HARMONY_CHECK_MSG(cfg.cluster.dc_count == 1,
                        "sharded runs (num_shard_threads > 0) cut one DC into "
                        "key-range shards: dc_count must be 1");
      HARMONY_CHECK_MSG(cfg.shards_per_dc >= 2,
                        "sharded runs (num_shard_threads > 0) need "
                        "shards_per_dc >= 2 key-range shards");
      const auto serial_only = [](bool set, const char* setting) {
        HARMONY_CHECK_MSG(!set, std::string(setting) +
                                    " is serial-only (num_shard_threads > 0)");
      };
      serial_only(!cfg.faults.empty(), "faults");
      serial_only(!cfg.fault_schedule.empty(), "fault_schedule");
      serial_only(cfg.record_trace, "record_trace");
      serial_only(cfg.workload.insert_proportion > 0, "insert_proportion > 0");
      const auto& lat = cfg.cluster.latency;
      HARMONY_CHECK_MSG(
          lat.same_rack.floor > 0 && lat.same_dc.floor > 0,
          "key-range sharding needs positive same_rack/same_dc latency "
          "floors: intra-DC hops cross shards and their floor bounds the "
          "conservative lookahead");
      sim.configure_shards(cfg.shards_per_dc,
                           std::min(lat.same_rack.floor, lat.same_dc.floor),
                           cfg.num_shard_threads);
    }
    return sim;
  }

  bool hosts_clients(std::size_t dc) const {
    return cfg_.workload.client_dc < 0 ||
           dc == static_cast<std::size_t>(cfg_.workload.client_dc);
  }

  void init_lanes() {
    const std::size_t n = sim_.shard_count();
    lane_ = std::vector<LaneState>(n);
    if (n == 1) {
      // One lane continues the serial stream: the constructor's op_rng_
      // fork, the whole budget, and the insert lane record_count + n.
      lane_[0].op_rng = std::move(op_rng_);
      lane_[0].request_dist = request_dist_->clone();
      lane_[0].ops_budget = cfg_.workload.op_count;
      return;
    }
    // Equal split of the op budget over the shards of the one DC; the
    // remainder goes to the lowest shard ids so totals match op_count
    // exactly.
    for (std::size_t s = 0; s < n; ++s) {
      LaneState& lane = lane_[s];
      lane.op_rng = sim_.fork_rng(0x0FAB5EED + 0x9E37 * (s + 1));
      // Clone the already-built distribution instead of rebuilding: build()
      // re-runs the O(record_count) zeta harmonic sums per lane, clone()
      // just copies the finished constants (identical state either way).
      lane.request_dist = request_dist_->clone();
      lane.ops_budget = cfg_.workload.op_count / n +
                        (s < cfg_.workload.op_count % n ? 1 : 0);
    }
  }

  /// One policy retuning tick. It reads the monitor and mutates the policy,
  /// both cross-shard singletons, so every tick instant is a registered
  /// fence: it runs merged-serial, after the window flush applied every
  /// per-shard monitor op dated before it, and the policy sees the same
  /// snapshot for every thread count. The timer stops once every lane's
  /// clients have drained their budget. That keys off client state, not
  /// sim_.idle(): the queue can hold other work (repairs, a pending
  /// anti-entropy sweep) past the last client op.
  void tick_policy() {
    bool running = false;
    for (const LaneState& s : lane_) running |= s.clients_finished < s.clients;
    if (!running) {
      policy_timer_.stop();
      return;
    }
    policy_->tick(monitor_.snapshot(sim_.now()));
    sim_.register_fence(sim_.now() + cfg_.policy_tick);
  }

  /// Warm-up boundary of one lane: runs on its shard and flips only that
  /// lane and the open-loop sources on the same shard.
  void begin_measurement(std::uint32_t shard) {
    LaneState& s = lane_[shard];
    s.measuring = true;
    s.ops_at_measure_start = s.ops_completed;
    for (auto& src : sources_) {
      if (src->shard() == shard) src->set_measuring(true);
    }
  }

  /// One OpenLoopSource per client-hosting DC in a one-shard run, or one
  /// per key-range shard of the single DC when sharded, in place of the
  /// closed-loop clients. Each gets an equal share of the aggregate arrival
  /// rate, its own RNG fork, a clone of the shared request distribution,
  /// and an interleaved insert-key lane (see workload/open_loop.h).
  void setup_open_loop() {
    const OpenLoopSpec& ol = cfg_.workload.open_loop;
    HARMONY_CHECK_MSG(cfg_.warmup < ol.duration,
                      "open-loop warmup must end before generation stops");
    const std::size_t dcs = cfg_.cluster.dc_count;
    std::size_t active = 0;
    for (std::size_t d = 0; d < dcs; ++d) {
      if (hosts_clients(d)) ++active;
    }
    HARMONY_CHECK(active > 0);
    // One shared zeta computation for the million-user population; every
    // source copies the finished constants instead of re-summing O(users).
    // When the request keys are zipfian at the users' theta over no more
    // records than users, their sum is the users' first terms: copy it and
    // grow to the user count instead of summing from 1 again.
    const auto* keys = dynamic_cast<const ZipfianKeys*>(request_dist_.get());
    ScrambledZipfianKeys users =
        keys != nullptr && keys->theta() == ol.user_zipf_theta &&
                keys->item_count() <= ol.user_count
            ? ScrambledZipfianKeys(*keys)
            : ScrambledZipfianKeys(ol.user_count, ol.user_zipf_theta);
    users.grow(ol.user_count);
    // Partition ids name each source's insert lane and RNG fork: the shard
    // when sharded, the DC in a one-shard run (where every source shares
    // shard 0).
    const std::uint32_t shards = sim_.shard_count();
    const std::size_t parts = shards > 1 ? shards : dcs;
    for (std::size_t part = 0; part < parts; ++part) {
      const std::size_t d = shards > 1 ? 0 : part;
      if (!hosts_clients(d)) continue;
      const auto shard = static_cast<std::uint32_t>(shards > 1 ? part : 0);
      sources_.push_back(std::make_unique<OpenLoopSource>(
          *this, static_cast<net::DcId>(d), cfg_.workload,
          ol.rate_per_s / static_cast<double>(active) /
              static_cast<double>(shards),
          /*insert_lane=*/part, /*insert_stride=*/parts,
          sim_.fork_rng(0x01E27007 + 0x9E37 * (part + 1)),
          request_dist_->clone(), users, static_cast<std::uint8_t>(shard)));
      ++lane_[shard].clients;
    }
    for (auto& s : sources_) {
      sim_.set_setup_shard(s->shard());
      s->start();
    }
    sim_.set_setup_shard(0);
  }

  RunResult collect() {
    RunResult& r = result_;
    // Merge the per-lane tallies; every shard is quiescent here (the run
    // loop joined its workers before returning).
    std::uint64_t measured_ops = 0;
    SimTime finish_time = 0;
    for (const LaneState& s : lane_) {
      r.reads += s.reads;
      r.writes += s.writes;
      r.errors += s.errors;
      r.stale_reads += s.stale_reads;
      r.fresh_reads += s.fresh_reads;
      r.read_latency.merge(s.read_latency);
      r.write_latency.merge(s.write_latency);
      r.staleness_age.merge(s.staleness_age);
      for (const auto& [k, n] : s.read_level_usage) {
        r.read_level_usage[k] += n;
      }
      measured_ops += s.ops_completed - s.ops_at_measure_start;
      finish_time = std::max(finish_time, s.finish_time);
    }
    if (sim_.shard_count() > 1) {
      // Per-read judgements are deferred past the client callback under
      // sharding (ReadResult::stale stays false); the oracle's whole-run
      // aggregates are exact.
      r.stale_reads = cluster_.oracle().stale_reads();
      r.fresh_reads = cluster_.oracle().fresh_reads();
      r.staleness_age = cluster_.oracle().staleness_age();
    }
    r.trace = std::move(trace_);
    r.label = cfg_.label;
    r.policy_name = policy_->name();
    r.ops = r.reads + r.writes;
    r.policy_switches = policy_->switches();

    const SimTime end = finish_time > 0 ? finish_time : sim_.now();
    r.total_sim_s = to_seconds(end);
    const SimTime measured_span = end - cfg_.warmup;
    r.duration_s = to_seconds(measured_span > 0 ? measured_span : end);
    r.throughput = r.duration_s > 0
                       ? static_cast<double>(measured_ops) / r.duration_s
                       : 0.0;

    const std::uint64_t judged = r.stale_reads + r.fresh_reads;
    r.stale_fraction = judged ? static_cast<double>(r.stale_reads) /
                                    static_cast<double>(judged)
                              : 0.0;

    double weighted = 0;
    std::uint64_t level_total = 0;
    for (const auto& [k, n] : r.read_level_usage) {
      weighted += static_cast<double>(k) * static_cast<double>(n);
      level_total += n;
    }
    r.avg_read_replicas =
        level_total ? weighted / static_cast<double>(level_total) : 0.0;

    // ---- whole-run resource usage and bill --------------------------------
    const double wall_h = to_hours(end);
    r.usage.node_hours = wall_h * static_cast<double>(cfg_.cluster.node_count);
    r.usage.storage_gb_hours =
        static_cast<double>(cluster_.storage_bytes()) / 1e9 * wall_h;
    r.usage.io_requests = static_cast<std::uint64_t>(cluster_.disk_io());
    r.usage.cross_dc_gb =
        static_cast<double>(cluster_.net_stats().cross_dc_bytes()) / 1e9;
    r.energy_kwh = kPowerModel.energy_kwh(
        cfg_.cluster.node_count, end > 0 ? end : 1, cluster_.total_busy_time(),
        static_cast<double>(cluster_.net_stats().total_bytes()));
    r.usage.energy_kwh = r.energy_kwh;
    r.bill = cost::BillCalculator(cfg_.price_book).compute(r.usage);

    r.final_state = monitor_.snapshot(end > 0 ? end : sim_.now());
    r.net = cluster_.net_stats();
    r.timeouts = cluster_.timeouts();
    r.unavailable = cluster_.unavailable();
    r.read_repairs = cluster_.read_repairs_sent();
    r.sim_events = sim_.events_processed();
    r.mailbox_spills = sim_.mailbox_spills();
    r.retries = cluster_.retries();
    r.hedges_fired = cluster_.hedges_fired();
    r.hedge_wins = cluster_.hedge_wins();
    r.sheds = cluster_.sheds();
    if (!sources_.empty()) {
      for (const auto& s : sources_) s->collect(r.open_loop);
      OpenLoopResult& ol = r.open_loop;
      ol.sla_attainment =
          ol.sla_total ? static_cast<double>(ol.sla_ok) /
                             static_cast<double>(ol.sla_total)
                       : 0.0;
      const double gen_s = to_seconds(cfg_.workload.open_loop.duration);
      ol.offered_rate =
          gen_s > 0 ? static_cast<double>(ol.arrivals) / gen_s : 0.0;
    }
    for (const auto& c : clients_) {
      r.client_shed_retries += c->shed_retries();
      r.rerouted_ops += c->rerouted_ops();
    }
    return r;
  }

  RunConfig cfg_;
  sim::Simulation sim_;
  cluster::Cluster cluster_;
  monitor::Monitor monitor_;
  Rng op_rng_;
  std::unique_ptr<KeyDistribution> request_dist_;
  std::unique_ptr<policy::ConsistencyPolicy> policy_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<std::unique_ptr<OpenLoopSource>> sources_;
  sim::PeriodicTimer policy_timer_;
  /// One workload lane per event shard (see LaneState).
  std::vector<LaneState> lane_;
  /// Issued ops in issue order (record_trace; null otherwise).
  std::shared_ptr<Trace> trace_;
  RunResult result_;
};

}  // namespace

RunResult run_experiment(const RunConfig& cfg) {
  HARMONY_CHECK_MSG(cfg.policy != nullptr, "RunConfig.policy is required");
  Runner runner(cfg);
  return runner.run();
}

std::string RunResult::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s[%s]: %.0f ops/s, read p50=%s, stale=%.1f%%, avg_k=%.2f, "
                "bill=$%.4f",
                label.c_str(), policy_name.c_str(), throughput,
                format_duration(read_latency.median()).c_str(),
                stale_fraction * 100.0, avg_read_replicas, bill.total());
  return buf;
}

}  // namespace harmony::workload
