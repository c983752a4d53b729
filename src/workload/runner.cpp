#include "workload/runner.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/logging.h"
#include "workload/client.h"

namespace harmony::workload {

namespace {

/// Owns every entity of one experiment and implements the client callbacks.
class Runner final : public ClientEnv {
 public:
  explicit Runner(const RunConfig& cfg)
      : cfg_(cfg),
        sim_(cfg.seed),
        cluster_(shard_configured(sim_, cfg), sized_cluster_config(cfg)),
        monitor_(cfg.monitor),
        op_rng_(sim_.fork_rng(0x0FAB5EED)),
        request_dist_(cfg.workload.request_dist.build(cfg.workload.record_count)),
        deferred_(sim_.shard_count() > 1) {
    cfg_.workload.validate();
    HARMONY_CHECK_MSG(
        cfg_.workload.client_dc <
            static_cast<int>(cfg_.cluster.dc_count),
        "client_dc out of range");
    if (deferred_) {
      // The remaining cross-shard restriction; RunConfig::num_shard_threads
      // documents the full list of sharded semantic deltas. Monitor, policy
      // ticks and trace capture are NOT restricted: they run off per-shard
      // logs replayed in (time, seq) order (barriers / fenced instants).
      HARMONY_CHECK_MSG(!cfg_.workload.reroute_on_dc_outage,
                        "DC re-routing sends requests to a foreign shard's "
                        "coordinator; not supported under shard_count > 1");
    }
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
    next_insert_key_ = cfg_.workload.record_count;
    if (deferred_) init_lanes();

    if (cfg_.workload.open_loop.enabled) {
      setup_open_loop();
    } else {
      // Clients, spread over every DC (or confined to one via client_dc).
      // Under key-range sharding each client is further homed on one shard
      // of its DC (round-robin over the DC's shard range), where its whole
      // closed loop — and every key it touches — lives.
      for (std::size_t d = 0; d < cfg_.cluster.dc_count; ++d) {
        if (cfg_.workload.client_dc >= 0 &&
            d != static_cast<std::size_t>(cfg_.workload.client_dc)) {
          continue;
        }
        const std::uint32_t splits =
            deferred_
                ? cluster_.shard_map().shards_in_dc(static_cast<net::DcId>(d))
                : 1;
        for (int i = 0; i < cfg_.workload.clients_per_dc; ++i) {
          const auto shard = static_cast<std::uint8_t>(
              deferred_ ? cluster_.shard_map().shard_base(
                              static_cast<net::DcId>(d)) +
                              static_cast<std::uint32_t>(i) % splits
                        : 0);
          clients_.push_back(std::make_unique<Client>(
              *this, static_cast<net::DcId>(d),
              cfg_.workload.target_rate_per_client,
              sim_.fork_rng(0xC11E017 + clients_.size()),
              cfg_.workload.reroute_on_dc_outage,
              cfg_.workload.shed_retry_limit, shard));
          if (deferred_) ++lane_[shard].clients;
        }
      }
      for (auto& c : clients_) {
        // Sharded: the start stagger (and every event it transitively books)
        // belongs to the client's shard.
        sim_.set_setup_shard(deferred_ ? c->shard() : 0);
        c->start();
      }
      sim_.set_setup_shard(0);
    }

    // Scheduled failure injection, typed lane: the legacy kill/revive list
    // first, then the full schedule (blackouts, degradation windows, ...).
    // Every fault instant is a fence, so sharded runs execute it
    // merged-serial.
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

    // Policy retuning tick. The tick reads the monitor and mutates the
    // policy, both cross-shard singletons — so sharded runs put each tick on
    // a fenced instant (merged-serial, after the barrier flush applied every
    // monitor op dated before it) and re-arm while events remain. Unsharded
    // runs keep the closure-lane periodic timer.
    if (!deferred_) {
      policy_timer_.start(sim_, cfg_.policy_tick, [this] {
        policy_->tick(monitor_.snapshot(sim_.now()));
      });
    } else if (cfg_.policy_tick > 0) {
      arm_policy_tick(cfg_.policy_tick);
    }

    // Warm-up boundary: reset measurements, keep billing clocks running.
    // Sharded: one boundary event per shard, each flipping only that DC's
    // measuring state — the flip lands at the same (time, seq) point of the
    // merge for every thread count.
    if (deferred_) {
      measure_start_ = cfg_.warmup;
      for (std::size_t d = 0; d < lane_.size(); ++d) {
        if (cfg_.warmup > 0) {
          sim_.set_setup_shard(static_cast<std::uint32_t>(d));
          sim_.schedule(cfg_.warmup, [this, d] {
            LaneState& s = lane_[d];
            s.measuring = true;
            s.ops_at_measure_start = s.ops_completed;
            if (d < src_by_lane_.size() && src_by_lane_[d] != nullptr) {
              src_by_lane_[d]->set_measuring(true);
            }
          });
        } else {
          lane_[d].measuring = true;
          if (d < src_by_lane_.size() && src_by_lane_[d] != nullptr) {
            src_by_lane_[d]->set_measuring(true);
          }
        }
      }
      sim_.set_setup_shard(0);
    } else if (cfg_.warmup > 0) {
      sim_.schedule(cfg_.warmup, [this] { begin_measurement(); });
    } else {
      begin_measurement();
    }

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

  bool next_op(Op& op) override {
    if (deferred_) return next_op_sharded(op);
    if (ops_issued_ >= cfg_.workload.op_count) return false;
    ++ops_issued_;
    const WorkloadSpec& w = cfg_.workload;
    const double weights[4] = {w.read_proportion, w.update_proportion,
                               w.insert_proportion, w.rmw_proportion};
    switch (op_rng_.weighted_index(weights, 4)) {
      case 0: op.type = OpType::kRead; break;
      case 1: op.type = OpType::kUpdate; break;
      case 2: op.type = OpType::kInsert; break;
      default: op.type = OpType::kReadModifyWrite; break;
    }
    if (op.type == OpType::kInsert) {
      op.key = next_insert_key_++;
      request_dist_->grow(next_insert_key_);
    } else {
      op.key = request_dist_->next(op_rng_);
    }
    op.value_size = w.value_size;
    if (cfg_.record_trace) {
      if (result_.trace == nullptr) result_.trace = std::make_shared<Trace>();
      result_.trace->records.push_back(
          TraceRecord{sim_.now(), op.type, op.key, op.value_size});
    }
    return true;
  }

  /// Sharded op stream: each shard lane owns an equal slice of the op
  /// budget, its own RNG fork and key distribution, and an interleaved
  /// insert-key lane (record_count + shard + n*shard_count) so shards never
  /// contend for a key counter. Under key-range sharding (S_d > 1) the lane
  /// additionally keeps only keys its shard owns: distribution draws are
  /// rejection-sampled against Cluster::home_shard and the insert lane is
  /// skip-scanned (unowned lane keys are simply never inserted — lanes are
  /// disjoint, so uniqueness holds). At S_d == 1 the filter is off and RNG
  /// consumption is identical to the per-DC scheme. Runs on the calling
  /// client's shard thread; touches only that shard's LaneState.
  bool next_op_sharded(Op& op) {
    const std::uint32_t shard = sim_.current_shard();
    LaneState& s = lane_[shard];
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
      for (int probe = 0;; ++probe) {
        HARMONY_CHECK_MSG(probe < 4096,
                          "insert-lane skip-scan found no owned key");
        op.key = w.record_count + shard + s.next_insert_seq * lane_.size();
        ++s.next_insert_seq;
        if (!s.key_filter || cluster_.home_shard(s.dc, op.key) == shard) break;
      }
      s.request_dist->grow(op.key + 1);
    } else {
      int tries = 0;
      do {
        HARMONY_CHECK_MSG(++tries < 65536,
                          "key ownership rejection sampling did not converge "
                          "(degenerate key distribution vs shard ranges)");
        op.key = s.request_dist->next(s.op_rng);
      } while (s.key_filter && cluster_.home_shard(s.dc, op.key) != shard);
    }
    op.value_size = w.value_size;
    if (cfg_.record_trace) {
      // Per-shard (time, seq)-stamped buffer; collect() stitches the lanes
      // into the global serial issue order.
      s.trace.push_back(StampedTrace{
          sim_.current_seq(),
          TraceRecord{sim_.now(), op.type, op.key, op.value_size}});
    }
    return true;
  }

  const policy::ConsistencyPolicy& policy() const override { return *policy_; }
  cluster::Cluster& cluster() override { return cluster_; }
  monitor::Monitor& monitor() override { return monitor_; }
  sim::Simulation& simulation() override { return sim_; }

  void on_read_complete(const cluster::ReadResult& r, SimDuration latency,
                        int replicas_requested) override {
    if (deferred_) {
      LaneState& s = lane_[sim_.current_shard()];
      ++s.ops_completed;
      if (s.measuring) {
        ++s.reads;
        if (!r.ok) {
          ++s.errors;
        } else {
          s.read_latency.record(latency);
          ++s.read_level_usage[replicas_requested];
          // r.stale is never populated under shard_count > 1 (the deferred
          // oracle judges at window barriers); collect() reads the oracle's
          // whole-run aggregates instead.
        }
      }
      return;
    }
    ++ops_completed_;
    if (measuring_) {
      ++result_.reads;
      if (!r.ok) {
        ++result_.errors;
      } else {
        result_.read_latency.record(latency);
        ++result_.read_level_usage[replicas_requested];
        if (r.stale) {
          ++result_.stale_reads;
          result_.staleness_age.record(r.staleness_age);
        } else {
          ++result_.fresh_reads;
        }
      }
    }
    note_progress();
  }

  void on_write_complete(const cluster::WriteResult& w,
                         SimDuration latency) override {
    if (deferred_) {
      LaneState& s = lane_[sim_.current_shard()];
      ++s.ops_completed;
      if (s.measuring) {
        ++s.writes;
        if (!w.ok) {
          ++s.errors;
        } else {
          s.write_latency.record(latency);
        }
      }
      return;
    }
    ++ops_completed_;
    if (measuring_) {
      ++result_.writes;
      if (!w.ok) {
        ++result_.errors;
      } else {
        result_.write_latency.record(latency);
      }
    }
    note_progress();
  }

  void on_client_finished() override {
    if (deferred_) {
      LaneState& s = lane_[sim_.current_shard()];
      ++s.clients_finished;
      if (s.clients_finished == s.clients) s.finish_time = sim_.now();
      return;
    }
    ++clients_finished_;
    if (clients_finished_ == clients_.size() + sources_.size()) {
      // Budget drained: stop the retuning timer so the queue can empty.
      policy_timer_.stop();
      finish_time_ = sim_.now();
    }
  }

  /// Fenced policy tick (sharded runs; see EventKind::kPolicyTick). Runs
  /// merged-serial at a fence instant, after the window flush applied every
  /// per-shard monitor op dated before it — so the snapshot the policy sees
  /// is identical for every thread count. Stops when every lane's clients
  /// have drained their budget, mirroring the unsharded PeriodicTimer stop:
  /// the already-armed tick acts cancelled (no tick, no re-arm). The stop
  /// must key off client state, not sim_.idle() — another self-re-arming
  /// fence source (anti-entropy) would keep the queue non-idle forever and
  /// the two would hold each other live.
  void on_policy_tick() override {
    bool running = false;
    for (const LaneState& s : lane_) running |= s.clients_finished < s.clients;
    if (!running) return;
    policy_->tick(monitor_.snapshot(sim_.now()));
    arm_policy_tick(sim_.now() + cfg_.policy_tick);
  }

 private:
  /// One issued-op trace record plus the event seq that stamps its position
  /// in the global (time, seq) order (sharded record_trace).
  struct StampedTrace {
    std::uint64_t seq = 0;
    TraceRecord rec{};
  };

  /// Per-shard workload state for sharded runs ("lane"): everything a client
  /// callback mutates lives here, indexed by the executing shard, so workers
  /// never share a cache line let alone a counter. Under the legacy per-DC
  /// plan lane i is exactly DC i; under key-range sharding each DC owns a
  /// contiguous lane range. Padded to a line for the adjacent-element case.
  struct alignas(64) LaneState {
    Rng op_rng;
    std::unique_ptr<KeyDistribution> request_dist;
    /// Owning DC of this shard lane.
    net::DcId dc = 0;
    /// True when the owning DC splits past one shard: next_op_sharded then
    /// keeps only keys this shard owns.
    bool key_filter = false;
    /// record_trace: this shard's issued ops, stamped for the collect-time
    /// stitch.
    std::vector<StampedTrace> trace;
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
    LatencyHistogram read_latency;
    LatencyHistogram write_latency;
    std::map<int, std::uint64_t> read_level_usage;
  };

  /// Runs in the constructor's member-init list: shards must be configured
  /// after the Simulation exists but before the Cluster (or anything else)
  /// schedules its first event.
  /// Sharded slot pools never grow mid-window, so their reserve must cover
  /// the worst-case in-flight population. The open-loop engine states that
  /// bound explicitly (max_in_flight_per_dc, one coordinator slot per op,
  /// doubled for hedge/repair legs); closed-loop runs keep the default.
  static cluster::ClusterConfig sized_cluster_config(const RunConfig& cfg) {
    cluster::ClusterConfig c = cfg.cluster;
    if (cfg.num_shard_threads > 0 && cfg.workload.open_loop.enabled) {
      const std::uint64_t want =
          2ull * cfg.workload.open_loop.max_in_flight_per_dc;
      if (want > c.sharded_slot_reserve) {
        c.sharded_slot_reserve = static_cast<std::uint32_t>(want);
      }
    }
    return c;
  }

  static sim::Simulation& shard_configured(sim::Simulation& sim,
                                           const RunConfig& cfg) {
    if (cfg.num_shard_threads > 0) {
      const auto& lat = cfg.cluster.latency;
      SimDuration lookahead = lat.cross_dc.floor;
      HARMONY_CHECK_MSG(lookahead > 0,
                        "sharded runs derive their conservative lookahead "
                        "from cluster.latency.cross_dc.floor; set it > 0");
      const std::uint32_t splits = std::max(1u, cfg.shards_per_dc);
      if (splits > 1) {
        // Splitting a DC makes write fan-out legs intra-DC cross-shard
        // events, so the lookahead must also respect the intra-DC floors
        // (loopback never crosses shards: src == dst node => same shard).
        HARMONY_CHECK_MSG(
            lat.same_rack.floor > 0 && lat.same_dc.floor > 0,
            "key-range sharding (shards_per_dc > 1) needs positive "
            "same_rack/same_dc latency floors: intra-DC hops cross shards "
            "and their floor bounds the conservative lookahead");
        lookahead = std::min(
            lookahead, std::min(lat.same_rack.floor, lat.same_dc.floor));
      }
      sim.configure_shards(
          std::vector<std::uint32_t>(cfg.cluster.dc_count, splits), lookahead,
          cfg.num_shard_threads);
    }
    return sim;
  }

  bool hosts_clients(std::size_t dc) const {
    return cfg_.workload.client_dc < 0 ||
           dc == static_cast<std::size_t>(cfg_.workload.client_dc);
  }

  void init_lanes() {
    const cluster::ShardMap& map = cluster_.shard_map();
    const std::size_t n = sim_.shard_count();
    lane_ = std::vector<LaneState>(n);
    // Equal split of the op budget over the shards of client-hosting DCs;
    // the remainder goes to the lowest shard ids so totals match op_count
    // exactly. (Per-DC plan: one lane per DC, the legacy split.)
    std::uint64_t active = 0;
    for (std::size_t s = 0; s < n; ++s) {
      if (hosts_clients(map.dc_of_shard(static_cast<std::uint32_t>(s)))) {
        ++active;
      }
    }
    std::uint64_t handed = 0;
    for (std::size_t s = 0; s < n; ++s) {
      LaneState& lane = lane_[s];
      lane.dc = map.dc_of_shard(static_cast<std::uint32_t>(s));
      lane.key_filter = map.shards_in_dc(lane.dc) > 1;
      lane.op_rng = sim_.fork_rng(0x0FAB5EED + 0x9E37 * (s + 1));
      // Clone the already-built distribution instead of rebuilding: build()
      // re-runs the O(record_count) zeta harmonic sums per lane, clone()
      // just copies the finished constants (identical state either way).
      lane.request_dist = request_dist_->clone();
      if (hosts_clients(lane.dc)) {
        lane.ops_budget = cfg_.workload.op_count / active +
                          (handed < cfg_.workload.op_count % active ? 1 : 0);
        ++handed;
      }
    }
  }

  /// Register the fence and schedule the typed tick event for the next
  /// policy retuning instant (sharded runs; always called from setup or from
  /// inside a fenced instant, never mid-window).
  void arm_policy_tick(SimTime at) {
    sim_.register_fence(at);
    sim::TypedEvent ev;
    ev.kind = sim::EventKind::kPolicyTick;
    ev.target = static_cast<ClientEnv*>(this);
    sim_.schedule_event_at(at, ev);
  }

  void begin_measurement() {
    measuring_ = true;
    measure_start_ = sim_.now();
    ops_at_measure_start_ = ops_completed_;
    for (auto& s : sources_) s->set_measuring(true);
  }

  /// One OpenLoopSource per shard of each client-hosting DC (one per DC
  /// under the legacy per-DC plan) in place of the closed-loop clients; each
  /// gets an equal share of the aggregate arrival rate (DC share split over
  /// the DC's shards), its own RNG fork, a clone of the shared request
  /// distribution, and an interleaved insert-key lane (see
  /// workload/open_loop.h).
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
    const ScrambledZipfianKeys users(ol.user_count, ol.user_zipf_theta);
    const std::size_t lanes = deferred_ ? sim_.shard_count() : dcs;
    src_by_lane_.assign(lanes, nullptr);
    for (std::size_t d = 0; d < dcs; ++d) {
      if (!hosts_clients(d)) continue;
      const std::uint32_t splits =
          deferred_
              ? cluster_.shard_map().shards_in_dc(static_cast<net::DcId>(d))
              : 1;
      for (std::uint32_t k = 0; k < splits; ++k) {
        const std::size_t lane =
            deferred_ ? cluster_.shard_map().shard_base(
                            static_cast<net::DcId>(d)) + k
                      : d;
        sources_.push_back(std::make_unique<OpenLoopSource>(
            *this, static_cast<net::DcId>(d), cfg_.workload,
            ol.rate_per_s / static_cast<double>(active) /
                static_cast<double>(splits),
            /*insert_lane=*/lane, /*insert_stride=*/lanes,
            sim_.fork_rng(0x01E27007 + 0x9E37 * (lane + 1)),
            request_dist_->clone(), users,
            static_cast<std::uint8_t>(deferred_ ? lane : 0)));
        src_by_lane_[lane] = sources_.back().get();
        if (deferred_) ++lane_[lane].clients;
      }
    }
    for (auto& s : sources_) {
      sim_.set_setup_shard(deferred_ ? s->shard() : 0);
      s->start();
    }
    sim_.set_setup_shard(0);
  }

  void note_progress() {
    // RMW issues two cluster ops but counts as one workload op; completion
    // tracking is per cluster-op, which is what the drain condition needs.
  }

  RunResult collect() {
    RunResult& r = result_;
    std::uint64_t completed = ops_completed_;
    std::uint64_t at_measure_start = ops_at_measure_start_;
    if (deferred_) {
      // Merge the per-shard lane tallies; every shard is quiescent here (the
      // run loop joined its workers before returning).
      completed = at_measure_start = 0;
      for (LaneState& s : lane_) {
        r.reads += s.reads;
        r.writes += s.writes;
        r.errors += s.errors;
        r.read_latency.merge(s.read_latency);
        r.write_latency.merge(s.write_latency);
        for (const auto& [k, n] : s.read_level_usage) {
          r.read_level_usage[k] += n;
        }
        completed += s.ops_completed;
        at_measure_start += s.ops_at_measure_start;
        if (s.finish_time > finish_time_) finish_time_ = s.finish_time;
      }
      if (cfg_.record_trace) {
        // Stitch the per-shard trace buffers into the global serial issue
        // order: each lane is already (time, seq)-sorted by construction, so
        // one sort of the concatenation reproduces the merged stream
        // byte-for-byte for every thread count.
        if (r.trace == nullptr) r.trace = std::make_shared<Trace>();
        std::vector<StampedTrace> all;
        for (LaneState& s : lane_) {
          all.insert(all.end(), s.trace.begin(), s.trace.end());
        }
        std::sort(all.begin(), all.end(),
                  [](const StampedTrace& a, const StampedTrace& b) {
                    return a.rec.time != b.rec.time ? a.rec.time < b.rec.time
                                                    : a.seq < b.seq;
                  });
        r.trace->records.reserve(r.trace->records.size() + all.size());
        for (const StampedTrace& t : all) r.trace->records.push_back(t.rec);
      }
      // Per-read judgements are deferred past the client callback under
      // sharding; the oracle's whole-run aggregates are exact.
      r.stale_reads = cluster_.oracle().stale_reads();
      r.fresh_reads = cluster_.oracle().fresh_reads();
      r.staleness_age.merge(cluster_.oracle().staleness_age());
    }
    r.label = cfg_.label;
    r.policy_name = policy_->name();
    r.ops = r.reads + r.writes;
    r.policy_switches = policy_->switches();

    const SimTime end = finish_time_ > 0 ? finish_time_ : sim_.now();
    r.total_wall_s = to_seconds(end);
    const SimTime measured_span = end - measure_start_;
    r.duration_s = to_seconds(measured_span > 0 ? measured_span : end);
    const std::uint64_t measured_ops = completed - at_measure_start;
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
    r.usage.egress_gb = 0.0;  // clients are in-region
    r.energy_kwh = cfg_.power.energy_kwh(
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
  /// lane (shard id when sharded, DC otherwise) -> its open-loop source
  /// (nullptr for non-hosting lanes / closed loop); the sharded warmup flip
  /// uses it to reach the shard's source.
  std::vector<OpenLoopSource*> src_by_lane_;
  sim::PeriodicTimer policy_timer_;
  /// True when the simulation runs event shards (shard_count > 1): client
  /// callbacks then use lane_ instead of the serial members below.
  bool deferred_ = false;
  std::vector<LaneState> lane_;

  std::uint64_t ops_issued_ = 0;
  std::uint64_t ops_completed_ = 0;
  std::uint64_t next_insert_key_ = 0;
  std::size_t clients_finished_ = 0;
  bool measuring_ = false;
  SimTime measure_start_ = 0;
  std::uint64_t ops_at_measure_start_ = 0;
  SimTime finish_time_ = 0;
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
