// The replicated key-value store: a Cassandra-style cluster simulated on the
// discrete-event kernel.
//
// Faithful mechanisms (the ones the paper's results depend on):
//   * coordinator-per-request: clients contact a node in their own DC, which
//     fans out to replicas chosen by the token ring;
//   * writes always go to ALL replicas; the consistency level only decides how
//     many acks the client waits for — the remainder propagate asynchronously,
//     opening the stale-read window of Fig. 1;
//   * reads contact exactly `required` replicas (one data read + digests) and
//     return the newest version among responses (timestamp LWW);
//   * read repair (contacted-set always; whole-replica-set with a configured
//     chance), hinted handoff for writes to down nodes, request timeouts;
//   * node service queues, so load inflates propagation delay and staleness.
//
// Resilience layer (all knobs default off; the off path is byte-identical to
// the pre-resilience cluster):
//   * hedged reads — after a quantile-derived hedge delay the coordinator
//     issues one backup data read to the next snitch-ranked untried replica
//     and the first `needed` responses win (Cassandra's rapid read
//     protection / Envoy's request hedging). Late legs are suppressed by the
//     existing slot-pool generation checks.
//   * coordinator read retry — an attempt timeout retries against replicas
//     excluding every previously-tried host, ranked same-rack -> same-DC ->
//     cross-DC (Envoy's retry host-reselection predicate plus a snitch-class
//     preference), with exponential backoff on the cancellable closure lane.
//     Writes never retry: a write already fans out to ALL replicas, so the
//     untried-host set is empty by construction — hinted handoff and read
//     repair are the write path's resilience mechanisms.
//   * per-DC token-bucket admission control — requests are shed (with
//     retry-after) or delayed at the coordinator before any replica work.
//   * scripted fault injection — FaultSpec actions (node kill/revive,
//     whole-DC blackout, per-node / WAN latency degradation windows) ride
//     the typed event lane, so every fault scenario is seed-reproducible.
//
// Sharded execution (docs/INVARIANTS.md "Cross-shard determinism"): when the
// owning Simulation is partitioned into event shards — one per DC, or a
// DC -> shard-count plan splitting DC d into S_d key-range shards over
// TokenRing token ranges (see cluster/shard_map.h) — the cluster routes
// every typed event to the shard owning the state its handler touches and
// keeps ALL mutable request-path state per shard (ShardState below): RNG
// stream, pending-request pools, hint store, net/latency stats, counters,
// anti-entropy dirty set (placement is one immutable table every shard
// reads). An operation on key k from DC d executes on
// ShardMap::home_shard(d, k); replicas of one key may live on
// *other* shards of the same DC, so write fan-out legs can be intra-DC
// cross-shard events — the configured lookahead must therefore be a floor on
// every link class that can cross shards (the intra-DC floors too once any
// S_d > 1, not just cross-DC; the ctor checks this). Cross-shard interaction
// happens only through scheduled events with at least that delay, plus the
// carefully-fenced exceptions:
//   * write legs executing on a replica's shard read the *pinned* fields of
//     the home shard's pending record (key/value/coord/start — written before
//     fan-out, immutable until every leg completed; pools are pre-grown so
//     the slab never moves under a reader);
//   * the ground-truth staleness oracle is global, so sharded runs append
//     per-shard op logs. Each window barrier seals them, and the replay,
//     overlapped with the next window, merges the sealed logs by (time,
//     seq) — exactly the serial call order. ReadResult.stale is not
//     populated under shard_count > 1 (the judgement may not have been
//     applied yet when the client callback fires); aggregate oracle
//     counters remain exact;
//   * observer/monitor callbacks defer the same way: every hook appends to
//     the executing shard's monitor log (one log for all six callback kinds
//     — the monitor couples them through one last-event timestamp), and the
//     replay feeds the merged stream to the attached ClusterObserver in
//     exact serial order, so set_observer is legal under sharding. The
//     executor joins the replay before every fence instant and before a run
//     returns; only fenced handlers and post-run readers look at the oracle
//     and the observer (docs/INVARIANTS.md lists them);
//   * anti-entropy keeps one dirty-key set per shard and runs its sweeps
//     merged-serial at fenced instants every anti_entropy_period.
// Remaining restrictions under shard_count > 1, each enforced by a contract
// check: coordinators stay in the client's DC (no cross-DC failover
// re-routing, no DC blackout faults), degrade factors >= 1.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cluster/consistency.h"
#include "cluster/hinted_handoff.h"
#include "cluster/node.h"
#include "cluster/shard_map.h"
#include "cluster/staleness_oracle.h"
#include "cluster/token_ring.h"
#include "cluster/versioned_value.h"
#include "common/histogram.h"
#include "common/inline_fn.h"
#include "common/slot_pool.h"
#include "net/latency_model.h"
#include "net/net_stats.h"
#include "net/topology.h"
#include "sim/simulation.h"

namespace harmony::cluster {

/// Per-replica write propagation delays, inline like the replica list itself.
using DelayList = SmallVec<SimDuration, kMaxReplicas>;

/// Hooks the monitoring module attaches to. Callbacks run inside the
/// simulation loop; implementations must be cheap and must not re-enter the
/// cluster API.
class ClusterObserver {
 public:
  virtual ~ClusterObserver() = default;
  /// Every live replica has applied this write. `replica_delays` holds, per
  /// replica (unsorted), apply_time - write_start. Harmony's estimator reads
  /// its T / t_j inputs from these.
  virtual void on_write_propagated(Key key, SimTime write_start,
                                   const DelayList& replica_delays) {
    (void)key; (void)write_start; (void)replica_delays;
  }
  /// A replica answered a coordinator-issued read (data or digest).
  virtual void on_replica_read_rtt(net::NodeId replica, SimDuration rtt,
                                   bool cross_dc) {
    (void)replica; (void)rtt; (void)cross_dc;
  }

  // Client-side measurement hooks (monitor/monitor.h implements them). The
  // workload layer always enters through Cluster::record_*: one-shard runs
  // forward here at once, sharded runs join the per-shard monitor log and
  // replay here — interleaved with the replica-side hooks above in exact
  // (time, seq) order — at window barriers.
  virtual void record_read_issued(SimTime now, Key key) {
    (void)now; (void)key;
  }
  virtual void record_write_issued(SimTime now, Key key,
                                   std::uint32_t value_size) {
    (void)now; (void)key; (void)value_size;
  }
  virtual void record_read_complete(SimTime now, SimDuration latency) {
    (void)now; (void)latency;
  }
  virtual void record_write_complete(SimTime now, SimDuration latency) {
    (void)now; (void)latency;
  }
};

/// Scripted fault actions. Node-scoped ops name a node, DC-scoped ops a DC;
/// degradation ops carry a latency multiplier (restore resets it to 1).
enum class FaultOp : std::uint8_t {
  kKillNode,     ///< node stops serving (same as kill_node())
  kReviveNode,   ///< node comes back and replays hints
  kDcBlackout,   ///< every node in the DC dies at once
  kDcRestore,    ///< every node in the DC revives
  kDegradeNode,  ///< all links touching the node get `factor`x latency
  kRestoreNode,  ///< node link latency back to 1x
  kDegradeWan,   ///< all cross-DC links get `factor`x latency
  kRestoreWan,   ///< WAN latency back to 1x
};

/// One deterministic fault-schedule entry. Rides the typed event lane
/// (sim::EventKind::kFault), so fault timing interleaves with request traffic
/// in exact (time, seq) order and every scenario is seed-reproducible. Under
/// sharded execution every fault instant is a fence: the executor runs it
/// merged-serial, so the cross-shard state mutation is safe and ordered.
struct FaultSpec {
  SimTime at = 0;
  FaultOp op = FaultOp::kKillNode;
  net::NodeId node = 0;  ///< target for node-scoped ops
  net::DcId dc = 0;      ///< target for DC-scoped ops
  double factor = 1.0;   ///< latency multiplier for degrade ops
};

enum class AdmissionMode : std::uint8_t {
  kShed,   ///< over-rate requests are rejected with retry-after
  kDelay,  ///< over-rate requests queue (bounded), then shed past the cap
};

/// Coordinator-side resilience knobs. Everything defaults OFF, and the off
/// path is byte-identical to the pre-resilience cluster (same RNG draw
/// sequence, same event schedule).
struct ResilienceConfig {
  /// Hedged (speculative) reads: after the hedge delay, send one backup data
  /// read to the next snitch-ranked untried alive replica. Read-only by
  /// design — writes already fan out to every replica.
  bool hedge_reads = false;
  /// Hedge delay = this quantile of observed replica read RTTs (in [0,1]),
  /// floored at hedge_min_delay; hedge_fallback_delay is used until enough
  /// RTT samples accumulate (32).
  double hedge_quantile = 0.95;
  SimDuration hedge_min_delay = msec(1);
  SimDuration hedge_fallback_delay = msec(5);

  /// Read retries on attempt timeout, against replicas excluding every
  /// previously-tried host (Envoy host reselection). 0 = off.
  int read_retries = 0;
  /// Backoff before retry attempt k is 2^(k-1) * retry_backoff.
  SimDuration retry_backoff = msec(5);

  /// Per-DC token-bucket admission control at the coordinator, in requests
  /// per second. 0 = off.
  double admission_rate = 0;
  double admission_burst = 100;  ///< bucket depth, requests
  AdmissionMode admission_mode = AdmissionMode::kShed;
  /// kDelay mode: longest a request may wait for a token before shedding.
  SimDuration admission_max_delay = msec(50);
};

/// Wire sizes the request path bills, in bytes. Every client request and
/// response, replica request, ack and repair carries kMessageOverheadBytes of
/// headers; a digest read's response carries kDigestBytes instead of the
/// value. Bismar's analytic cross-DC estimate reads the same pair.
inline constexpr std::uint32_t kMessageOverheadBytes = 64;
inline constexpr std::uint32_t kDigestBytes = 16;

/// Replica placement is NetworkTopologyStrategy: rf is split across DCs
/// (rf_per_dc(), first DCs take the remainder) and each DC's share is walked
/// clockwise on its own vnodes.
struct ClusterConfig {
  std::size_t node_count = 10;
  std::size_t dc_count = 2;
  int rf = 3;
  int vnodes_per_node = 8;
  net::TieredLatencyModel::Params latency{};
  NodeParams node{};
  /// Chance that a read additionally repairs replicas it did not contact
  /// (Cassandra's global read repair). Contacted stale replicas are always
  /// repaired.
  double read_repair_chance = 0.05;
  SimDuration request_timeout = sec(2);
  /// true: snitch orders read replicas nearest-first (Cassandra default);
  /// false: uniform shuffle (spreads load, worsens staleness).
  bool closest_first_snitch = true;

  /// Anti-entropy: every period, repair the keys written since the last
  /// sweep (digest reads on every replica, then LWW repair of stale ones).
  /// 0 disables (read repair + hints remain the only convergence paths).
  /// Sharded runs keep one dirty set per shard and run the sweep
  /// merged-serial at fenced instants every period (the sweep walks every
  /// replica), re-armed while the simulation still has pending events.
  SimDuration anti_entropy_period = 0;
  /// Cap on keys repaired per sweep (bounds repair burst size).
  std::size_t anti_entropy_keys_per_round = 512;

  /// Sharded execution: per-shard pending-request pools are pre-grown to
  /// this many slots at construction, so remote shards reading pinned write
  /// records never race pool growth (the slab never moves). Exhausting the
  /// reserve is a loud contract failure — raise it for extreme in-flight
  /// request counts.
  std::uint32_t sharded_slot_reserve = 4096;

  /// Hedging / retry / admission knobs (all off by default).
  ResilienceConfig resilience{};

  /// rf split per DC (first DCs take the remainder).
  std::vector<int> rf_per_dc() const;
  /// Replication factor inside `dc`: its entry of rf_per_dc().
  int local_rf(net::DcId dc) const;
};

struct ReadResult {
  bool ok = false;       ///< required responses arrived in time
  bool found = false;    ///< any contacted replica had the key
  bool shed = false;     ///< rejected by admission control (ok is false)
  Version version = kNoVersion;
  std::uint32_t value_size = 0;
  int replicas_contacted = 0;
  /// Oracle ground truth. Only populated when shard_count == 1: a sharded
  /// run applies the merged oracle log at window barriers, which may be
  /// after this result was delivered. Aggregate counters stay exact.
  bool stale = false;
  SimDuration staleness_age = 0; ///< oracle ground truth (0 when fresh)
  SimDuration retry_after = 0;   ///< when shed: earliest useful re-issue delay
};

struct WriteResult {
  bool ok = false;
  bool shed = false;  ///< rejected by admission control (ok is false)
  Version version = kNoVersion;
  SimDuration retry_after = 0;  ///< when shed: earliest useful re-issue delay
};

/// Completion callbacks are move-only inline callables: the capture bytes
/// live in the pending-request record, so delivering a result performs no
/// heap traffic (std::function was the request path's last steady-state
/// allocation). 80 bytes covers the workload clients' captures with room for
/// bench/test lambdas.
using ReadCallback = InlineCallable<80, const ReadResult&>;
using WriteCallback = InlineCallable<80, const WriteResult&>;

class Cluster {
 public:
  Cluster(sim::Simulation& sim, ClusterConfig cfg);
  ~Cluster();

  // Non-copyable: owns simulation entities.
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Instantly install keys [0, count) of `size` bytes on their replicas
  /// (dataset load; bypasses messaging and the oracle). Key k reads as
  /// version {0, seq0 + k * S} with S = shard_count() and seq0 the stamp
  /// the next write issued here would get; the store holds it as a bitmap
  /// base until a write reaches it (ReplicaStore). Contract: call at most
  /// once, before any traffic — a CheckError if any store already holds a
  /// key (a second preload, or one after a completed write).
  void preload_range(std::uint64_t count, std::uint32_t size);

  /// Sentinel origin: the client is homed in the DC it contacts.
  static constexpr net::DcId kSameOrigin = 0xFFFF;

  /// Issue a client read against a coordinator in `client_dc`. The callback
  /// fires when the response reaches the client (or the request times out).
  /// `origin_dc` is where the client physically lives: when it differs from
  /// `client_dc` (DC-failover re-routing) the client link is a cross-DC hop.
  void client_read(net::DcId client_dc, Key key, ReplicaRequirement req,
                   ReadCallback cb, net::DcId origin_dc = kSameOrigin);

  /// Issue a client write (value of `size` bytes) against `client_dc`.
  void client_write(net::DcId client_dc, Key key, std::uint32_t size,
                    ReplicaRequirement req, WriteCallback cb,
                    net::DcId origin_dc = kSameOrigin);

  // ---- failure injection -------------------------------------------------
  void kill_node(net::NodeId id);
  void revive_node(net::NodeId id);
  void kill_dc(net::DcId dc);
  void revive_dc(net::DcId dc);
  std::size_t alive_count() const;
  /// True while at least one node in `dc` is alive (client re-routing poll).
  bool dc_alive(net::DcId dc) const { return alive_per_dc_[dc] > 0; }

  /// Schedule one scripted fault action on the typed event lane. Under
  /// sharded execution the instant is registered as a fence (the action
  /// mutates cross-shard state), so call before the run starts.
  void schedule_fault(const FaultSpec& f);

  // ---- introspection -----------------------------------------------------
  const net::Topology& topology() const { return topo_; }
  const ClusterConfig& config() const { return cfg_; }
  const TokenRing& ring() const { return ring_; }
  StalenessOracle& oracle() { return oracle_; }
  const StalenessOracle& oracle() const { return oracle_; }
  /// Network traffic summed over all shards. A single shard's stats are
  /// returned directly; multi-shard runs merge into a cached copy memoized
  /// on the window-barrier epoch — per-shard stats only change inside a
  /// window, and callers read at fence instants or after the run, so the
  /// merge runs once per barrier at most instead of once per call. Epoch 0
  /// (before the first barrier, i.e. during setup) always re-merges. The
  /// reference is valid until the next call.
  const net::NetStats& net_stats() const {
    if (shards_.size() == 1) return shards_[0]->net_stats;
    if (barrier_epoch_ == 0 || net_stats_epoch_ != barrier_epoch_) {
      net_stats_merged_.reset();
      for (const auto& s : shards_) net_stats_merged_.merge(s->net_stats);
      net_stats_epoch_ = barrier_epoch_;
    }
    return net_stats_merged_;
  }
  /// Shard 0's hint store (the only one when unsharded). Sharded runs keep
  /// one sender-side store per shard; use the summed accessors below.
  const HintStore& hints() const { return shards_[0]->hints; }
  std::uint64_t hints_stored() const {
    std::uint64_t n = 0;
    for (const auto& s : shards_) n += s->hints.stored();
    return n;
  }
  std::uint64_t hints_replayed() const {
    std::uint64_t n = 0;
    for (const auto& s : shards_) n += s->hints.replayed();
    return n;
  }
  std::size_t hints_pending_total() const {
    std::size_t n = 0;
    for (const auto& s : shards_) n += s->hints.pending_total();
    return n;
  }
  Node& node(net::NodeId id);

  /// Replica set for `key` (placement order): its arc's entry in the
  /// placement table. Placement is a pure function of the key's arc, the
  /// ring and rf — all fixed at construction, liveness is not an input — so
  /// the table is built once and read by every shard. The reference is valid
  /// for the cluster's lifetime.
  const ReplicaList& replicas_for(Key key) const {
    return placement_[ring_.arc_of(TokenRing::token_for(key))];
  }

  /// Event shards the cluster routes across (1 unless the owning simulation
  /// was configured with per-DC shards).
  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }

  std::uint64_t storage_bytes() const;
  /// Replica-level storage operations served (reads+digests+writes).
  std::uint64_t replica_ops() const { return sum(&ShardState::replica_ops); }
  /// Billed block-device I/O requests across all nodes (cache-miss reads and
  /// amortized commit-log flushes; memtable hits are free).
  double disk_io() const;
  SimDuration total_busy_time() const;
  /// Requests that exhausted every attempt without meeting their requirement.
  /// A request rescued by a retry or hedge is NOT counted here.
  std::uint64_t timeouts() const { return sum(&ShardState::timeouts); }
  std::uint64_t unavailable() const { return sum(&ShardState::unavailable); }
  std::uint64_t retries() const { return sum(&ShardState::retries); }
  std::uint64_t hedges_fired() const { return sum(&ShardState::hedges_fired); }
  /// Hedge legs whose response completed the read (the hedge paid off).
  std::uint64_t hedge_wins() const { return sum(&ShardState::hedge_wins); }
  std::uint64_t sheds() const { return sum(&ShardState::sheds); }
  /// Current hedge delay (fallback until enough RTT samples accumulate).
  /// Shard 0's view — each shard tracks its own RTT quantile when sharded.
  SimDuration current_hedge_delay() const { return hedge_delay_of(*shards_[0]); }
  std::uint64_t read_repairs_sent() const {
    return sum(&ShardState::read_repairs);
  }
  std::uint64_t anti_entropy_repairs() const { return anti_entropy_repairs_; }
  std::size_t anti_entropy_backlog() const {
    std::size_t n = 0;
    for (const auto& s : shards_) n += s->dirty_keys.size();
    return n;
  }

  /// Attach the measurement observer. Legal under sharding: every callback
  /// site defers into the executing shard's monitor log, and the barrier
  /// replay feeds the (time, seq)-merged stream — the exact serial callback
  /// order — to the observer, on the control thread.
  void set_observer(ClusterObserver* observer) { observer_ = observer; }

  // ---- client-side measurement records -----------------------------------
  // The workload layer's only way into the observer's record_* hooks:
  // forwarded immediately when unsharded, via the per-shard monitor log
  // (sealed at barriers, replayed merged) when sharded. `issued_at` is the
  // read's issue time as the client measures it (a paced client's intended
  // arrival), so it may precede now().
  void record_read_issued(Key key, SimTime issued_at);
  void record_write_issued(Key key, std::uint32_t value_size);
  void record_read_complete(SimDuration latency);
  void record_write_complete(SimDuration latency);

  /// Key-range ownership: the shard an operation on `key` issued from DC
  /// `dc` must execute on (0 when unsharded — everything lives on the one
  /// shard). The workload layer routes per-shard clients and open-loop
  /// sources with this.
  std::uint32_t home_shard(net::DcId dc, Key key) const {
    return deferred_ ? shard_map_.home_shard(dc, key) : 0;
  }
  /// The full key-range/node -> shard map (sharded runs only).
  const ShardMap& shard_map() const {
    HARMONY_CHECK_MSG(deferred_, "shard_map() is meaningful only when sharded");
    return shard_map_;
  }

  sim::Simulation& simulation() { return *sim_; }

  /// Typed-lane dispatcher for the cluster event domain: switches on the
  /// event kind and calls straight into the member function handlers below.
  /// Registered on the Simulation at construction; `ev.target` names the
  /// Cluster instance.
  static void dispatch_event(const sim::TypedEvent& ev);

 private:
  // Pending request state is fully inline (SmallVec members) and lives in a
  // generation-checked SlotPool: creating, fanning out, and completing a
  // request performs no per-request heap allocation at all in steady state.
  // Event callbacks carry {slot, generation} handles; a handle whose request
  // already completed (late timeout, ack racing an erase) dereferences to
  // nullptr — or, for records held until client delivery, to a record with
  // `responded` set — exactly as the old map's erased-id lookup missed.
  //
  // The record outlives the response: the client-delivery leg rides the typed
  // lane carrying only the handle, so the callback and result stay in the
  // record until the delivery event fires (the callback itself cannot ride a
  // POD event). reset_for_reuse() is the SlotPool recycling hook — cheaper
  // than assigning a default-constructed temporary, which the release fast
  // path would otherwise pay per request.
  //
  // Sharded execution: a pending record lives in its *home* shard's pool (the
  // coordinator's DC). Write fan-out legs executing on other shards resolve
  // the pool through the event's `home` byte and read only the pinned fields
  // (key/value/coord/start — written before fan-out, stable until every leg
  // completed); everything else is home-side only. Read legs never touch the
  // record remotely: the serve payload carries key and coordinator instead.
  struct PendingWrite {
    Key key{};
    VersionedValue value{};
    SimTime start = 0;
    net::DcId client_dc = 0;
    net::NodeId coord = 0;
    ReplicaList replicas;
    int needed = 1;
    bool local_only = false;
    bool each_quorum = false;
    DcCounts needed_per_dc;
    DcCounts acks_per_dc;
    int acks = 0;
    int alive_targets = 0;
    int completed_targets = 0;  ///< fan-out deliveries that ran (dead or alive)
    DelayList delays;
    bool responded = false;
    bool delivered = false;   ///< client callback has run (or is imminent)
    bool deliver_ok = false;  ///< result the delivery leg will report
    bool deliver_shed = false;    ///< delivery reports an admission rejection
    bool cross_origin = false;    ///< client lives in another DC (failover)
    bool admitted = false;        ///< kDelay admission already paid its token
    SimDuration deliver_retry_after = 0;
    WriteCallback cb;
    sim::EventHandle timeout;

    void reset_for_reuse() {
      key = {};
      value = {};
      start = 0;
      client_dc = 0;
      coord = 0;
      replicas.clear();
      needed = 1;
      local_only = false;
      each_quorum = false;
      needed_per_dc.clear();
      acks_per_dc.clear();
      acks = 0;
      alive_targets = 0;
      completed_targets = 0;
      delays.clear();
      responded = false;
      delivered = false;
      deliver_ok = false;
      deliver_shed = false;
      cross_origin = false;
      admitted = false;
      deliver_retry_after = 0;
      cb = nullptr;
      timeout = {};
    }
  };

  struct PendingRead {
    Key key{};
    SimTime start = 0;
    net::DcId client_dc = 0;
    net::NodeId coord = 0;
    ReplicaList contacted;
    ReplicaList all_replicas;
    int needed = 1;
    bool each_quorum = false;
    DcCounts needed_per_dc;
    DcCounts got_per_dc;
    int responses = 0;
    bool found = false;
    VersionedValue best{};
    SmallVec<std::pair<net::NodeId, Version>, kMaxReplicas> versions_seen;
    bool responded = false;
    ReadResult result{};  ///< filled at finish_read, delivered by typed leg
    ReadCallback cb;
    sim::EventHandle timeout;

    // ---- resilience state (untouched on the knobs-off path) --------------
    /// Snitch order captured at start_read; hedge/retry candidates walk it
    /// skipping already-contacted hosts. Filled only when hedging or retries
    /// are enabled (it reuses the ordering start_read computes anyway).
    ReplicaList snitch_order;
    std::uint8_t attempts = 1;  ///< attempts started (1 = the original)
    bool hedged = false;        ///< a hedge leg is in flight (or landed)
    bool cross_origin = false;  ///< client lives in another DC (failover)
    bool admitted = false;      ///< kDelay admission already paid its token
    net::NodeId hedge_replica = 0;  ///< valid while `hedged`
    sim::EventHandle hedge_timer;
    sim::EventHandle retry_timer;

    void reset_for_reuse() {
      key = {};
      start = 0;
      client_dc = 0;
      coord = 0;
      contacted.clear();
      all_replicas.clear();
      needed = 1;
      each_quorum = false;
      needed_per_dc.clear();
      got_per_dc.clear();
      responses = 0;
      found = false;
      best = {};
      versions_seen.clear();
      responded = false;
      result = {};
      cb = nullptr;
      timeout = {};
      snitch_order.clear();
      attempts = 1;
      hedged = false;
      cross_origin = false;
      admitted = false;
      hedge_replica = 0;
      hedge_timer = {};
      retry_timer = {};
    }
  };

  using WriteHandle = SlotPool<PendingWrite>::Handle;
  using ReadHandle = SlotPool<PendingRead>::Handle;

  /// One deferred staleness-oracle call (shard_count > 1 only). Per-shard
  /// logs are appended in that shard's execution order; the barrier replay
  /// K-way-merges them by (at, seq) — the exact serial call order, which is
  /// what the oracle's monotonicity contracts require.
  struct OracleOp {
    SimTime at = 0;
    std::uint64_t seq = 0;
    Key key = 0;
    Version version = kNoVersion;  ///< committed / returned version
    SimTime read_start = 0;
    enum class Kind : std::uint8_t {
      kCommit,    ///< record_commit(key, version, at)
      kBeginRead, ///< begin_read(read_start)
      kEndRead,   ///< end_read(read_start) — failed/shed reads
      kJudgeEnd,  ///< judge(key, version, read_start) then end_read
    };
    Kind kind = Kind::kCommit;
  };

  /// One deferred observer callback (shard_count > 1 only), logged and
  /// barrier-merged exactly like OracleOp. A single log carries all six
  /// callback kinds: the monitor's EWMA decay and reservoir state couple the
  /// client-side record_* hooks and the replica-side on_* hooks through one
  /// last-event timestamp, so replay must be the exact serial interleaving
  /// of ALL of them, not per-kind streams.
  struct MonitorOp {
    SimTime at = 0;
    std::uint64_t seq = 0;
    Key key = 0;              ///< issued / propagated
    SimTime ts = 0;           ///< kReadIssued: issued_at; kWritePropagated:
                              ///< write_start
    SimDuration dur = 0;      ///< completion latency / replica rtt
    std::uint32_t size = 0;   ///< written value size
    net::NodeId replica = 0;  ///< kReplicaReadRtt
    DelayList delays;         ///< kWritePropagated
    enum class Kind : std::uint8_t {
      kReadIssued,
      kWriteIssued,
      kReadComplete,
      kWriteComplete,
      kWritePropagated,
      kReplicaReadRtt,
    };
    Kind kind = Kind::kReadIssued;
    bool cross_dc = false;  ///< kReplicaReadRtt
  };

  /// One buffer of a shard's deferred logs (shard_count > 1 only). A shard
  /// has two: its worker appends to the live one (Cluster::live_log_)
  /// while the control thread replays and clears the sealed one. Own cache
  /// line, so the two never share one.
  struct alignas(64) DeferredLogs {
    std::vector<OracleOp> oracle;
    std::vector<MonitorOp> monitor;
  };

  /// Everything the request path mutates, one instance per event shard (a
  /// single instance when unsharded — shard 0's RNG stream and slot order
  /// are byte-identical to the historical flat members). Each instance is
  /// owned by its shard's worker during a window; heap-separate allocations
  /// keep shards off each other's cache lines.
  struct ShardState {
    Rng rng;  ///< coordinator choice, snitch shuffles, link jitter
    std::uint32_t id = 0;
    std::uint64_t write_seq = 0;
    std::uint64_t replica_ops = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t unavailable = 0;
    std::uint64_t read_repairs = 0;
    std::uint64_t retries = 0;
    std::uint64_t hedges_fired = 0;
    std::uint64_t hedge_wins = 0;
    std::uint64_t sheds = 0;
    /// Replica read RTTs feeding the hedge-delay quantile; sampled only
    /// while hedging is enabled. The cached delay is recomputed every 64
    /// samples so the percentile scan stays off the per-response path.
    LatencyHistogram hedge_rtt;
    SimDuration hedge_delay_cached = 0;  ///< 0: use the fallback delay
    HintStore hints;  ///< sender-side: hints this shard's coordinators hold
    net::NetStats net_stats;
    SlotPool<PendingWrite> pending_writes;
    SlotPool<PendingRead> pending_reads;
    DeferredLogs logs[2];  ///< indexed by live_log_ / its complement
    /// Keys written since this shard's last anti-entropy sweep (shard 0's
    /// set is the historical global one when unsharded).
    // lint: allow(hot-path-alloc): touched only when anti-entropy is on;
    // alloc_guard pins the default request path.
    std::unordered_set<Key> dirty_keys;
  };

  /// The shard state this thread is currently executing against: the
  /// dispatching shard's inside an event, shard 0 (or the setup shard) at
  /// setup time, the single instance when unsharded.
  ShardState& here() const { return *shards_[sim_->current_shard()]; }
  /// The executing shard's live log buffer (deferred mode).
  DeferredLogs& live_logs() const { return here().logs[live_log_]; }
  /// The shard owning a node's replica state (ShardMap round-robin within
  /// the node's DC — identical to "its DC" under the one-shard-per-DC plan),
  /// 0 when unsharded.
  std::uint8_t shard_of(net::NodeId n) const {
    return deferred_ ? shard_map_.node_shard(n) : 0;
  }
  std::uint64_t sum(std::uint64_t ShardState::* m) const {
    std::uint64_t n = 0;
    for (const auto& s : shards_) n += (*s).*m;
    return n;
  }

  /// An alive coordinator for a request from `dc`: one in `dc` when any is
  /// alive, else (serial runs) any alive node; -1 when no node is alive.
  int pick_coordinator(net::DcId dc, Rng& rng);
  SimDuration client_link_delay(Rng& rng, bool cross_dc = false);
  SimDuration link_delay(net::NodeId src, net::NodeId dst, Rng& rng);
  void account(net::NodeId src, net::NodeId dst, std::uint64_t bytes);
  void account_client(std::uint64_t bytes, bool cross_dc = false);

  /// Order candidate read replicas for a coordinator (snitch).
  ReplicaList order_for_read(net::NodeId coord, const ReplicaList& replicas,
                             Rng& rng) const;

  void start_write(WriteHandle h);
  /// Infeasible request: count it unavailable and deliver the failure after
  /// `coord_delay` (0 when no node was alive to coordinate) plus the client
  /// link. No replica legs, no hints.
  void write_unavailable(WriteHandle h, SimDuration coord_delay);
  void replica_apply_write(WriteHandle h, net::NodeId replica,
                           std::uint32_t home);
  void write_apply_done(WriteHandle h, net::NodeId replica, std::uint32_t home);
  /// `acked` distinguishes a replica ack (counts toward the consistency
  /// level) from a completion-only leg (replica died mid-flight; sharded
  /// runs route the lifecycle bookkeeping home as an event).
  void write_ack(WriteHandle h, net::NodeId replica, SimDuration apply_delay,
                 bool acked);
  void finish_write(WriteHandle h, bool ok);
  void write_deliver(WriteHandle h);
  void read_deliver(ReadHandle h);

  void start_read(ReadHandle h);
  void read_unavailable(ReadHandle h, SimDuration coord_delay);
  void replica_serve_read(ReadHandle h, net::NodeId replica, bool data_read,
                          SimTime sent_at, Key key, net::NodeId coord);
  void read_serve_done(ReadHandle h, net::NodeId replica, Key key,
                       net::NodeId coord, bool data_read, SimTime sent_at);
  void read_response(ReadHandle h, net::NodeId replica, bool found,
                     VersionedValue value, SimDuration rtt);
  void finish_read(ReadHandle h, bool ok);

  // ---- resilience helpers ------------------------------------------------
  /// Best untried alive replica for a hedge/retry leg: snitch-class ranked
  /// (same-rack, then same-DC, then cross-DC relative to the coordinator),
  /// ties broken by earlier snitch position; -1 when exhausted. Honours the
  /// local-DC restriction.
  int next_untried_replica(const PendingRead& r) const;
  /// Send one data-read leg of attempt `h` to `replica` (hedge/retry legs).
  void send_read_leg(ReadHandle h, net::NodeId replica);
  void fire_hedge(ReadHandle h);
  void read_timeout(ReadHandle h);
  void retry_read(ReadHandle h);
  void observe_read_rtt(ShardState& st, SimDuration rtt);
  SimDuration hedge_delay_of(const ShardState& st) const {
    return st.hedge_delay_cached > 0 ? st.hedge_delay_cached
                                     : cfg_.resilience.hedge_fallback_delay;
  }
  /// Token-bucket check for one request in `dc`. Returns 0 when admitted
  /// (one token consumed); otherwise the retry-after the shed should carry.
  SimDuration admit(net::DcId dc);
  void apply_fault(FaultOp op, net::NodeId node, net::DcId dc, double factor);
  void set_node_latency_mult(net::NodeId node, double factor);

  void write_shed(WriteHandle h, SimDuration retry_after);
  void read_shed(ReadHandle h, SimDuration retry_after);
  void send_repair(net::NodeId coord, net::NodeId target, Key key,
                   const VersionedValue& value);
  void repair_arrive(net::NodeId target, Key key, const VersionedValue& value);
  void repair_apply(net::NodeId target, Key key, const VersionedValue& value);
  void hint_deliver(net::NodeId target, Key key, const VersionedValue& value);

  void replay_hints(net::NodeId target);
  void anti_entropy_sweep();
  /// Sweep one shard's dirty set (up to `budget` keys); returns keys swept.
  std::size_t sweep_shard_dirty(ShardState& st, std::size_t budget);
  /// Deferred mode: fence + schedule the next sweep instant.
  void arm_anti_entropy_fence(SimTime at);

  // ---- deferred oracle (shard_count > 1) ---------------------------------
  void oracle_commit(Key key, const Version& version);
  void oracle_begin_read(SimTime read_start);
  void oracle_end_read(SimTime read_start);
  /// Judge + end for a completed read. Unsharded: judges inline and fills
  /// result->stale / staleness_age. Sharded: defers (result stays fresh).
  void oracle_judge_end(Key key, const Version& returned, SimTime read_start,
                        ReadResult* result);
  /// Barrier seal (sim::BarrierHook), O(1): the live log buffers become the
  /// sealed ones, whose every op is dated strictly before `safe_time`, and
  /// the barrier epoch the memoized accessors key on moves.
  static void seal_logs(void* ctx, SimTime safe_time);
  /// Barrier replay (sim::ReplayHook): apply the sealed oracle and monitor
  /// ops to the oracle and the observer in (at, seq) order, then empty them.
  static void replay_logs(void* ctx);
  /// K-way merge of one kind of sealed log by (at, seq): `apply` each op,
  /// then clear the buffers.
  template <typename Op, typename Apply>
  void replay_sealed(std::vector<Op> DeferredLogs::*log, Apply apply);
  void replay_oracle_op(const OracleOp& op);

  // ---- deferred observer (shard_count > 1) -------------------------------
  // Observer-side call sites route through these: immediate when unsharded,
  // appended to the executing shard's monitor log when deferred.
  void observer_write_propagated(Key key, SimTime write_start,
                                 const DelayList& delays);
  void observer_replica_read_rtt(net::NodeId replica, SimDuration rtt,
                                 bool cross_dc);
  MonitorOp& append_monitor_op(MonitorOp::Kind kind);
  void replay_monitor_op(const MonitorOp& op);

  sim::Simulation* sim_;
  ClusterConfig cfg_;
  net::Topology topo_;
  net::TieredLatencyModel latency_;
  TokenRing ring_;
  std::vector<std::unique_ptr<Node>> nodes_;
  StalenessOracle oracle_;
  ClusterObserver* observer_ = nullptr;

  DcCounts rf_per_dc_;    // cfg_.rf_per_dc(), computed once
  /// placement_[a]: the replica list of every key in ring arc a (see
  /// TokenRing::arc_of), one NTS walk per arc at construction. Immutable, so
  /// every shard reads it without synchronization.
  std::vector<ReplicaList> placement_;

  /// Per-shard request-path state; size sim.shard_count() (1 unsharded).
  std::vector<std::unique_ptr<ShardState>> shards_;
  /// True when shard_count > 1: oracle and observer calls defer to per-shard
  /// logs, write lifecycle legs route home as events, pools are pre-grown,
  /// and the sharded-restriction contract checks are armed.
  bool deferred_ = false;
  /// Key-range/node -> shard ownership; built only when deferred.
  ShardMap shard_map_;
  /// Window barriers seen so far (bumped by the seal); memoized merged
  /// accessors re-merge only when it moved. 0 = setup time.
  std::uint64_t barrier_epoch_ = 0;
  /// Which ShardState::logs buffer the workers append to; the other one is
  /// sealed. Flipped by the seal, between windows.
  std::uint32_t live_log_ = 0;
  /// The last seal's safe time: every sealed op must be dated before it.
  SimTime sealed_safe_ = 0;
  mutable net::NetStats net_stats_merged_;
  mutable std::uint64_t net_stats_epoch_ = 0;  ///< epoch net_stats_merged_ is at

  /// alive()-flags mirrored out of the Node objects: the request path scans
  /// liveness constantly (coordinator picks, feasibility, contact sets), and
  /// a contiguous byte array beats a unique_ptr chase per node. kill_node/
  /// revive_node keep it in sync. Read by every shard, mutated only at
  /// fenced fault instants (merged-serial execution).
  std::vector<std::uint8_t> alive_;
  bool node_alive(net::NodeId id) const { return alive_[id] != 0; }
  /// Alive-node count per DC, kept in sync by kill_node/revive_node; feeds
  /// dc_alive() so clients can poll failover state in O(1).
  DcCounts alive_per_dc_;

  std::uint64_t anti_entropy_repairs_ = 0;

  /// Admission token buckets (lazy refill on access), one per DC unsharded
  /// and one per *shard* when sharded — each shard gets 1/S_d of its DC's
  /// rate and burst, so the aggregate admitted rate matches the per-DC
  /// configuration while bucket b is touched only by shard b (no cross-shard
  /// mutation; with S_d == 1 the split is exact and byte-identical). Each
  /// bucket carries its own rate/burst and is padded to a cache line.
  struct TokenBucket {
    double tokens = 0;
    SimTime last = 0;
    double rate = 0;   ///< tokens per second this bucket accrues
    double burst = 0;  ///< bucket depth, tokens
    char pad_[32] = {};
  };
  /// The calling context's admission bucket for a request from `dc`.
  TokenBucket& admission_bucket(net::DcId dc) {
    return admission_[deferred_ ? sim_->current_shard() : dc];
  }
  std::vector<TokenBucket> admission_;

  /// Per-node link-latency multipliers and the WAN-wide multiplier from
  /// degradation faults. `links_degraded_` gates the multiply so the healthy
  /// path never pays it (and stays byte-identical). Mutated only at fenced
  /// fault instants.
  std::vector<double> latency_mult_;
  double wan_mult_ = 1.0;
  bool links_degraded_ = false;
  void refresh_links_degraded();

  // Anti-entropy scheduling state. Unsharded, the sweep is scheduled lazily
  // (only while dirty keys exist) so an idle cluster's event queue drains;
  // sharded, sweeps run at fenced instants armed at construction and
  // re-armed from the sweep itself while the simulation has pending events
  // (dirty sets live per shard — see ShardState::dirty_keys).
  bool anti_entropy_scheduled_ = false;
};

}  // namespace harmony::cluster
