#include "cluster/cluster.h"

#include <algorithm>
#include <array>
#include <ranges>

#include "common/check.h"

namespace harmony::cluster {

// ------------------------------------------------------------ config helpers

std::vector<int> ClusterConfig::rf_per_dc() const {
  std::vector<int> split(dc_count, rf / static_cast<int>(dc_count));
  int rem = rf % static_cast<int>(dc_count);
  for (std::size_t d = 0; d < dc_count && rem > 0; ++d, --rem) ++split[d];
  return split;
}

int ClusterConfig::local_rf(net::DcId dc) const {
  HARMONY_CHECK(dc < dc_count);
  return rf_per_dc()[dc];
}

// ------------------------------------------------------------ construction

namespace {
/// Every node runs the default NodeParams service model.
const NodeParams kNodeParams{};

net::Topology build_topology(const ClusterConfig& cfg) {
  return net::Topology::balanced(cfg.node_count, cfg.dc_count);
}

using sim::EventKind;
using sim::TypedEvent;

/// Header-only part of a cluster-domain typed event; call sites fill the
/// payload union member their kind's handler reads (and, under sharding, the
/// destination `shard` / record-owner `home` bytes).
TypedEvent cluster_event(EventKind kind, Cluster* target) {
  TypedEvent e;
  e.kind = kind;
  e.target = target;
  return e;
}

/// kRepairArrive/kRepairApply/kHintDeliver: a keyed mutation headed at a
/// node (value size and version ride in the kv payload).
TypedEvent kv_event(EventKind kind, Cluster* target, net::NodeId node, Key key,
                    const VersionedValue& value, std::uint8_t shard) {
  TypedEvent e = cluster_event(kind, target);
  e.node = node;
  e.shard = shard;
  e.u.kv = {key, value.version.timestamp, value.version.seq, value.size_bytes};
  return e;
}
}  // namespace

Cluster::Cluster(sim::Simulation& sim, ClusterConfig cfg)
    : sim_(&sim),
      cfg_(std::move(cfg)),
      topo_(build_topology(cfg_)),
      latency_(cfg_.latency),
      ring_(topo_, cfg_.vnodes_per_node, sim.seed() ^ 0xA5A5A5A5ULL) {
  HARMONY_CHECK(cfg_.rf >= 1);
  HARMONY_CHECK(static_cast<std::size_t>(cfg_.rf) <= cfg_.node_count);
  HARMONY_CHECK_MSG(cfg_.rf <= kMaxReplicas, "rf exceeds kMaxReplicas");
  HARMONY_CHECK_MSG(cfg_.dc_count <= kMaxDcs, "dc_count exceeds kMaxDcs");
  sim.set_event_dispatcher(sim::EventDomain::kCluster, &Cluster::dispatch_event);
  for (const int w : cfg_.rf_per_dc()) rf_per_dc_.push_back(w);

  // Per-shard request-path state. One instance when the simulation has a
  // single shard (the default kernel); otherwise one per key-range shard of
  // the cluster's one DC. Shard RNGs fork before the node RNGs below, in
  // shard order, so a single-shard cluster replays the historical
  // master-RNG draw sequence byte for byte.
  const std::uint32_t shard_count = sim.shard_count();
  deferred_ = shard_count > 1;
  if (deferred_) {
    // Sharded execution cuts one DC into S key-range shards: shard s owns
    // nodes s, s + S, ... and the keys whose token falls in range s.
    HARMONY_CHECK_MSG(cfg_.dc_count == 1,
                      "sharded execution cuts one DC into key-range shards: "
                      "dc_count must be 1");
    HARMONY_CHECK_MSG(shard_count <= cfg_.node_count,
                      "a DC cannot split into more shards than it has nodes "
                      "(every shard needs a coordinator)");
    // Replicas of one key live on several shards, so same-rack/same-DC hops
    // (write fan-out, acks, repairs) are cross-shard events whose latency
    // floors must cover the lookahead.
    HARMONY_CHECK_MSG(cfg_.latency.same_rack.floor >= sim.lookahead() &&
                          cfg_.latency.same_dc.floor >= sim.lookahead(),
                      "key-range sharding makes intra-DC hops cross-shard: "
                      "same_rack/same_dc floors must cover the lookahead");
    // Sharded traffic is client reads and writes on a healthy cluster; the
    // settings that reach past it are serial-only.
    const ResilienceConfig& rc = cfg_.resilience;
    HARMONY_CHECK_MSG(cfg_.anti_entropy_period == 0,
                      "anti_entropy_period > 0 is serial-only");
    HARMONY_CHECK_MSG(!rc.hedge_reads, "hedge_reads is serial-only");
    HARMONY_CHECK_MSG(rc.read_retries == 0, "read_retries > 0 is serial-only");
    HARMONY_CHECK_MSG(rc.admission_rate == 0,
                      "admission_rate > 0 is serial-only");
  }
  shards_.reserve(shard_count);
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    // lint: allow(hot-path-alloc): construction-time shard array; steady
    // state only indexes it (alloc_guard pins the request path).
    auto st = std::make_unique<ShardState>();
    st->id = s;
    st->rng = sim.fork_rng(0xC1D2E3F4ULL + s);
    shards_.push_back(std::move(st));
  }
  if (deferred_) {
    sim.set_barrier_hook(&Cluster::seal_logs, this, &Cluster::replay_logs);
  }

  for (std::size_t d = 0; d < rf_per_dc_.size(); ++d) {
    HARMONY_CHECK_MSG(
        static_cast<std::size_t>(rf_per_dc_[d]) <=
            topo_.nodes_in_dc(static_cast<net::DcId>(d)).size(),
        "NTS rf split exceeds a DC's node count");
  }
  placement_.resize(ring_.vnode_count());
  for (std::size_t a = 0; a < placement_.size(); ++a) {
    ring_.replicas_at(a, rf_per_dc_, placement_[a]);
    // preload_range's closed-form bytes count rf replicas per key.
    HARMONY_CHECK_MSG(
        placement_[a].size() == static_cast<std::size_t>(cfg_.rf),
        "an arc's replica list is not rf long");
  }
  nodes_.reserve(cfg_.node_count);
  for (std::size_t i = 0; i < cfg_.node_count; ++i) {
    // lint: allow(hot-path-alloc): construction-time node array; never runs
    // again after the cluster is built (alloc_guard pins steady state).
    nodes_.push_back(std::make_unique<Node>(
        static_cast<net::NodeId>(i), kNodeParams,
        sim.fork_rng(0x1000 + static_cast<std::uint64_t>(i))));
  }
  alive_.assign(cfg_.node_count, 1);
  alive_per_dc_.assign(cfg_.dc_count, 0);
  for (std::size_t i = 0; i < cfg_.node_count; ++i) {
    ++alive_per_dc_[topo_.dc_of(static_cast<net::NodeId>(i))];
  }
  latency_mult_.assign(cfg_.node_count, 1.0);
  if (cfg_.resilience.admission_rate > 0) {
    // Buckets start full so a run's leading edge is not spuriously shed.
    admission_.assign(cfg_.dc_count,
                      TokenBucket{cfg_.resilience.admission_burst, 0});
  }
}

Cluster::~Cluster() = default;

Node& Cluster::node(net::NodeId id) {
  HARMONY_CHECK(id < nodes_.size());
  return *nodes_[id];
}

void Cluster::preload_range(std::uint64_t count, std::uint32_t size) {
  for (const auto& n : nodes_) {
    HARMONY_CHECK_MSG(n->store().empty(),
                      "preload_range loads the dataset once, before any "
                      "write: a store already holds keys");
  }
  // Keys 0..count-1 take the stamps `count` consecutive writes issued here
  // would get (++write_seq * shards + id, as client writes), in closed form.
  ShardState& st = here();
  const std::uint64_t stride = shards_.size();
  const PreloadBase base{count, (st.write_seq + 1) * stride + st.id, stride,
                         size};
  st.write_seq += count;
  // Every node takes the whole range: a store is asked only about keys its
  // node replicates, so it holds exactly those. Each key has rf replicas.
  for (const auto& n : nodes_) n->store().set_base(base);
  preload_bytes_ = count * static_cast<std::uint64_t>(cfg_.rf) * size;
}

// ------------------------------------------------------------ link helpers

int Cluster::pick_coordinator(net::DcId dc, Rng& rng) {
  // Count-then-select keeps the choice uniform over alive candidates with a
  // single RNG draw (the same draw sequence as the old materialize-a-vector
  // version) and no allocation.
  auto pick_from = [&](auto&& candidates) -> int {
    std::size_t alive = 0;
    for (const net::NodeId n : candidates) {
      if (node_alive(n)) ++alive;
    }
    if (alive == 0) return -1;
    std::uint64_t target = rng.uniform_u64(alive);
    for (const net::NodeId n : candidates) {
      if (node_alive(n) && target-- == 0) return static_cast<int>(n);
    }
    return -1;  // unreachable
  };
  if (deferred_) {
    // A node's coordinator state (service queue, busy time) is owned by
    // exactly one shard, so the pick stays inside the executing shard's
    // nodes: s, s + S, s + 2S, ... A sharded run never kills a node, so the
    // pick is one uniform draw over all of them (the draw pick_from makes).
    const std::uint32_t s = sim_->current_shard();
    const auto stride = static_cast<std::uint32_t>(shards_.size());
    const auto owned =
        (static_cast<std::uint32_t>(topo_.node_count()) - s + stride - 1) /
        stride;
    return static_cast<int>(s + rng.uniform_u64(owned) * stride);
  }
  const int c = pick_from(topo_.nodes_in_dc(dc));
  if (c >= 0) return c;
  // Whole-DC outage: fall back to any alive node. -1 when every node is
  // dead.
  return pick_from(std::views::iota(
      net::NodeId{0}, static_cast<net::NodeId>(topo_.node_count())));
}

void Cluster::require_serial(const char* msg) const {
  HARMONY_CHECK_MSG(!deferred_, msg);
}

SimDuration Cluster::client_link_delay(Rng& rng, bool cross_dc) {
  // Clients are homed in a DC; their link to the coordinator is a same-DC hop
  // — unless the client re-routed to a surviving DC during failover, which
  // makes the hop a WAN crossing.
  const auto& t =
      cross_dc ? latency_.params().cross_dc : latency_.params().same_dc;
  return rng.lognormal_median(static_cast<double>(t.base), t.sigma);
}

SimDuration Cluster::link_delay(net::NodeId src, net::NodeId dst, Rng& rng) {
  SimDuration d = latency_.sample(topo_, src, dst, rng);
  if (links_degraded_) {
    double m = latency_mult_[src] * latency_mult_[dst];
    if (!topo_.same_dc(src, dst)) m *= wan_mult_;
    if (m != 1.0) d = static_cast<SimDuration>(static_cast<double>(d) * m);
  }
  return d;
}

void Cluster::account(net::NodeId src, net::NodeId dst, std::uint64_t bytes) {
  here().net_stats.record(net::classify(topo_, src, dst), bytes);
}

void Cluster::account_client(std::uint64_t bytes, bool cross_dc) {
  here().net_stats.record(
      cross_dc ? net::LinkClass::kCrossDc : net::LinkClass::kSameDc, bytes);
}

ReplicaList Cluster::order_for_read(net::NodeId coord,
                                    const ReplicaList& replicas,
                                    Rng& rng) const {
  struct Ranked {
    int rank;
    std::uint64_t shuffle;
    net::NodeId id;
  };
  SmallVec<Ranked, kMaxReplicas> ranked;
  for (const net::NodeId r : replicas) {
    int rank = 0;
    if (cfg_.closest_first_snitch) {
      rank = static_cast<int>(net::classify(topo_, coord, r));
    }
    ranked.push_back({rank, rng.next(), r});
  }
  // Insertion sort: ranked holds at most kMaxReplicas (8) entries, and the
  // fixed bound sidesteps std::sort's 16-element insertion threshold (which
  // trips GCC's -Warray-bounds on inline storage).
  const auto before = [](const Ranked& a, const Ranked& b) {
    if (a.rank != b.rank) return a.rank < b.rank;
    return a.shuffle < b.shuffle;
  };
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    const Ranked key = ranked[i];
    std::size_t j = i;
    for (; j > 0 && before(key, ranked[j - 1]); --j) ranked[j] = ranked[j - 1];
    ranked[j] = key;
  }
  ReplicaList out;
  for (const auto& r : ranked) out.push_back(r.id);
  return out;
}

// ------------------------------------------------------------ write path

void Cluster::client_write(net::DcId client_dc, Key key, std::uint32_t size,
                           ReplicaRequirement req, WriteCallback cb,
                           net::DcId origin_dc) {
  ShardState& st = here();
  // Acquired slots come back in default state (release resets them), so only
  // the non-default fields need touching.
  const auto [h, w] = st.pending_writes.acquire();
  w->key = key;
  w->start = sim_->now();
  // Interleaved per-shard seq streams (residue = shard id) keep write seqs
  // unique and shard-deterministic; a single shard draws the historical
  // 1,2,3,... stream exactly.
  w->value = VersionedValue{
      Version{sim_->now(), ++st.write_seq * shards_.size() + st.id}, size};
  w->client_dc = client_dc;
  w->needed = req.count;
  w->local_only = req.local_only;
  w->each_quorum = req.each_quorum;
  w->cross_origin = origin_dc != kSameOrigin && origin_dc != client_dc;
  w->cb = std::move(cb);

  account_client(kMessageOverheadBytes + size, w->cross_origin);
  const SimDuration d = client_link_delay(st.rng, w->cross_origin);
  TypedEvent ev = cluster_event(EventKind::kStartWrite, this);
  ev.shard = static_cast<std::uint8_t>(st.id);
  ev.u.req.h = {h.slot, h.generation};
  sim_->schedule_event(d, ev);
}

void Cluster::start_write(WriteHandle h) {
  ShardState& st = here();
  PendingWrite* wp = st.pending_writes.get(h);
  if (wp == nullptr) return;
  PendingWrite& w = *wp;

  // Admission control runs before any coordinator work (or RNG draws).
  if (cfg_.resilience.admission_rate > 0 && !w.admitted) {
    const SimDuration wait = admit(w.client_dc);
    if (wait > 0) {
      if (cfg_.resilience.admission_mode == AdmissionMode::kDelay &&
          wait <= cfg_.resilience.admission_max_delay) {
        // Pre-pay the token (the bucket goes negative, queueing followers
        // behind this request) and re-enter once it is covered.
        admission_[w.client_dc].tokens -= 1.0;
        w.admitted = true;
        TypedEvent ev = cluster_event(EventKind::kStartWrite, this);
        ev.shard = static_cast<std::uint8_t>(st.id);
        ev.u.req.h = {h.slot, h.generation};
        sim_->schedule_event(wait, ev);
        return;
      }
      write_shed(h, wait);
      return;
    }
  }

  const int coord_id = pick_coordinator(w.client_dc, st.rng);
  if (coord_id < 0) {
    // No alive node anywhere: nothing coordinates, fans out or stores hints.
    write_unavailable(h, 0);
    return;
  }
  w.coord = static_cast<net::NodeId>(coord_id);
  Node& coord = *nodes_[w.coord];
  const SimDuration coord_delay = coord.service(ServiceKind::kCoordinate, sim_->now());

  w.replicas = replicas_for(w.key);
  if (w.each_quorum) {
    w.needed_per_dc.assign(cfg_.dc_count, 0);
    w.acks_per_dc.assign(cfg_.dc_count, 0);
    for (std::size_t d = 0; d < cfg_.dc_count; ++d) {
      if (rf_per_dc_[d] > 0) w.needed_per_dc[d] = quorum_of(rf_per_dc_[d]);
    }
  }

  // Feasibility: can the alive replica set ever satisfy the requirement?
  int alive_total = 0, alive_local = 0;
  DcCounts alive_per_dc;
  alive_per_dc.assign(cfg_.dc_count, 0);
  for (const net::NodeId r : w.replicas) {
    if (!node_alive(r)) continue;
    ++alive_total;
    ++alive_per_dc[topo_.dc_of(r)];
    if (topo_.dc_of(r) == w.client_dc) ++alive_local;
  }
  bool feasible = true;
  if (w.each_quorum) {
    for (std::size_t d = 0; d < cfg_.dc_count; ++d) {
      if (alive_per_dc[d] < w.needed_per_dc[d]) feasible = false;
    }
  } else if (w.local_only) {
    feasible = alive_local >= w.needed;
  } else {
    feasible = alive_total >= w.needed;
  }
  if (!feasible) {
    write_unavailable(h, coord_delay);
    return;
  }

  w.alive_targets = alive_total;

  if (cfg_.anti_entropy_period > 0) {
    // Serial-only (see ClusterConfig::anti_entropy_period): the sweep is
    // scheduled lazily, while dirty keys exist.
    dirty_keys_.insert(w.key);
    if (!anti_entropy_scheduled_) {
      anti_entropy_scheduled_ = true;
      sim_->schedule_event(cfg_.anti_entropy_period,
                           cluster_event(EventKind::kAntiEntropySweep, this));
    }
  }

  // Writes go to every replica; dead targets get hints (hinted handoff;
  // serial runs only). Fan-out legs execute on the replica's shard but
  // resolve the pending record in this (home) shard's pool via the event's
  // `home` byte.
  const std::uint8_t home = static_cast<std::uint8_t>(st.id);
  for (const net::NodeId r : w.replicas) {
    if (!node_alive(r)) {
      hints_.add(r, w.key, w.value);
      continue;
    }
    account(w.coord, r, kMessageOverheadBytes + w.value.size_bytes);
    const SimDuration d = coord_delay + link_delay(w.coord, r, st.rng);
    TypedEvent ev = cluster_event(EventKind::kWriteApply, this);
    ev.node = r;
    ev.shard = shard_of(r);
    ev.home = home;
    ev.u.req.h = {h.slot, h.generation};
    sim_->schedule_event(d, ev);
  }

  w.timeout = sim_->schedule(cfg_.request_timeout, [this, h] {
    PendingWrite* t = here().pending_writes.get(h);
    if (t == nullptr || t->responded) return;
    ++here().timeouts;
    finish_write(h, false);
  });
}

void Cluster::write_unavailable(WriteHandle h, SimDuration coord_delay) {
  ShardState& st = here();
  PendingWrite& w = *st.pending_writes.get(h);
  ++unavailable_;
  const SimDuration back =
      coord_delay + client_link_delay(st.rng, w.cross_origin);
  account_client(kMessageOverheadBytes, w.cross_origin);
  // No timeout is armed yet, so marking the record responded parks it
  // until the typed delivery leg hands the failure to the client.
  w.responded = true;
  w.deliver_ok = false;
  TypedEvent ev = cluster_event(EventKind::kWriteDeliver, this);
  ev.shard = static_cast<std::uint8_t>(st.id);
  ev.u.req.h = {h.slot, h.generation};
  sim_->schedule_event(back, ev);
}

void Cluster::replica_apply_write(WriteHandle h, net::NodeId replica,
                                  std::uint32_t home) {
  // Runs on the replica's shard; the record lives in the home shard's pool.
  // Only the pinned fields (key/value/coord/start) may be read remotely.
  PendingWrite* wp = shards_[home]->pending_writes.get(h);
  if (wp == nullptr) return;
  PendingWrite& w = *wp;
  if (!node_alive(replica)) {
    // Died mid-flight (serial runs only: a sharded run never kills a node,
    // so home is this shard): mutation lost (a hint was only stored for
    // known-dead targets). The lifecycle still completes.
    ++w.completed_targets;
    if (w.completed_targets == w.alive_targets) {
      observer_write_propagated(w.key, w.start, w.delays);
      if (w.delivered) shards_[home]->pending_writes.release(h);
    }
    return;
  }
  const SimDuration svc = nodes_[replica]->service(ServiceKind::kWrite, sim_->now());
  ++here().replica_ops;
  TypedEvent ev = cluster_event(EventKind::kWriteApplied, this);
  ev.node = replica;
  ev.shard = shard_of(replica);
  ev.home = static_cast<std::uint8_t>(home);
  ev.u.req.h = {h.slot, h.generation};
  sim_->schedule_event(svc, ev);
}

void Cluster::write_apply_done(WriteHandle h, net::NodeId replica,
                               std::uint32_t home) {
  // The pending record provably outlives every apply/ack leg: release
  // requires completed_targets == alive_targets, and this replica only
  // counts as completed once its ack (scheduled below) has run. The key,
  // value, and coordinator are therefore read from the record instead of
  // traveling in the event — remotely, they are pinned fields.
  PendingWrite* wp = shards_[home]->pending_writes.get(h);
  if (wp == nullptr) return;
  nodes_[replica]->store().apply(wp->key, wp->value);
  const SimDuration apply_delay = sim_->now() - wp->start;
  account(replica, wp->coord, kMessageOverheadBytes);
  const SimDuration back = link_delay(replica, wp->coord, here().rng);
  TypedEvent ev = cluster_event(EventKind::kWriteAck, this);
  ev.node = replica;
  ev.shard = static_cast<std::uint8_t>(home);
  ev.home = static_cast<std::uint8_t>(home);
  ev.u.ack = {{h.slot, h.generation}, apply_delay};
  sim_->schedule_event(back, ev);
}

void Cluster::write_ack(WriteHandle h, net::NodeId replica,
                        SimDuration apply_delay) {
  // Back on the home shard: here() owns the record again.
  ShardState& st = here();
  PendingWrite* wp = st.pending_writes.get(h);
  if (wp == nullptr) return;
  PendingWrite& w = *wp;

  ++w.completed_targets;
  w.delays.push_back(apply_delay);
  const net::DcId dc = topo_.dc_of(replica);
  ++w.acks;
  if (w.each_quorum) ++w.acks_per_dc[dc];

  bool met = false;
  if (w.each_quorum) {
    met = true;
    for (std::size_t d = 0; d < cfg_.dc_count; ++d) {
      if (w.acks_per_dc[d] < w.needed_per_dc[d]) met = false;
    }
  } else if (w.local_only) {
    // local_only counts only acks from the client's DC.
    if (w.acks_per_dc.empty()) w.acks_per_dc.assign(cfg_.dc_count, 0);
    ++w.acks_per_dc[dc];
    met = w.acks_per_dc[w.client_dc] >= w.needed;
  } else {
    met = w.acks >= w.needed;
  }

  // Report propagation completion before finish_write may erase the entry.
  const bool propagation_done = w.completed_targets == w.alive_targets;
  if (propagation_done) {
    observer_write_propagated(w.key, w.start, w.delays);
  }

  if (met && !w.responded) finish_write(h, true);

  PendingWrite* w2 = st.pending_writes.get(h);
  if (w2 == nullptr) return;
  if (propagation_done && w2->delivered) st.pending_writes.release(h);
}

void Cluster::finish_write(WriteHandle h, bool ok) {
  ShardState& st = here();
  PendingWrite* wp = st.pending_writes.get(h);
  if (wp == nullptr) return;
  PendingWrite& w = *wp;
  w.responded = true;
  w.timeout.cancel();
  if (ok) oracle_commit(w.key, w.value.version);
  account_client(kMessageOverheadBytes, w.cross_origin);
  const SimDuration back = client_link_delay(st.rng, w.cross_origin);
  // The callback and result stay in the record (responded is set, so nothing
  // fires them again); the typed delivery leg hands them to the client and
  // releases the record — or the last replica leg does, when propagation is
  // still in flight at delivery time.
  w.deliver_ok = ok;
  TypedEvent ev = cluster_event(EventKind::kWriteDeliver, this);
  ev.shard = static_cast<std::uint8_t>(st.id);
  ev.u.req.h = {h.slot, h.generation};
  sim_->schedule_event(back, ev);
}

// Admission rejection: park the record (no timeout is armed yet) and hand
// the shed result back over the client link. Sheds are not `unavailable` —
// the replica set could serve, the coordinator chose not to ask it.
void Cluster::write_shed(WriteHandle h, SimDuration retry_after) {
  ShardState& st = here();
  PendingWrite* wp = st.pending_writes.get(h);
  if (wp == nullptr) return;
  PendingWrite& w = *wp;
  ++sheds_;
  account_client(kMessageOverheadBytes, w.cross_origin);
  const SimDuration back = client_link_delay(st.rng, w.cross_origin);
  w.responded = true;
  w.deliver_ok = false;
  w.deliver_shed = true;
  w.deliver_retry_after = retry_after;
  TypedEvent ev = cluster_event(EventKind::kWriteDeliver, this);
  ev.shard = static_cast<std::uint8_t>(st.id);
  ev.u.req.h = {h.slot, h.generation};
  sim_->schedule_event(back, ev);
}

void Cluster::write_deliver(WriteHandle h) {
  ShardState& st = here();
  PendingWrite* wp = st.pending_writes.get(h);
  if (wp == nullptr) return;
  PendingWrite& w = *wp;
  WriteCallback cb = std::move(w.cb);
  WriteResult result;
  result.ok = w.deliver_ok;
  result.shed = w.deliver_shed;
  result.version = w.deliver_ok ? w.value.version : kNoVersion;
  result.retry_after = w.deliver_retry_after;
  w.delivered = true;
  // Release before invoking: the callback may issue the client's next
  // operation, and the slot must be reusable by then (as it was when the
  // closure-lane delivery captured the callback and released up front).
  if (w.completed_targets == w.alive_targets) st.pending_writes.release(h);
  cb(result);
}

// ------------------------------------------------------------ read path

void Cluster::client_read(net::DcId client_dc, Key key, ReplicaRequirement req,
                          ReadCallback cb, net::DcId origin_dc) {
  ShardState& st = here();
  const auto [h, r] = st.pending_reads.acquire();
  r->key = key;
  r->start = sim_->now();
  oracle_begin_read(r->start);
  r->client_dc = client_dc;
  r->needed = req.count;
  r->each_quorum = req.each_quorum;
  r->cross_origin = origin_dc != kSameOrigin && origin_dc != client_dc;
  r->cb = std::move(cb);
  // local_only reads restrict the contact set; encode via needed_per_dc.
  if (req.local_only) {
    r->needed_per_dc.assign(cfg_.dc_count, 0);
    r->needed_per_dc[client_dc] = req.count;
  }

  account_client(kMessageOverheadBytes, r->cross_origin);
  const SimDuration d = client_link_delay(st.rng, r->cross_origin);
  TypedEvent ev = cluster_event(EventKind::kStartRead, this);
  ev.shard = static_cast<std::uint8_t>(st.id);
  ev.u.req.h = {h.slot, h.generation};
  sim_->schedule_event(d, ev);
}

void Cluster::start_read(ReadHandle h) {
  ShardState& st = here();
  PendingRead* rp = st.pending_reads.get(h);
  if (rp == nullptr) return;
  PendingRead& r = *rp;

  // Admission control runs before any coordinator work (or RNG draws).
  if (cfg_.resilience.admission_rate > 0 && !r.admitted) {
    const SimDuration wait = admit(r.client_dc);
    if (wait > 0) {
      if (cfg_.resilience.admission_mode == AdmissionMode::kDelay &&
          wait <= cfg_.resilience.admission_max_delay) {
        admission_[r.client_dc].tokens -= 1.0;  // pre-pay (see start_write)
        r.admitted = true;
        TypedEvent ev = cluster_event(EventKind::kStartRead, this);
        ev.shard = static_cast<std::uint8_t>(st.id);
        ev.u.req.h = {h.slot, h.generation};
        sim_->schedule_event(wait, ev);
        return;
      }
      read_shed(h, wait);
      return;
    }
  }

  const int coord_id = pick_coordinator(r.client_dc, st.rng);
  if (coord_id < 0) {
    // No alive node anywhere: nothing coordinates or serves the read.
    read_unavailable(h, 0);
    return;
  }
  r.coord = static_cast<net::NodeId>(coord_id);
  Node& coord = *nodes_[r.coord];
  const SimDuration coord_delay = coord.service(ServiceKind::kCoordinate, sim_->now());

  r.all_replicas = replicas_for(r.key);
  const ReplicaList ordered = order_for_read(r.coord, r.all_replicas, st.rng);

  const bool local_restricted = !r.needed_per_dc.empty() && !r.each_quorum;
  if (r.each_quorum) {
    r.needed_per_dc.assign(cfg_.dc_count, 0);
    for (std::size_t d = 0; d < cfg_.dc_count; ++d) {
      if (rf_per_dc_[d] > 0) r.needed_per_dc[d] = quorum_of(rf_per_dc_[d]);
    }
  }
  r.got_per_dc.assign(cfg_.dc_count, 0);

  // Choose the contact set among alive replicas.
  DcCounts want_per_dc = r.needed_per_dc;
  int want_global = (r.each_quorum || local_restricted) ? 0 : r.needed;
  for (const net::NodeId n : ordered) {
    if (!node_alive(n)) continue;
    const net::DcId dc = topo_.dc_of(n);
    if (r.each_quorum || local_restricted) {
      if (want_per_dc[dc] > 0) {
        r.contacted.push_back(n);
        --want_per_dc[dc];
      }
    } else if (want_global > 0) {
      r.contacted.push_back(n);
      --want_global;
    }
  }
  bool feasible = want_global == 0;
  if (r.each_quorum || local_restricted) {
    feasible = true;
    for (int w : want_per_dc) {
      if (w > 0) feasible = false;
    }
  }
  if (!feasible || r.contacted.empty()) {
    read_unavailable(h, coord_delay);
    return;
  }
  if (r.each_quorum) {
    r.needed = static_cast<int>(r.contacted.size());
  } else if (local_restricted) {
    r.needed = std::min<int>(r.needed, static_cast<int>(r.contacted.size()));
  }

  const SimTime sent_at = sim_->now() + coord_delay;
  for (std::size_t i = 0; i < r.contacted.size(); ++i) {
    const net::NodeId replica = r.contacted[i];
    const bool data_read = i == 0;  // first (closest) serves data, rest digests
    account(r.coord, replica, kMessageOverheadBytes);
    const SimDuration d = coord_delay + link_delay(r.coord, replica, st.rng);
    // The serve leg may outlive the record (finish_read releases as soon as
    // the read responds), and under sharding it may run on a shard that can
    // never touch the record: key and coordinator travel in the event.
    TypedEvent ev = cluster_event(EventKind::kReadServe, this);
    ev.node = replica;
    ev.flag = data_read ? 1 : 0;
    ev.shard = shard_of(replica);
    ev.u.serve = {{h.slot, h.generation}, sent_at, r.key, r.coord};
    sim_->schedule_event(d, ev);
  }

  r.timeout = sim_->schedule(cfg_.request_timeout,
                             [this, h] { read_timeout(h); });

  // Hedge/retry legs walk the snitch order skipping contacted hosts, so the
  // record keeps the ordering start_read computed anyway. each_quorum reads
  // are excluded: a backup leg in one DC cannot stand in for another DC's
  // missing quorum member.
  const ResilienceConfig& rc = cfg_.resilience;
  if ((rc.hedge_reads || rc.read_retries > 0) && !r.each_quorum) {
    r.snitch_order = ordered;
    if (rc.hedge_reads && next_untried_replica(r) >= 0) {
      r.hedge_timer = sim_->schedule(current_hedge_delay(),
                                     [this, h] { fire_hedge(h); });
    }
  }
}

void Cluster::read_unavailable(ReadHandle h, SimDuration coord_delay) {
  ShardState& st = here();
  PendingRead& r = *st.pending_reads.get(h);
  ++unavailable_;
  account_client(kMessageOverheadBytes, r.cross_origin);
  const SimDuration back =
      coord_delay + client_link_delay(st.rng, r.cross_origin);
  oracle_end_read(r.start);
  // No timeout armed yet; park the record (responded) until delivery.
  r.responded = true;
  r.result = ReadResult{};
  TypedEvent ev = cluster_event(EventKind::kReadDeliver, this);
  ev.shard = static_cast<std::uint8_t>(st.id);
  ev.u.req.h = {h.slot, h.generation};
  sim_->schedule_event(back, ev);
}

// The attempt timeout: with retries left and an untried alive replica, back
// off and go again instead of failing; `timeouts` counts only requests that
// exhaust every attempt (a request rescued later is a retry, not a timeout).
void Cluster::read_timeout(ReadHandle h) {
  ShardState& st = here();
  PendingRead* rp = st.pending_reads.get(h);
  if (rp == nullptr || rp->responded) return;
  PendingRead& r = *rp;
  const ResilienceConfig& rc = cfg_.resilience;
  if (r.attempts <= rc.read_retries && !r.each_quorum &&
      next_untried_replica(r) >= 0) {
    ++retries_;
    const SimDuration backoff =
        rc.retry_backoff * (SimDuration{1} << (r.attempts - 1));
    r.retry_timer = sim_->schedule(backoff, [this, h] { retry_read(h); });
    return;
  }
  ++st.timeouts;
  finish_read(h, false);
}

void Cluster::retry_read(ReadHandle h) {
  ShardState& st = here();
  PendingRead* rp = st.pending_reads.get(h);
  if (rp == nullptr || rp->responded) return;
  PendingRead& r = *rp;
  if (!node_alive(r.coord) || next_untried_replica(r) < 0) {
    // Every candidate — or the coordinator itself — died during the backoff
    // window; the request fails as a timeout (a dead coordinator's in-flight
    // state is gone with it).
    ++st.timeouts;
    finish_read(h, false);
    return;
  }
  ++r.attempts;
  // Contact as many untried hosts as the requirement still lacks (at least
  // one); late responses from earlier attempts keep counting too.
  int want = std::max(1, r.needed - r.responses);
  while (want > 0) {
    const int n = next_untried_replica(r);
    if (n < 0) break;
    send_read_leg(h, static_cast<net::NodeId>(n));
    --want;
  }
  r.timeout = sim_->schedule(cfg_.request_timeout,
                             [this, h] { read_timeout(h); });
}

void Cluster::fire_hedge(ReadHandle h) {
  ShardState& st = here();
  PendingRead* rp = st.pending_reads.get(h);
  if (rp == nullptr || rp->responded) return;
  PendingRead& r = *rp;
  // A dead coordinator cannot send a backup leg; the attempt timeout will
  // sort the request out.
  if (!node_alive(r.coord)) return;
  const int cand = next_untried_replica(r);
  if (cand < 0) return;
  ++hedges_fired_;
  r.hedged = true;
  r.hedge_replica = static_cast<net::NodeId>(cand);
  send_read_leg(h, r.hedge_replica);
}

// Backup-leg host reselection: among untried alive candidates, prefer the
// closest snitch class relative to the coordinator — same-rack, then
// same-DC, then cross-DC (Envoy's retry host-reselection predicate with a
// snitch-class preference). Ties keep snitch-order position. With the
// closest-first snitch the walk order is already class-sorted and the ranked
// scan degenerates to "first untried"; under a shuffle snitch the ranking is
// what keeps retry legs off the WAN while local candidates remain.
int Cluster::next_untried_replica(const PendingRead& r) const {
  const bool local_restricted = !r.needed_per_dc.empty() && !r.each_quorum;
  int best = -1;
  int best_rank = 0;
  for (const net::NodeId n : r.snitch_order) {
    if (!node_alive(n)) continue;
    if (local_restricted && topo_.dc_of(n) != r.client_dc) continue;
    if (std::find(r.contacted.begin(), r.contacted.end(), n) !=
        r.contacted.end()) {
      continue;
    }
    const int rank = static_cast<int>(net::classify(topo_, r.coord, n));
    if (best < 0 || rank < best_rank) {
      best = static_cast<int>(n);
      best_rank = rank;
    }
  }
  return best;
}

// One backup data-read leg (hedge or retry). Data rather than digest: the
// leg must be able to supply the value if the original data read is the one
// that is slow or lost.
void Cluster::send_read_leg(ReadHandle h, net::NodeId replica) {
  ShardState& st = here();
  PendingRead* rp = st.pending_reads.get(h);
  if (rp == nullptr) return;
  PendingRead& r = *rp;
  r.contacted.push_back(replica);
  Node& coord = *nodes_[r.coord];
  const SimDuration coord_delay =
      coord.service(ServiceKind::kCoordinate, sim_->now());
  account(r.coord, replica, kMessageOverheadBytes);
  const SimDuration d = coord_delay + link_delay(r.coord, replica, st.rng);
  TypedEvent ev = cluster_event(EventKind::kReadServe, this);
  ev.node = replica;
  ev.flag = 1;
  ev.shard = shard_of(replica);
  ev.u.serve = {{h.slot, h.generation}, sim_->now() + coord_delay, r.key,
                r.coord};
  sim_->schedule_event(d, ev);
}

void Cluster::observe_read_rtt(SimDuration rtt) {
  hedge_rtt_.record(rtt);
  const std::uint64_t c = hedge_rtt_.count();
  // Recompute the cached quantile every 64 samples (and once warm at 32) so
  // the percentile scan stays off the per-response path.
  if (c == 32 || (c & 63) == 0) {
    hedge_delay_cached_ =
        std::max(cfg_.resilience.hedge_min_delay,
                 hedge_rtt_.percentile(cfg_.resilience.hedge_quantile * 100.0));
  }
}

SimDuration Cluster::admit(net::DcId dc) {
  const ResilienceConfig& rc = cfg_.resilience;
  TokenBucket& b = admission_[dc];
  const SimTime now = sim_->now();
  b.tokens = std::min(rc.admission_burst,
                      b.tokens + static_cast<double>(now - b.last) *
                                     rc.admission_rate / 1e6);
  b.last = now;
  if (b.tokens >= 1.0) {
    b.tokens -= 1.0;
    return 0;
  }
  // Time until the bucket covers one token; doubles as the shed retry-after.
  const double deficit = 1.0 - b.tokens;
  return static_cast<SimDuration>(deficit * 1e6 / rc.admission_rate) + 1;
}

void Cluster::read_shed(ReadHandle h, SimDuration retry_after) {
  ShardState& st = here();
  PendingRead* rp = st.pending_reads.get(h);
  if (rp == nullptr) return;
  PendingRead& r = *rp;
  ++sheds_;
  account_client(kMessageOverheadBytes, r.cross_origin);
  const SimDuration back = client_link_delay(st.rng, r.cross_origin);
  oracle_end_read(r.start);
  // No timeout armed yet; park the record (responded) until delivery.
  r.responded = true;
  r.result = ReadResult{};
  r.result.shed = true;
  r.result.retry_after = retry_after;
  TypedEvent ev = cluster_event(EventKind::kReadDeliver, this);
  ev.shard = static_cast<std::uint8_t>(st.id);
  ev.u.req.h = {h.slot, h.generation};
  sim_->schedule_event(back, ev);
}

void Cluster::replica_serve_read(ReadHandle h, net::NodeId replica,
                                 bool data_read, SimTime sent_at, Key key,
                                 net::NodeId coord) {
  if (!deferred_) {
    // A responded record is only parked for its delivery leg; late serve legs
    // must treat it exactly like the released record they used to find. Under
    // sharding the record may live on a shard this one must not read, so the
    // leg always serves — the response is dropped home-side instead (the
    // store read and accounting happen either way; replica-op counts under
    // shard_count > 1 include these late serves).
    PendingRead* rp = shards_[0]->pending_reads.get(h);
    if (rp == nullptr || rp->responded) return;
  }
  if (!node_alive(replica)) return;  // no response; coordinator timeout handles it
  Node& n = *nodes_[replica];
  const SimDuration svc =
      n.service(data_read ? ServiceKind::kRead : ServiceKind::kDigest, sim_->now());
  ++here().replica_ops;
  TypedEvent ev = cluster_event(EventKind::kReadServed, this);
  ev.node = replica;
  ev.flag = data_read ? 1 : 0;
  ev.shard = shard_of(replica);
  ev.u.served = {{h.slot, h.generation}, sent_at, key, coord};
  sim_->schedule_event(svc, ev);
}

void Cluster::read_serve_done(ReadHandle h, net::NodeId replica, Key key,
                              net::NodeId coord, bool data_read,
                              SimTime sent_at) {
  const auto stored = nodes_[replica]->store().read(key);
  const bool found = stored.has_value();
  const VersionedValue value = found ? *stored : VersionedValue{};
  const std::uint64_t bytes =
      kMessageOverheadBytes +
      (data_read && found ? value.size_bytes : kDigestBytes);
  account(replica, coord, bytes);
  const SimDuration back = link_delay(replica, coord, here().rng);
  TypedEvent ev = cluster_event(EventKind::kReadResponse, this);
  ev.node = replica;
  ev.flag = found ? 1 : 0;
  ev.shard = shard_of(coord);
  // rtt is fully determined here (delivery = now + back), so precompute it
  // instead of carrying sent_at one hop further.
  ev.u.resp = {{h.slot, h.generation},
               value.version.timestamp,
               value.version.seq,
               static_cast<std::uint32_t>(sim_->now() + back - sent_at),
               value.size_bytes};
  sim_->schedule_event(back, ev);
}

void Cluster::read_response(ReadHandle h, net::NodeId replica, bool found,
                            VersionedValue value, SimDuration rtt) {
  ShardState& st = here();
  // Hedge-delay quantile input: every response leg counts, including late
  // ones — the slow tail is exactly what the quantile must see.
  if (cfg_.resilience.hedge_reads) observe_read_rtt(rtt);
  PendingRead* rp = st.pending_reads.get(h);
  // Records parked for delivery (responded) count as gone, as when the
  // closure-lane delivery released them before this late response arrived.
  const bool live = rp != nullptr && !rp->responded;
  if (observer_ != nullptr) {
    // rtt here is service + return hop; add nothing for the request hop since
    // the observer wants replica responsiveness, which this approximates.
    const bool cross = live && !topo_.same_dc(rp->coord, replica);
    observer_replica_read_rtt(replica, rtt, cross);
  }
  if (!live) return;
  PendingRead& r = *rp;

  ++r.responses;
  ++r.got_per_dc[topo_.dc_of(replica)];
  if (found) {
    r.versions_seen.emplace_back(replica, value.version);
    if (!r.found || value.version.newer_than(r.best.version)) r.best = value;
    r.found = true;
  } else {
    r.versions_seen.emplace_back(replica, kNoVersion);
  }

  bool met;
  if (r.each_quorum) {
    met = true;
    for (std::size_t d = 0; d < cfg_.dc_count; ++d) {
      if (r.got_per_dc[d] < (d < r.needed_per_dc.size() ? r.needed_per_dc[d] : 0)) {
        met = false;
      }
    }
  } else {
    met = r.responses >= r.needed;
  }
  if (met) {
    // A hedge "wins" when the backup leg is the response that completes the
    // read — the original slowest leg would have blown the latency budget.
    if (r.hedged && replica == r.hedge_replica) ++hedge_wins_;
    finish_read(h, true);
  }
}

void Cluster::finish_read(ReadHandle h, bool ok) {
  ShardState& st = here();
  PendingRead* rp = st.pending_reads.get(h);
  if (rp == nullptr) return;
  PendingRead& r = *rp;
  r.responded = true;
  r.timeout.cancel();
  r.hedge_timer.cancel();
  r.retry_timer.cancel();

  ReadResult result;
  result.ok = ok;
  result.replicas_contacted = static_cast<int>(r.contacted.size());
  if (ok) {
    result.found = r.found;
    if (r.found) {
      result.version = r.best.version;
      result.value_size = r.best.size_bytes;
    }
    // Read repair, contacted set: bring stale contacted replicas up to date.
    if (r.found) {
      for (const auto& [node_id, seen] : r.versions_seen) {
        if (r.best.version.newer_than(seen)) {
          send_repair(r.coord, node_id, r.key, r.best);
        }
      }
      // Global read repair: with configured chance also push to replicas we
      // did not contact (their versions are unknown; LWW makes it idempotent).
      if (cfg_.read_repair_chance > 0 && st.rng.chance(cfg_.read_repair_chance)) {
        for (const net::NodeId n : r.all_replicas) {
          const bool contacted =
              std::find(r.contacted.begin(), r.contacted.end(), n) !=
              r.contacted.end();
          if (!contacted && node_alive(n)) {
            send_repair(r.coord, n, r.key, r.best);
          }
        }
      }
    }
  }

  account_client(kMessageOverheadBytes +
                     (result.found ? result.value_size : 0),
                 r.cross_origin);
  const SimDuration back = client_link_delay(st.rng, r.cross_origin);
  // Judge now rather than at delivery: any commit recorded between here and
  // the client callback is newer than this read's start, so the judgement is
  // the same either way — and ending the read lets the oracle fold history.
  if (result.ok) {
    oracle_judge_end(r.key, result.found ? result.version : kNoVersion,
                     r.start, &result);
  } else {
    oracle_end_read(r.start);
  }
  // Result and callback wait in the record for the typed delivery leg
  // (responded is set, so late responses leave them alone).
  r.result = result;
  TypedEvent ev = cluster_event(EventKind::kReadDeliver, this);
  ev.shard = static_cast<std::uint8_t>(st.id);
  ev.u.req.h = {h.slot, h.generation};
  sim_->schedule_event(back, ev);
}

void Cluster::read_deliver(ReadHandle h) {
  ShardState& st = here();
  PendingRead* rp = st.pending_reads.get(h);
  if (rp == nullptr) return;
  ReadCallback cb = std::move(rp->cb);
  const ReadResult result = rp->result;
  // Release before invoking: the callback may issue the client's next
  // operation (see write_deliver).
  st.pending_reads.release(h);
  cb(result);
}

void Cluster::send_repair(net::NodeId coord, net::NodeId target, Key key,
                          const VersionedValue& value) {
  ShardState& st = here();
  ++st.read_repairs;
  account(coord, target, kMessageOverheadBytes + value.size_bytes);
  const SimDuration d = link_delay(coord, target, st.rng);
  sim_->schedule_event(d, kv_event(EventKind::kRepairArrive, this, target, key,
                                   value, shard_of(target)));
}

void Cluster::repair_arrive(net::NodeId target, Key key,
                            const VersionedValue& value) {
  if (!node_alive(target)) return;
  Node& n = *nodes_[target];
  const SimDuration svc = n.service(ServiceKind::kWrite, sim_->now());
  ++here().replica_ops;
  sim_->schedule_event(svc, kv_event(EventKind::kRepairApply, this, target,
                                     key, value, shard_of(target)));
}

void Cluster::repair_apply(net::NodeId target, Key key,
                           const VersionedValue& value) {
  nodes_[target]->store().apply(key, value);
}

// ------------------------------------------------------------ deferred oracle

// The staleness oracle is global state with monotonicity contracts, so a
// sharded run cannot call it mid-window. Instead every oracle touch appends
// to the executing shard's live log, stamped with the event's (time, seq).
// Each window barrier seals the live logs; the replay K-way-merges the
// sealed ones in that order — which IS the serial call order (per-shard
// logs are time-sorted by construction, seq streams are disjoint residues
// mod K, so cross-shard ties cannot happen, and every sealed op predates
// every op of the next batch).

void Cluster::oracle_commit(Key key, const Version& version) {
  if (!deferred_) {
    oracle_.record_commit(key, version, sim_->now());
    return;
  }
  // Amortized per-shard log append (vector growth), recycled by the barrier
  // replay; sharded runs only — the alloc-pinned serial request path takes
  // the direct call above (alloc_guard runs unsharded).
  live_logs().oracle.push_back(OracleOp{sim_->now(), sim_->current_seq(), key,
                                       version, 0, OracleOp::Kind::kCommit});
}

void Cluster::oracle_begin_read(SimTime read_start) {
  if (!deferred_) {
    oracle_.begin_read(read_start);
    return;
  }
  // Amortized log append; see oracle_commit.
  live_logs().oracle.push_back(OracleOp{sim_->now(), sim_->current_seq(), 0,
                                       kNoVersion, read_start,
                                       OracleOp::Kind::kBeginRead});
}

void Cluster::oracle_end_read(SimTime read_start) {
  if (!deferred_) {
    oracle_.end_read(read_start);
    return;
  }
  // Amortized log append; see oracle_commit.
  live_logs().oracle.push_back(OracleOp{sim_->now(), sim_->current_seq(), 0,
                                       kNoVersion, read_start,
                                       OracleOp::Kind::kEndRead});
}

void Cluster::oracle_judge_end(Key key, const Version& returned,
                               SimTime read_start, ReadResult* result) {
  if (!deferred_) {
    const auto judgement = oracle_.judge(key, returned, read_start);
    result->stale = judgement.stale;
    result->staleness_age = judgement.age;
    oracle_.end_read(read_start);
    return;
  }
  // The judgement lands at the next barrier — after this result was
  // delivered. ReadResult.stale stays false under shard_count > 1 (a
  // documented restriction); the oracle's aggregate counters remain exact.
  // Amortized log append; see oracle_commit.
  live_logs().oracle.push_back(OracleOp{sim_->now(), sim_->current_seq(), key,
                                       returned, read_start,
                                       OracleOp::Kind::kJudgeEnd});
}

void Cluster::seal_logs(void* ctx, SimTime safe_time) {
  Cluster* c = static_cast<Cluster*>(ctx);
  c->sealed_safe_ = safe_time;
  c->live_log_ ^= 1;
  // Cross-shard aggregates (net_stats) memoize on the barrier epoch: bumping
  // it here invalidates the merged snapshot exactly when per-shard state may
  // have advanced.
  ++c->barrier_epoch_;
}

void Cluster::replay_logs(void* ctx) {
  Cluster* c = static_cast<Cluster*>(ctx);
  c->replay_sealed(&DeferredLogs::oracle,
                   [c](const OracleOp& op) { c->replay_oracle_op(op); });
  c->replay_sealed(&DeferredLogs::monitor,
                   [c](const MonitorOp& op) { c->replay_monitor_op(op); });
}

template <typename Op, typename Apply>
void Cluster::replay_sealed(std::vector<Op> DeferredLogs::*log, Apply apply) {
  // The merge cursors live on this stack, off every line a worker writes.
  struct Head {
    const Op* next;
    const Op* end;
  };
  std::array<Head, 256> heads;  // ShardSet caps the shard count at 255
  const std::size_t n = shards_.size();
  for (std::size_t s = 0; s < n; ++s) {
    const std::vector<Op>& sealed = shards_[s]->logs[live_log_ ^ 1].*log;
    heads[s] = Head{sealed.data(), sealed.data() + sealed.size()};
  }
  for (;;) {
    Head* best = nullptr;
    for (std::size_t s = 0; s < n; ++s) {
      Head& h = heads[s];
      if (h.next == h.end) continue;
      // Strictly-less keeps the lowest shard on (at, seq) ties (only
      // setup-time ops can tie across shards; they carry seq 0).
      if (best == nullptr || h.next->at < best->next->at ||
          (h.next->at == best->next->at && h.next->seq < best->next->seq)) {
        best = &h;
      }
    }
    if (best == nullptr) break;
    const Op& op = *best->next++;
    HARMONY_CHECK_MSG(op.at < sealed_safe_,
                      "a sealed log op is dated at or past its barrier");
    apply(op);
  }
  for (std::size_t s = 0; s < n; ++s) {
    (shards_[s]->logs[live_log_ ^ 1].*log).clear();
  }
}

void Cluster::replay_oracle_op(const OracleOp& op) {
  switch (op.kind) {
    case OracleOp::Kind::kCommit:
      oracle_.record_commit(op.key, op.version, op.at);
      break;
    case OracleOp::Kind::kBeginRead:
      oracle_.begin_read(op.read_start);
      break;
    case OracleOp::Kind::kEndRead:
      oracle_.end_read(op.read_start);
      break;
    case OracleOp::Kind::kJudgeEnd:
      oracle_.judge(op.key, op.version, op.read_start);
      oracle_.end_read(op.read_start);
      break;
  }
}

// ---------------------------------------------------------- deferred observer

// The observer (monitor/monitor.h) couples all six callback kinds through one
// last-event timestamp and one reservoir RNG, so sharded runs cannot invoke
// it mid-window from racing shards. Like the oracle, every observer touch
// appends to the executing shard's live log; the barrier replay
// K-way-merges the sealed logs in (time, seq) order — the serial call
// order — and replays them with the op's own timestamp as `now`.

Cluster::MonitorOp& Cluster::append_monitor_op(MonitorOp::Kind kind) {
  // Amortized per-shard log append (vector growth), recycled by the barrier
  // replay; sharded runs only — unsharded callers dispatch directly.
  auto& log = live_logs().monitor;
  log.emplace_back();
  MonitorOp& op = log.back();
  op.at = sim_->now();
  op.seq = sim_->current_seq();
  op.kind = kind;
  return op;
}

void Cluster::record_read_issued(Key key, SimTime issued_at) {
  if (observer_ == nullptr) return;
  if (!deferred_) {
    observer_->record_read_issued(issued_at, key);
    return;
  }
  MonitorOp& op = append_monitor_op(MonitorOp::Kind::kReadIssued);
  op.key = key;
  op.ts = issued_at;
}

void Cluster::record_write_issued(Key key, std::uint32_t value_size) {
  if (observer_ == nullptr) return;
  if (!deferred_) {
    observer_->record_write_issued(sim_->now(), key, value_size);
    return;
  }
  MonitorOp& op = append_monitor_op(MonitorOp::Kind::kWriteIssued);
  op.key = key;
  op.size = value_size;
}

void Cluster::record_read_complete(SimDuration latency) {
  if (observer_ == nullptr) return;
  if (!deferred_) {
    observer_->record_read_complete(sim_->now(), latency);
    return;
  }
  append_monitor_op(MonitorOp::Kind::kReadComplete).dur = latency;
}

void Cluster::record_write_complete(SimDuration latency) {
  if (observer_ == nullptr) return;
  if (!deferred_) {
    observer_->record_write_complete(sim_->now(), latency);
    return;
  }
  append_monitor_op(MonitorOp::Kind::kWriteComplete).dur = latency;
}

void Cluster::observer_write_propagated(Key key, SimTime write_start,
                                        const DelayList& delays) {
  if (observer_ == nullptr) return;
  if (!deferred_) {
    observer_->on_write_propagated(key, write_start, delays);
    return;
  }
  MonitorOp& op = append_monitor_op(MonitorOp::Kind::kWritePropagated);
  op.key = key;
  op.ts = write_start;
  op.delays = delays;
}

void Cluster::observer_replica_read_rtt(net::NodeId replica, SimDuration rtt,
                                        bool cross_dc) {
  if (observer_ == nullptr) return;
  if (!deferred_) {
    observer_->on_replica_read_rtt(replica, rtt, cross_dc);
    return;
  }
  MonitorOp& op = append_monitor_op(MonitorOp::Kind::kReplicaReadRtt);
  op.replica = replica;
  op.dur = rtt;
  op.cross_dc = cross_dc;
}

void Cluster::replay_monitor_op(const MonitorOp& op) {
  switch (op.kind) {
    case MonitorOp::Kind::kReadIssued:
      observer_->record_read_issued(op.ts, op.key);
      break;
    case MonitorOp::Kind::kWriteIssued:
      observer_->record_write_issued(op.at, op.key, op.size);
      break;
    case MonitorOp::Kind::kReadComplete:
      observer_->record_read_complete(op.at, op.dur);
      break;
    case MonitorOp::Kind::kWriteComplete:
      observer_->record_write_complete(op.at, op.dur);
      break;
    case MonitorOp::Kind::kWritePropagated:
      observer_->on_write_propagated(op.key, op.ts, op.delays);
      break;
    case MonitorOp::Kind::kReplicaReadRtt:
      observer_->on_replica_read_rtt(op.replica, op.dur, op.cross_dc);
      break;
  }
}

// ------------------------------------------------------------ failures

void Cluster::kill_node(net::NodeId id) {
  require_serial("kill_node is serial-only");
  HARMONY_CHECK(id < nodes_.size());
  if (!nodes_[id]->alive()) return;
  nodes_[id]->set_alive(false);
  alive_[id] = 0;
  --alive_per_dc_[topo_.dc_of(id)];
}

void Cluster::revive_node(net::NodeId id) {
  require_serial("revive_node is serial-only");
  HARMONY_CHECK(id < nodes_.size());
  if (nodes_[id]->alive()) return;
  nodes_[id]->set_alive(true);
  alive_[id] = 1;
  ++alive_per_dc_[topo_.dc_of(id)];
  replay_hints(id);
}

void Cluster::kill_dc(net::DcId dc) {
  require_serial("kill_dc is serial-only");
  for (const net::NodeId n : topo_.nodes_in_dc(dc)) kill_node(n);
}

void Cluster::revive_dc(net::DcId dc) {
  require_serial("revive_dc is serial-only");
  for (const net::NodeId n : topo_.nodes_in_dc(dc)) revive_node(n);
}

void Cluster::schedule_fault(const FaultSpec& f) {
  require_serial("schedule_fault is serial-only");
  TypedEvent ev = cluster_event(EventKind::kFault, this);
  ev.node = f.node;
  ev.u.fault = {static_cast<std::uint32_t>(f.op),
                static_cast<std::uint32_t>(f.dc), f.factor};
  sim_->schedule_event_at(f.at, ev);
}

void Cluster::apply_fault(FaultOp op, net::NodeId node, net::DcId dc,
                          double factor) {
  switch (op) {
    case FaultOp::kKillNode:    kill_node(node); break;
    case FaultOp::kReviveNode:  revive_node(node); break;
    case FaultOp::kDcBlackout:  kill_dc(dc); break;
    case FaultOp::kDcRestore:   revive_dc(dc); break;
    case FaultOp::kDegradeNode: set_node_latency_mult(node, factor); break;
    case FaultOp::kRestoreNode: set_node_latency_mult(node, 1.0); break;
    case FaultOp::kDegradeWan:
      wan_mult_ = factor;
      refresh_links_degraded();
      break;
    case FaultOp::kRestoreWan:
      wan_mult_ = 1.0;
      refresh_links_degraded();
      break;
  }
}

void Cluster::set_node_latency_mult(net::NodeId node, double factor) {
  HARMONY_CHECK(node < latency_mult_.size());
  latency_mult_[node] = factor;
  refresh_links_degraded();
}

void Cluster::refresh_links_degraded() {
  links_degraded_ = wan_mult_ != 1.0;
  for (const double m : latency_mult_) {
    if (m != 1.0) {
      links_degraded_ = true;
      break;
    }
  }
}

void Cluster::replay_hints(net::NodeId target) {
  // Paced replay: one mutation per 200us, as a hint queue drain would be.
  SimDuration delay = 0;
  const auto pending = hints_.take(target);
  for (const auto& h : pending) {
    delay += usec(200);
    account(target, target, kMessageOverheadBytes + h.value.size_bytes);
    sim_->schedule_event(delay, kv_event(EventKind::kHintDeliver, this, target,
                                         h.key, h.value, shard_of(target)));
  }
}

void Cluster::hint_deliver(net::NodeId target, Key key,
                           const VersionedValue& value) {
  if (!node_alive(target)) {
    hints_.add(target, key, value);  // went down again: re-hint
    return;
  }
  Node& n = *nodes_[target];
  n.service(ServiceKind::kWrite, sim_->now());
  ++here().replica_ops;
  n.store().apply(key, value);
}

void Cluster::anti_entropy_sweep() {
  // Repair the keys written since the last sweep: compare every replica's
  // stored version and push the newest to stragglers. Messaging costs are
  // charged like regular repairs (digest per replica + repair writes).
  std::size_t repaired = 0;
  // lint: allow(determinism-unordered-iter): order is stdlib-dependent but
  // fixed for a given build+insertion sequence, and the diff harness pins it
  // byte-for-byte.
  auto it = dirty_keys_.begin();
  while (it != dirty_keys_.end() &&
         repaired < cfg_.anti_entropy_keys_per_round) {
    const Key key = *it;
    it = dirty_keys_.erase(it);
    ++repaired;

    const ReplicaList& replicas = replicas_for(key);
    Version newest = kNoVersion;
    std::uint32_t newest_size = 0;
    for (const net::NodeId r : replicas) {
      if (!nodes_[r]->alive()) continue;
      const auto v = nodes_[r]->store().read(key);
      ++here().replica_ops;
      account(replicas.front(), r, kMessageOverheadBytes + kDigestBytes);
      if (v.has_value() && v->version.newer_than(newest)) {
        newest = v->version;
        newest_size = v->size_bytes;
      }
    }
    if (newest == kNoVersion) continue;
    for (const net::NodeId r : replicas) {
      if (!nodes_[r]->alive()) continue;
      const auto v = nodes_[r]->store().read(key);
      if (!v.has_value() || newest.newer_than(v->version)) {
        ++anti_entropy_repairs_;
        send_repair(replicas.front(), r, key,
                    VersionedValue{newest, newest_size});
      }
    }
  }
  // Budget-deferred keys keep the sweep scheduled; otherwise the next dirty
  // write schedules it.
  anti_entropy_scheduled_ = !dirty_keys_.empty();
  if (anti_entropy_scheduled_) {
    sim_->schedule_event(cfg_.anti_entropy_period,
                         cluster_event(EventKind::kAntiEntropySweep, this));
  }
}

// ------------------------------------------------------------ typed dispatch

void Cluster::dispatch_event(const sim::TypedEvent& ev) {
  Cluster* c = static_cast<Cluster*>(ev.target);
  switch (ev.kind) {
    case EventKind::kStartWrite:
      c->start_write({ev.u.req.h.slot, ev.u.req.h.gen});
      break;
    case EventKind::kWriteApply:
      c->replica_apply_write({ev.u.req.h.slot, ev.u.req.h.gen}, ev.node,
                             ev.home);
      break;
    case EventKind::kWriteApplied:
      c->write_apply_done({ev.u.req.h.slot, ev.u.req.h.gen}, ev.node, ev.home);
      break;
    case EventKind::kWriteAck:
      c->write_ack({ev.u.ack.h.slot, ev.u.ack.h.gen}, ev.node,
                   ev.u.ack.apply_delay);
      break;
    case EventKind::kStartRead:
      c->start_read({ev.u.req.h.slot, ev.u.req.h.gen});
      break;
    case EventKind::kReadServe:
      c->replica_serve_read({ev.u.serve.h.slot, ev.u.serve.h.gen}, ev.node,
                            ev.flag != 0, ev.u.serve.sent_at, ev.u.serve.key,
                            ev.u.serve.coord);
      break;
    case EventKind::kReadServed:
      c->read_serve_done({ev.u.served.h.slot, ev.u.served.h.gen}, ev.node,
                         ev.u.served.key, ev.u.served.coord, ev.flag != 0,
                         ev.u.served.sent_at);
      break;
    case EventKind::kReadResponse:
      c->read_response(
          {ev.u.resp.h.slot, ev.u.resp.h.gen}, ev.node, ev.flag != 0,
          VersionedValue{Version{ev.u.resp.version_ts, ev.u.resp.version_seq},
                         ev.u.resp.size},
          static_cast<SimDuration>(ev.u.resp.rtt_us));
      break;
    case EventKind::kWriteDeliver:
      c->write_deliver({ev.u.req.h.slot, ev.u.req.h.gen});
      break;
    case EventKind::kReadDeliver:
      c->read_deliver({ev.u.req.h.slot, ev.u.req.h.gen});
      break;
    case EventKind::kRepairArrive:
      c->repair_arrive(
          ev.node, ev.u.kv.key,
          VersionedValue{Version{ev.u.kv.version_ts, ev.u.kv.version_seq},
                         ev.u.kv.size});
      break;
    case EventKind::kRepairApply:
      c->repair_apply(
          ev.node, ev.u.kv.key,
          VersionedValue{Version{ev.u.kv.version_ts, ev.u.kv.version_seq},
                         ev.u.kv.size});
      break;
    case EventKind::kHintDeliver:
      c->hint_deliver(
          ev.node, ev.u.kv.key,
          VersionedValue{Version{ev.u.kv.version_ts, ev.u.kv.version_seq},
                         ev.u.kv.size});
      break;
    case EventKind::kAntiEntropySweep:
      c->anti_entropy_sweep();
      break;
    case EventKind::kFault:
      c->apply_fault(static_cast<FaultOp>(ev.u.fault.op), ev.node,
                     static_cast<net::DcId>(ev.u.fault.dc), ev.u.fault.factor);
      break;
    default:
      HARMONY_CHECK_MSG(false, "unknown cluster event kind");
  }
}

std::size_t Cluster::alive_count() const {
  std::size_t n = 0;
  for (const auto& node : nodes_) {
    if (node->alive()) ++n;
  }
  return n;
}

// ------------------------------------------------------------ accounting

std::uint64_t Cluster::storage_bytes() const {
  std::uint64_t total = preload_bytes_;
  for (const auto& n : nodes_) total += n->store().stored_bytes();
  return total;
}

SimDuration Cluster::total_busy_time() const {
  SimDuration total = 0;
  for (const auto& n : nodes_) total += n->busy_time();
  return total;
}

double Cluster::disk_io() const {
  double total = 0;
  for (const auto& n : nodes_) total += n->disk_io();
  return total;
}

}  // namespace harmony::cluster
