// Kernel-level tests for sharded parallel execution (sim/shard.h).
//
// The cluster-level differential harness (test_request_path_diff.cpp) proves
// the end-to-end determinism contract on real traffic; this binary pins the
// executor mechanics in isolation, where each failure mode has exactly one
// cause:
//
//   * Mailbox slab/spill behavior and stamped drain order;
//   * cross-shard events scheduled at *exactly* the lookahead bound — the
//     tightest send the conservative window protocol admits;
//   * interleaved per-shard seq streams reproducing the serial merge order
//     bit for bit at 1, 2, and 4 worker threads;
//   * fence instants running merged-serial (cross-shard mutation is safe);
//   * barrier-hook safe-time monotonicity;
//   * shards with zero events neither stalling nor perturbing the run;
//   * the window handoff's park path (a barrier hook or a shard slow enough
//     to outlast the spin budget) and an 8-shard x 8-thread plan;
//   * a failed check on any thread surfacing as a catchable CheckError.
//
// Built as its own binary so CI's TSan job can exercise the window handoff,
// mailbox hand-off, and fence protocol under the race detector directly.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "alloc_guard.h"
#include "common/check.h"
#include "common/time_types.h"
#include "sim/event.h"
#include "sim/event_queue.h"
#include "sim/shard.h"
#include "sim/simulation.h"

namespace harmony::sim {
namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  h *= 1099511628211ULL;  // FNV-1a prime
  return h;
}
constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// `rounds` dependent splitmix steps: deterministic busy work.
std::uint64_t burn(std::uint64_t x, std::uint64_t rounds) {
  for (std::uint64_t i = 0; i < rounds; ++i) x = splitmix(x);
  return x;
}

// ------------------------------------------------------------------ Mailbox

TEST(Mailbox, SlabThenSpillCountsBackpressureAndDrainsInOrder) {
  Mailbox m;
  m.configure(2);

  TypedEvent ev;
  ev.kind = EventKind::kUserProbe;
  ev.u.raw[0] = 1;
  m.push(500, 7, ev);
  ev.u.raw[0] = 2;
  m.push(300, 4, ev);
  EXPECT_EQ(m.spills(), 0u);  // both fit the slab
  ev.u.raw[0] = 3;
  m.push(300, 1, ev);  // capacity exceeded: spills, still delivered
  EXPECT_EQ(m.spills(), 1u);
  EXPECT_FALSE(m.empty());

  EventQueue q;
  m.drain_into(q);
  EXPECT_TRUE(m.empty());

  // Pop order is (time, seq) regardless of push or slab-vs-spill order: the
  // seqs were stamped by the sender, the heap re-sorts on drain.
  std::vector<std::uint64_t> popped;
  while (q.run_before(
             1000, [](SimTime, std::uint64_t) {},
             [&popped](const TypedEvent& e) {
               popped.push_back(e.u.raw[0]);
             }) == EventQueue::PopResult::kEvent) {
  }
  ASSERT_EQ(popped.size(), 3u);
  EXPECT_EQ(popped[0], 3u);  // (300, 1)
  EXPECT_EQ(popped[1], 2u);  // (300, 4)
  EXPECT_EQ(popped[2], 1u);  // (500, 7)

  // The spill vector is cleared by the drain: the next overflow starts a
  // fresh round (the counter keeps accumulating).
  m.push(100, 1, ev);
  m.push(100, 2, ev);
  m.push(100, 3, ev);
  EXPECT_EQ(m.spills(), 2u);
}

TEST(Mailbox, SteadyStatePushAndDrainAreAllocationFree) {
  // The cross-shard hand-off contract: within the configured capacity, a
  // full window of pushes plus the barrier drain touches the heap exactly
  // zero times. Only the overflow (spill) path may allocate, and it is
  // counted as backpressure.
  constexpr std::uint32_t kCapacity = 64;
  Mailbox m;
  m.configure(kCapacity);

  TypedEvent ev;
  ev.kind = EventKind::kUserProbe;

  // Warm the destination heap past the high-water mark the drain will hit
  // (heap slabs grow on push and keep their capacity after draining).
  EventQueue q;
  for (std::uint32_t i = 0; i < kCapacity; ++i)
    q.push_typed_stamped(static_cast<SimTime>(i), i, ev);
  std::uint32_t popped = 0;
  while (q.run_before(
             std::numeric_limits<SimTime>::max(),
             [](SimTime, std::uint64_t) {},
             [&popped](const TypedEvent&) { ++popped; }) ==
         EventQueue::PopResult::kEvent) {
  }
  ASSERT_EQ(popped, kCapacity);

  // Steady state: fill the slab, drain at the barrier, pop it all back out.
  const harmony::testing::AllocGuard guard;
  for (std::uint32_t i = 0; i < kCapacity; ++i)
    m.push(static_cast<SimTime>(100 + i), i, ev);
  EXPECT_EQ(m.spills(), 0u);
  m.drain_into(q);
  EXPECT_TRUE(m.empty());
  popped = 0;
  while (q.run_before(
             std::numeric_limits<SimTime>::max(),
             [](SimTime, std::uint64_t) {},
             [&popped](const TypedEvent&) { ++popped; }) ==
         EventQueue::PopResult::kEvent) {
  }
  EXPECT_EQ(popped, kCapacity);
  EXPECT_EQ(guard.allocations(), 0u)
      << "mailbox slab push / stamped drain / heap pop must stay off the heap";

  // One past capacity is the spill path: counted, delivered, and the only
  // place the mailbox is allowed to allocate.
  for (std::uint32_t i = 0; i < kCapacity + 1; ++i)
    m.push(static_cast<SimTime>(200 + i), kCapacity + i, ev);
  EXPECT_EQ(m.spills(), 1u);
}

// ------------------------------------------- deterministic ping-pong probe

/// User-domain probe harness: every event appends to its executing shard's
/// stream (shard-local, so recording is race-free under parallel windows)
/// and deterministically schedules follow-up events from its payload —
/// same-shard at sub-lookahead delays, cross-shard at >= lookahead.
struct ShardProbe {
  struct alignas(64) PerShard {
    std::uint64_t fp = kFnvOffset;
    std::uint64_t events = 0;
  };

  Simulation* sim = nullptr;
  std::array<PerShard, 8> per_shard{};
  std::uint32_t shard_count = 1;
  SimDuration lookahead = 0;
  /// Every event on the last shard burns this many splitmix rounds, so that
  /// shard's worker finishes long after the others (which then park).
  std::uint64_t last_shard_burn = 0;

  static void dispatch(const TypedEvent& ev) {
    static_cast<ShardProbe*>(ev.target)->on_event(ev);
  }

  void on_event(const TypedEvent& ev) {
    const std::uint32_t s = sim->current_shard();
    PerShard& ps = per_shard[s];
    const std::uint64_t state = ev.u.raw[0];
    const std::uint64_t hops = ev.u.raw[1];
    ps.fp = mix(ps.fp, static_cast<std::uint64_t>(sim->now()));
    ps.fp = mix(ps.fp, state);
    if (s + 1 == shard_count) ps.fp = mix(ps.fp, burn(state, last_shard_burn));
    ++ps.events;
    if (hops == 0) return;

    const std::uint64_t next = splitmix(state);
    const auto dest = static_cast<std::uint32_t>(next % shard_count);
    TypedEvent out;
    out.kind = EventKind::kUserProbe;
    out.shard = static_cast<std::uint8_t>(dest);
    out.target = this;
    out.u.raw[0] = next;
    out.u.raw[1] = hops - 1;
    // Cross-shard sends must respect the lookahead; same-shard sends may be
    // arbitrarily tight (including zero delay).
    const SimDuration jitter =
        static_cast<SimDuration>((next >> 8) % static_cast<std::uint64_t>(
                                                   lookahead));
    const SimDuration delay = dest == s ? jitter : lookahead + jitter;
    sim->schedule_event(delay, out);
  }

  std::uint64_t fingerprint() const {
    std::uint64_t fp = kFnvOffset;
    for (const PerShard& ps : per_shard) {
      fp = mix(fp, ps.fp);
      fp = mix(fp, ps.events);
    }
    return fp;
  }
};

/// Extra deterministic work that makes one side of the window handoff wait
/// past its spin budget. Zero = none.
struct ProbeLoad {
  std::uint64_t hook_burn = 0;        ///< splitmix rounds per barrier hook call
  std::uint64_t last_shard_burn = 0;  ///< see ShardProbe::last_shard_burn
};

/// Barrier hook that burns `rounds` splitmix rounds per call while the
/// workers wait for the next window; the result feeds the fingerprint.
struct BurnHook {
  std::uint64_t rounds = 0;
  std::uint64_t acc = kFnvOffset;

  static void call(void* ctx, SimTime safe) {
    auto* h = static_cast<BurnHook*>(ctx);
    h->acc = mix(h->acc, burn(static_cast<std::uint64_t>(safe), h->rounds));
  }
};

/// Run one probe scenario: K shards, `chains` seed events per shard, `hops`
/// follow-ups each. Returns {fingerprint, events_processed, end_time,
/// windows}.
struct ProbeResult {
  std::uint64_t fp = 0;
  std::uint64_t events = 0;
  SimTime end_time = 0;
  std::uint64_t windows = 0;
};

ProbeResult run_probe(std::uint32_t shards, unsigned threads,
                      std::uint32_t mailbox_capacity, int chains, int hops,
                      bool fence = false, const ProbeLoad& load = {}) {
  constexpr SimDuration kLookahead = 1000;
  Simulation sim(42);
  sim.configure_shards(shards, kLookahead, threads, mailbox_capacity);
  sim.set_event_dispatcher(EventDomain::kUser, &ShardProbe::dispatch);
  BurnHook hook;
  hook.rounds = load.hook_burn;
  if (load.hook_burn > 0) sim.set_barrier_hook(&BurnHook::call, &hook);

  ShardProbe probe;
  probe.sim = &sim;
  probe.shard_count = shards;
  probe.lookahead = kLookahead;
  probe.last_shard_burn = load.last_shard_burn;

  for (std::uint32_t s = 0; s < shards; ++s) {
    sim.set_setup_shard(s);
    for (int i = 0; i < chains; ++i) {
      TypedEvent ev;
      ev.kind = EventKind::kUserProbe;
      ev.shard = static_cast<std::uint8_t>(s);
      ev.target = &probe;
      ev.u.raw[0] = splitmix(s * 1000 + static_cast<std::uint64_t>(i));
      ev.u.raw[1] = static_cast<std::uint64_t>(hops);
      sim.schedule_event_at(static_cast<SimTime>(1 + (ev.u.raw[0] % 5000)),
                            ev);
    }
  }
  sim.set_setup_shard(0);
  if (fence) {
    // Not a lookahead multiple: windows must split on it mid-stride.
    sim.register_fence(4321);
    sim.register_fence(12345);
  }

  sim.run();

  ProbeResult out;
  out.fp = mix(probe.fingerprint(), hook.acc);
  out.events = sim.events_processed();
  out.end_time = sim.now();
  out.windows = sim.shard_windows();
  return out;
}

TEST(ShardSet, InterleavedStreamsReproduceSerialMergeAcrossThreadCounts) {
  const ProbeResult serial = run_probe(3, 1, 64, 16, 40);
  EXPECT_GT(serial.events, 0u);
  for (const unsigned threads : {2u, 4u}) {
    const ProbeResult par = run_probe(3, threads, 64, 16, 40);
    EXPECT_EQ(serial.fp, par.fp) << "threads " << threads;
    EXPECT_EQ(serial.events, par.events) << "threads " << threads;
    EXPECT_EQ(serial.end_time, par.end_time) << "threads " << threads;
    EXPECT_EQ(serial.windows, par.windows) << "threads " << threads;
  }
}

TEST(ShardSet, EightShardsOnEightThreadsReproduceSerialMerge) {
  const ProbeResult serial = run_probe(8, 1, 64, 16, 40);
  EXPECT_GT(serial.windows, 0u);
  for (const unsigned threads : {2u, 4u, 8u}) {
    const ProbeResult par = run_probe(8, threads, 64, 16, 40);
    EXPECT_EQ(serial.fp, par.fp) << "threads " << threads;
    EXPECT_EQ(serial.events, par.events) << "threads " << threads;
    EXPECT_EQ(serial.end_time, par.end_time) << "threads " << threads;
    EXPECT_EQ(serial.windows, par.windows) << "threads " << threads;
  }
}

// Each call below burns far longer than the handoff's spin phase (about a
// millisecond against tens of microseconds of pause and yield), so waiters
// must park in std::atomic::wait and be woken.
constexpr std::uint64_t kParkBurn = 1u << 18;

TEST(ShardSet, SlowBarrierHookParksWorkersWithoutChangingTheMerge) {
  // Workers wait for the next epoch while the control thread runs the hook.
  ProbeLoad load;
  load.hook_burn = kParkBurn;
  const ProbeResult serial = run_probe(4, 1, 64, 4, 12, false, load);
  for (const unsigned threads : {2u, 4u}) {
    const ProbeResult par = run_probe(4, threads, 64, 4, 12, false, load);
    EXPECT_EQ(serial.fp, par.fp) << "threads " << threads;
    EXPECT_EQ(serial.events, par.events) << "threads " << threads;
    EXPECT_EQ(serial.windows, par.windows) << "threads " << threads;
  }
}

TEST(ShardSet, SlowShardParksTheControlThreadWithoutChangingTheMerge) {
  // The control thread (slice 0) waits for the arrival of the worker that
  // owns the slow last shard.
  ProbeLoad load;
  load.last_shard_burn = kParkBurn / 4;
  const ProbeResult serial = run_probe(4, 1, 64, 4, 12, false, load);
  for (const unsigned threads : {2u, 4u}) {
    const ProbeResult par = run_probe(4, threads, 64, 4, 12, false, load);
    EXPECT_EQ(serial.fp, par.fp) << "threads " << threads;
    EXPECT_EQ(serial.events, par.events) << "threads " << threads;
    EXPECT_EQ(serial.windows, par.windows) << "threads " << threads;
  }
}

TEST(ShardSet, TinyMailboxSpillsPreserveOrder) {
  const ProbeResult serial = run_probe(3, 1, 1, 16, 40);
  for (const unsigned threads : {2u, 4u}) {
    const ProbeResult par = run_probe(3, threads, 1, 16, 40);
    EXPECT_EQ(serial.fp, par.fp) << "threads " << threads;
    EXPECT_EQ(serial.events, par.events) << "threads " << threads;
  }
}

TEST(ShardSet, FencesSplitWindowsWithoutChangingTheMerge) {
  const ProbeResult plain = run_probe(3, 1, 16, 16, 40, /*fence=*/false);
  const ProbeResult fenced = run_probe(3, 1, 16, 16, 40, /*fence=*/true);
  // Fences affect scheduling of windows, never the event merge itself.
  EXPECT_EQ(plain.fp, fenced.fp);
  for (const unsigned threads : {2u, 4u}) {
    const ProbeResult par = run_probe(3, threads, 16, 16, 40, /*fence=*/true);
    EXPECT_EQ(fenced.fp, par.fp) << "threads " << threads;
    EXPECT_EQ(fenced.events, par.events) << "threads " << threads;
  }
}

TEST(ShardSet, EmptyShardNeitherStallsNorPerturbs) {
  // Shard 2 never receives an event: seed chains only on shards 0 and 1 and
  // pin every hop to the sender's shard (shard_count fed to the probe stays
  // 2, so `next % shard_count` never routes to 2).
  constexpr SimDuration kLookahead = 1000;
  auto run = [&](unsigned threads) {
    Simulation sim(7);
    sim.configure_shards(3, kLookahead, threads, 64);
    sim.set_event_dispatcher(EventDomain::kUser, &ShardProbe::dispatch);
    ShardProbe probe;
    probe.sim = &sim;
    probe.shard_count = 2;  // destinations drawn from {0, 1} only
    probe.lookahead = kLookahead;
    for (std::uint32_t s = 0; s < 2; ++s) {
      sim.set_setup_shard(s);
      for (int i = 0; i < 8; ++i) {
        TypedEvent ev;
        ev.kind = EventKind::kUserProbe;
        ev.shard = static_cast<std::uint8_t>(s);
        ev.target = &probe;
        ev.u.raw[0] = splitmix(s * 100 + static_cast<std::uint64_t>(i));
        ev.u.raw[1] = 30;
        sim.schedule_event_at(static_cast<SimTime>(1 + i), ev);
      }
    }
    sim.set_setup_shard(0);
    sim.run();
    EXPECT_EQ(probe.per_shard[2].events, 0u);
    return std::pair{probe.fingerprint(), sim.events_processed()};
  };
  const auto serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(4));
}

TEST(ShardSet, GroupedPlanReproducesSerialMergeAcrossThreadCounts) {
  // The grouped configure_shards overload — a group (DC) -> shard-count plan,
  // the substrate of key-range sharding. The kernel is layout-agnostic: it
  // records the plan for the cluster's ShardMap and runs the total as one
  // flat shard set, so a {3, 1} plan (4 shards, uneven groups) must produce
  // the same windowed merge at every thread count, probe traffic crossing
  // group boundaries and all.
  constexpr SimDuration kLookahead = 1000;
  auto run = [&](unsigned threads) {
    Simulation sim(42);
    sim.configure_shards({3, 1}, kLookahead, threads, 64);
    EXPECT_EQ(sim.shard_count(), 4u);
    EXPECT_EQ(sim.shard_plan(), (std::vector<std::uint32_t>{3, 1}));
    sim.set_event_dispatcher(EventDomain::kUser, &ShardProbe::dispatch);
    ShardProbe probe;
    probe.sim = &sim;
    probe.shard_count = 4;
    probe.lookahead = kLookahead;
    for (std::uint32_t s = 0; s < 4; ++s) {
      sim.set_setup_shard(s);
      for (int i = 0; i < 12; ++i) {
        TypedEvent ev;
        ev.kind = EventKind::kUserProbe;
        ev.shard = static_cast<std::uint8_t>(s);
        ev.target = &probe;
        ev.u.raw[0] = splitmix(s * 1000 + static_cast<std::uint64_t>(i));
        ev.u.raw[1] = 40;
        sim.schedule_event_at(static_cast<SimTime>(1 + (ev.u.raw[0] % 5000)),
                              ev);
      }
    }
    sim.set_setup_shard(0);
    sim.run();
    return std::pair{probe.fingerprint(), sim.events_processed()};
  };
  const auto serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(4));
}

// ------------------------------------------- exact-lookahead boundary sends

/// Probe whose every hop is cross-shard at *exactly* the lookahead delay —
/// the tightest send the conservative protocol admits. When the sender
/// dispatches at the very first instant of a window [W, W + L), the
/// destination time W + L equals window_end_: the route CHECK must accept it
/// (>= window_end_), and the merge must still be bit-identical to serial.
struct BoundaryProbe {
  struct alignas(64) PerShard {
    std::uint64_t fp = kFnvOffset;
    std::uint64_t events = 0;
  };

  Simulation* sim = nullptr;
  std::array<PerShard, 4> per_shard{};
  SimDuration lookahead = 0;

  static void dispatch(const TypedEvent& ev) {
    auto* p = static_cast<BoundaryProbe*>(ev.target);
    const std::uint32_t s = p->sim->current_shard();
    PerShard& ps = p->per_shard[s];
    ps.fp = mix(ps.fp, static_cast<std::uint64_t>(p->sim->now()));
    ps.fp = mix(ps.fp, ev.u.raw[0]);
    ++ps.events;
    if (ev.u.raw[1] == 0) return;
    TypedEvent out = ev;
    out.shard = static_cast<std::uint8_t>(1 - s);  // always cross-shard
    out.u.raw[0] = splitmix(ev.u.raw[0]);
    out.u.raw[1] = ev.u.raw[1] - 1;
    p->sim->schedule_event(p->lookahead, out);  // exactly the bound
  }
};

TEST(ShardSet, CrossShardSendAtExactLookaheadBoundary) {
  constexpr SimDuration kLookahead = 1000;
  auto run = [&](unsigned threads) {
    Simulation sim(3);
    sim.configure_shards(2, kLookahead, threads, 16);
    sim.set_event_dispatcher(EventDomain::kUser, &BoundaryProbe::dispatch);
    BoundaryProbe probe;
    probe.sim = &sim;
    probe.lookahead = kLookahead;
    // Several chains with staggered phases: some start exactly at a window
    // origin (offset 0 — the when == window_end_ edge), some mid-window.
    sim.set_setup_shard(0);
    for (int i = 0; i < 6; ++i) {
      TypedEvent ev;
      ev.kind = EventKind::kUserProbe;
      ev.shard = 0;
      ev.target = &probe;
      ev.u.raw[0] = splitmix(static_cast<std::uint64_t>(i));
      ev.u.raw[1] = 50;
      sim.schedule_event_at(static_cast<SimTime>(i * 400), ev);
    }
    sim.run();
    std::uint64_t fp = kFnvOffset;
    for (const auto& ps : probe.per_shard) {
      fp = mix(fp, ps.fp);
      fp = mix(fp, ps.events);
    }
    return std::pair{fp, sim.events_processed()};
  };
  const auto serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(4));
}

// ------------------------------------------------------------------- fences

/// Events at a fenced instant run merged-serial on the control thread, so
/// mutating state shared by every shard is legal exactly there. The log's
/// append order must equal the global (time, seq) order.
struct FenceProbe {
  Simulation* sim = nullptr;
  std::vector<std::uint64_t> log;  // shared: only touched at the fence

  static void dispatch(const TypedEvent& ev) {
    auto* p = static_cast<FenceProbe*>(ev.target);
    p->log.push_back(ev.u.raw[0]);
  }
};

TEST(ShardSet, FenceInstantRunsMergedSerialAcrossShards) {
  constexpr SimTime kFenceAt = 5000;
  auto run = [&](unsigned threads) {
    Simulation sim(9);
    sim.configure_shards(3, 1000, threads, 16);
    sim.set_event_dispatcher(EventDomain::kUser, &FenceProbe::dispatch);
    FenceProbe probe;
    probe.sim = &sim;
    sim.register_fence(kFenceAt);
    // Three events per shard, all at the fence instant, tagged so the
    // expected merge order (by the interleaved seq streams) is checkable.
    for (std::uint32_t s = 0; s < 3; ++s) {
      sim.set_setup_shard(s);
      for (int i = 0; i < 3; ++i) {
        TypedEvent ev;
        ev.kind = EventKind::kUserProbe;
        ev.shard = static_cast<std::uint8_t>(s);
        ev.target = &probe;
        ev.u.raw[0] = s * 10 + static_cast<std::uint64_t>(i);
        sim.schedule_event_at(kFenceAt, ev);
      }
    }
    sim.set_setup_shard(0);
    sim.run();
    return probe.log;
  };
  const std::vector<std::uint64_t> serial = run(1);
  ASSERT_EQ(serial.size(), 9u);
  // Same instant, so order is by seq: shard s draws s, s+3, s+6, ... and each
  // shard's three events were booked consecutively — the merge interleaves
  // them shard-by-shard per round.
  const std::vector<std::uint64_t> expected = {0, 10, 20, 1, 11, 21,
                                               2, 12, 22};
  EXPECT_EQ(serial, expected);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(4));
}

// ------------------------------------------------------------- barrier hook

struct HookLog {
  std::vector<SimTime> safes;
};

TEST(ShardSet, BarrierHookSafeTimeIsMonotoneAndFinalCallIsSentinel) {
  Simulation sim(5);
  sim.configure_shards(2, 1000, 2, 16);
  sim.set_event_dispatcher(EventDomain::kUser, &ShardProbe::dispatch);
  HookLog log;
  sim.set_barrier_hook(
      [](void* ctx, SimTime safe) {
        static_cast<HookLog*>(ctx)->safes.push_back(safe);
      },
      &log);

  ShardProbe probe;
  probe.sim = &sim;
  probe.shard_count = 2;
  probe.lookahead = 1000;
  sim.set_setup_shard(0);
  TypedEvent ev;
  ev.kind = EventKind::kUserProbe;
  ev.shard = 0;
  ev.target = &probe;
  ev.u.raw[0] = 1234;
  ev.u.raw[1] = 20;
  sim.schedule_event_at(1, ev);
  sim.run();

  ASSERT_GE(log.safes.size(), 2u);
  for (std::size_t i = 1; i + 1 < log.safes.size(); ++i) {
    EXPECT_LE(log.safes[i - 1], log.safes[i]) << "at " << i;
  }
  // The final flush reports "everything executed": the sentinel max value.
  EXPECT_EQ(log.safes.back(), std::numeric_limits<SimTime>::max());
}

// ------------------------------------------------------------ failed checks

/// Local chains of hops on every shard; on `bad_shard`, the hop that reaches
/// `hops_left == bad_hop` also sends a cross-shard event *inside* the
/// lookahead window, a schedule-site bug route_event must reject.
struct EarlySendProbe {
  Simulation* sim = nullptr;
  std::uint32_t shard_count = 1;
  std::uint32_t bad_shard = 0;
  std::uint64_t bad_hop = 0;
  SimDuration lookahead = 0;

  static void dispatch(const TypedEvent& ev) {
    auto* p = static_cast<EarlySendProbe*>(ev.target);
    const std::uint32_t s = p->sim->current_shard();
    const std::uint64_t hops_left = ev.u.raw[1];
    if (hops_left == 0) return;
    TypedEvent out = ev;
    out.u.raw[1] = hops_left - 1;
    p->sim->schedule_event(p->lookahead / 3, out);  // same shard: legal
    if (s == p->bad_shard && hops_left == p->bad_hop) {
      out.shard = static_cast<std::uint8_t>((s + 1) % p->shard_count);
      p->sim->schedule_event(p->lookahead / 2, out);
    }
  }
};

void run_early_send(unsigned threads, std::uint32_t bad_shard) {
  constexpr std::uint32_t kShards = 4;
  constexpr SimDuration kLookahead = 1000;
  Simulation sim(11);
  sim.configure_shards(kShards, kLookahead, threads, 16);
  sim.set_event_dispatcher(EventDomain::kUser, &EarlySendProbe::dispatch);
  EarlySendProbe probe;
  probe.sim = &sim;
  probe.shard_count = kShards;
  probe.bad_shard = bad_shard;
  probe.bad_hop = 20;  // well past the first window
  probe.lookahead = kLookahead;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    sim.set_setup_shard(s);
    TypedEvent ev;
    ev.kind = EventKind::kUserProbe;
    ev.shard = static_cast<std::uint8_t>(s);
    ev.target = &probe;
    ev.u.raw[1] = 40;
    sim.schedule_event_at(1, ev);
  }
  sim.set_setup_shard(0);
  sim.run();
}

TEST(ShardSet, CrossShardSendInsideWindowThrowsCheckErrorOnAnyThread) {
  // Shard 0 runs on the control thread; the last shard runs on a worker at
  // 2 and 4 threads and merged-serial at 1. Every case must surface as a
  // catchable CheckError on the calling thread, with the workers joined.
  for (const std::uint32_t bad_shard : {0u, 3u}) {
    for (const unsigned threads : {1u, 2u, 4u}) {
      EXPECT_THROW(run_early_send(threads, bad_shard), CheckError)
          << "bad shard " << bad_shard << ", threads " << threads;
    }
  }
}

TEST(ShardSet, CheckFailingInBarrierHookThrowsCheckError) {
  // The hook runs on the control thread between windows, while the workers
  // wait for the next epoch.
  for (const unsigned threads : {1u, 2u, 4u}) {
    Simulation sim(5);
    sim.configure_shards(4, 1000, threads, 16);
    sim.set_event_dispatcher(EventDomain::kUser, &ShardProbe::dispatch);
    int calls = 0;
    sim.set_barrier_hook(
        [](void* ctx, SimTime) {
          HARMONY_CHECK_MSG(++*static_cast<int*>(ctx) < 5, "hook gave up");
        },
        &calls);
    ShardProbe probe;
    probe.sim = &sim;
    probe.shard_count = 4;
    probe.lookahead = 1000;
    for (std::uint32_t s = 0; s < 4; ++s) {
      sim.set_setup_shard(s);
      TypedEvent ev;
      ev.kind = EventKind::kUserProbe;
      ev.shard = static_cast<std::uint8_t>(s);
      ev.target = &probe;
      ev.u.raw[0] = splitmix(s);
      ev.u.raw[1] = 40;
      sim.schedule_event_at(1, ev);
    }
    sim.set_setup_shard(0);
    EXPECT_THROW(sim.run(), CheckError) << "threads " << threads;
    EXPECT_EQ(calls, 5) << "threads " << threads;
  }
}

}  // namespace
}  // namespace harmony::sim
