// Regression tests for the slot-pool event kernel: slot/generation reuse
// safety under cancellation churn, move-only (never-copied) callbacks,
// steady-state allocation-freedom, and whole-simulation determinism over a
// mixed schedule/cancel workload.
#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <type_traits>
#include <vector>

#include "alloc_guard.h"
#include "common/rng.h"
#include "sim/simulation.h"

namespace harmony::sim {
namespace {

// The kernel contract: callbacks are consumed exactly once and never copied.
static_assert(!std::is_copy_constructible_v<EventFn>);
static_assert(!std::is_copy_assignable_v<EventFn>);
static_assert(std::is_nothrow_move_constructible_v<EventFn>);

TEST(EventFn, AcceptsMoveOnlyCallables) {
  auto flag = std::make_unique<bool>(false);
  bool* raw = flag.get();
  EventFn fn = [owned = std::move(flag)] { *owned = true; };
  fn();
  EXPECT_TRUE(*raw);
}

TEST(EventFn, OversizedCapturesFallBackToHeapAndStillFire) {
  struct Big {
    char bytes[512] = {};
    int tag = 7;
  } big;
  int seen = 0;
  EventFn fn = [big, &seen] { seen = big.tag; };
  EventFn moved = std::move(fn);
  moved();
  EXPECT_EQ(seen, 7);
}

TEST(EventQueue, ScheduleMoveOnlyCallbackThroughSimulation) {
  Simulation sim;
  auto payload = std::make_unique<int>(41);
  int result = 0;
  sim.schedule(10, [p = std::move(payload), &result] { result = *p + 1; });
  sim.run();
  EXPECT_EQ(result, 42);
}

/// Run the earliest event at or before `horizon` through run_before, the
/// queue's only pop; `when` receives its time. Typed events are counted in
/// `typed` (when given) instead of dispatched.
EventQueue::PopResult run_next(
    EventQueue& q, SimTime& when,
    SimTime horizon = std::numeric_limits<SimTime>::max(),
    int* typed = nullptr) {
  return q.run_before(
      horizon, [&when](SimTime t, std::uint64_t) { when = t; },
      [typed](const TypedEvent&) {
        if (typed != nullptr) ++*typed;
      });
}

TEST(EventQueue, SlotReuseDoesNotResurrectCancelledHandles) {
  EventQueue q;
  bool a_ran = false;
  bool b_ran = false;
  EventHandle a = q.push(10, [&] { a_ran = true; });
  a.cancel();
  // The free list is LIFO, so this push reuses a's slot with a new generation.
  EventHandle b = q.push(20, [&] { b_ran = true; });
  EXPECT_FALSE(a.pending());
  EXPECT_TRUE(b.pending());
  a.cancel();  // stale handle: must not touch the new occupant
  EXPECT_TRUE(b.pending());

  SimTime when = 0;
  ASSERT_EQ(run_next(q, when), EventQueue::PopResult::kEvent);
  EXPECT_EQ(when, 20);
  EXPECT_FALSE(a_ran);
  EXPECT_TRUE(b_ran);
  EXPECT_EQ(run_next(q, when), EventQueue::PopResult::kEmpty);
}

TEST(EventQueue, TombstonesDoNotLeakIntoPop) {
  EventQueue q;
  auto h1 = q.push(10, [] {});
  q.push(20, [] {});
  h1.cancel();
  SimTime when = 0;
  ASSERT_EQ(run_next(q, when), EventQueue::PopResult::kEvent);
  EXPECT_EQ(when, 20);
  EXPECT_EQ(run_next(q, when), EventQueue::PopResult::kEmpty);
}

TEST(EventQueue, CancellationChurnStress) {
  // Heavy tombstone churn: every slot is recycled many times; a cancelled or
  // already-fired event must never fire, and live events must all fire.
  Simulation sim(123);
  Rng rng = sim.fork_rng(9);
  std::uint64_t fired = 0;
  std::uint64_t cancelled = 0;
  std::vector<EventHandle> handles;
  std::vector<bool> was_cancelled;
  for (int round = 0; round < 200; ++round) {
    handles.clear();
    was_cancelled.clear();
    const SimTime base = sim.now();
    for (int i = 0; i < 100; ++i) {
      handles.push_back(sim.schedule_at(
          base + 1 + static_cast<SimTime>(rng.uniform_u64(50)),
          [&fired] { ++fired; }));
      was_cancelled.push_back(false);
    }
    // Cancel a random half, some of them twice (idempotence under reuse).
    for (int i = 0; i < 100; ++i) {
      const std::size_t pick = rng.uniform_u64(handles.size());
      if (rng.chance(0.5)) {
        if (!was_cancelled[pick]) {
          ++cancelled;
          was_cancelled[pick] = true;
        }
        handles[pick].cancel();
      }
    }
    sim.run();
    for (std::size_t i = 0; i < handles.size(); ++i) {
      EXPECT_FALSE(handles[i].pending());
    }
  }
  EXPECT_EQ(fired + cancelled, 200u * 100u);
  EXPECT_EQ(sim.events_processed(), fired);
}

TEST(EventQueue, SteadyStateSchedulePopIsAllocationFree) {
  Simulation sim;
  std::uint64_t ticks = 0;
  // Warm-up: grow the slab and the heap vector past anything the measured
  // phase needs, then drain.
  for (int i = 0; i < 4096; ++i) {
    sim.schedule(i % 101, [&ticks] { ++ticks; });
  }
  sim.run();

  const harmony::testing::AllocGuard guard;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 64; ++i) {
      // Realistic capture size (a few words), still within inline capacity.
      sim.schedule(i % 13, [&ticks, round, i] {
        ticks += static_cast<std::uint64_t>(round + i);
      });
    }
    sim.run();
  }
  EXPECT_EQ(guard.allocations(), 0u) << "schedule+pop cycle allocated";
  EXPECT_GT(ticks, 0u);
}

// Mixed schedule/cancel workload driven entirely by the simulation's own RNG:
// the kernel must be bit-reproducible from the seed.
std::pair<std::uint64_t, SimTime> churn_run(std::uint64_t seed) {
  Simulation sim(seed);
  auto rng = std::make_shared<Rng>(sim.fork_rng(77));
  auto live = std::make_shared<std::vector<EventHandle>>();
  auto budget = std::make_shared<int>(5000);

  struct Spawner {
    Simulation& sim;
    std::shared_ptr<Rng> rng;
    std::shared_ptr<std::vector<EventHandle>> live;
    std::shared_ptr<int> budget;
    void operator()() const {
      // Sometimes cancel an outstanding event, sometimes schedule new ones.
      if (!live->empty() && rng->chance(0.3)) {
        const std::size_t pick = rng->uniform_u64(live->size());
        (*live)[pick].cancel();
        (*live)[pick] = (*live).back();
        live->pop_back();
      }
      const int spawn = static_cast<int>(rng->uniform_u64(3));
      for (int s = 0; s < spawn && *budget > 0; ++s) {
        --*budget;
        live->push_back(sim.schedule(
            static_cast<SimDuration>(1 + rng->uniform_u64(500)), Spawner{*this}));
      }
    }
  };
  for (int i = 0; i < 50; ++i) {
    --*budget;
    live->push_back(sim.schedule(static_cast<SimDuration>(1 + i),
                                 Spawner{sim, rng, live, budget}));
  }
  sim.run();
  return {sim.events_processed(), sim.now()};
}

TEST(EventQueue, DeterministicUnderScheduleCancelChurn) {
  const auto a = churn_run(42);
  const auto b = churn_run(42);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_GT(a.first, 50u);  // the workload actually ran events

  const auto c = churn_run(43);
  // Different seeds should diverge (not a hard guarantee, but with 5000
  // events the chance of an accidental collision in both fields is nil).
  EXPECT_TRUE(c.first != a.first || c.second != a.second);
}

// ---- typed hot lane ---------------------------------------------------------

/// Test dispatcher for the user event domain: appends the event's tag to the
/// vector named by `target`.
void record_probe(const TypedEvent& ev) {
  static_cast<std::vector<std::uint32_t>*>(ev.target)
      ->push_back(static_cast<std::uint32_t>(ev.u.raw[0]));
}

TypedEvent probe(std::vector<std::uint32_t>* sink, std::uint32_t tag) {
  TypedEvent ev;
  ev.kind = EventKind::kUserProbe;
  ev.target = sink;
  ev.u.raw[0] = tag;
  return ev;
}

TEST(TypedLane, InterleavesWithClosuresInScheduleOrder) {
  // Same instant, alternating lanes: the shared (time, seq) order must run
  // events exactly in schedule order, regardless of which lane each rode.
  Simulation sim;
  sim.set_event_dispatcher(EventDomain::kUser, &record_probe);
  std::vector<std::uint32_t> order;
  for (std::uint32_t i = 0; i < 10; ++i) {
    if (i % 2 == 0) {
      sim.schedule_event(50, probe(&order, i));
    } else {
      sim.schedule(50, [&order, i] { order.push_back(i); });
    }
  }
  sim.run();
  ASSERT_EQ(order.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(sim.events_processed(), 10u);
}

TEST(TypedLane, ReentrantDispatchCanSchedule) {
  // A dispatcher that schedules follow-up events mid-pop (the request path's
  // normal shape: every hop schedules the next) must not invalidate the
  // entry being dispatched.
  struct Chain {
    Simulation* sim = nullptr;
    int hops = 0;
  } chain;
  Simulation sim;
  chain.sim = &sim;
  sim.set_event_dispatcher(EventDomain::kUser, [](const TypedEvent& ev) {
    Chain* c = static_cast<Chain*>(ev.target);
    if (++c->hops < 64) {
      TypedEvent next;
      next.kind = EventKind::kUserProbe;
      next.target = c;
      c->sim->schedule_event(static_cast<SimDuration>(c->hops % 7), next);
    }
  });
  TypedEvent first;
  first.kind = EventKind::kUserProbe;
  first.target = &chain;
  sim.schedule_event(1, first);
  sim.run();
  EXPECT_EQ(chain.hops, 64);
  EXPECT_EQ(sim.events_processed(), 64u);
}

TEST(TypedLane, SteadyStateScheduleDispatchIsAllocationFree) {
  Simulation sim;
  sim.set_event_dispatcher(EventDomain::kUser, &record_probe);
  std::vector<std::uint32_t> sink;
  sink.reserve(1 << 20);
  for (int i = 0; i < 4096; ++i) {
    sim.schedule_event(i % 101, probe(&sink, 1));
  }
  sim.run();

  const harmony::testing::AllocGuard guard;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 64; ++i) {
      sim.schedule_event(i % 13, probe(&sink, 2));
    }
    sim.run();
  }
  EXPECT_EQ(guard.allocations(), 0u) << "typed schedule+dispatch allocated";
  EXPECT_GT(sink.size(), 4096u);
}

TEST(TypedLane, FiringWithoutDispatcherThrows) {
  Simulation sim;
  std::vector<std::uint32_t> sink;
  sim.schedule_event(1, probe(&sink, 1));
  EXPECT_THROW(sim.run(), CheckError);
}

TEST(TypedLane, CancelStaysEagerOnClosureLane) {
  // Cancelling a closure event removes its heap entry immediately: the queue
  // reports empty without waiting for the dead entry's expiry to pop.
  Simulation sim;
  bool ran = false;
  auto h = sim.schedule(1'000'000, [&ran] { ran = true; });
  EXPECT_FALSE(sim.idle());
  h.cancel();
  EXPECT_TRUE(sim.idle());  // eager removal, no tombstone left behind
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.now(), 0);
}

TEST(EventQueue, PopBeforeHonorsHorizon) {
  // run_before pops only events at or before the horizon, on either lane.
  EventQueue q;
  int ran = 0;
  int typed = 0;
  q.push(10, [&] { ++ran; });
  q.push_typed_stamped(25, q.alloc_seq(), TypedEvent{});
  q.push(30, [&] { ++ran; });
  SimTime when = 0;
  EXPECT_EQ(run_next(q, when, 20, &typed), EventQueue::PopResult::kEvent);
  EXPECT_EQ(when, 10);
  EXPECT_EQ(run_next(q, when, 20, &typed), EventQueue::PopResult::kLater);
  EXPECT_EQ(run_next(q, when, 25, &typed), EventQueue::PopResult::kEvent);
  EXPECT_EQ(when, 25);
  EXPECT_EQ(typed, 1);
  EXPECT_EQ(run_next(q, when, 29, &typed), EventQueue::PopResult::kLater);
  EXPECT_EQ(run_next(q, when, 30, &typed), EventQueue::PopResult::kEvent);
  EXPECT_EQ(when, 30);
  EXPECT_EQ(run_next(q, when, 30, &typed), EventQueue::PopResult::kEmpty);
  EXPECT_EQ(ran, 2);
}

}  // namespace
}  // namespace harmony::sim
