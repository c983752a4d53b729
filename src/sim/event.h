// Typed hot-lane events for the discrete-event kernel.
//
// The request path schedules millions of events per experiment, and nearly
// all of them have one of a dozen fixed shapes: "apply write W at replica R",
// "deliver read response for request H", and so on. Carrying those shapes as
// type-erased closures (InlineFn) costs an indirect call, a capture
// destructor, and a 144-byte slab-slot round trip per event. A TypedEvent is
// instead a tagged-union POD small enough to ride *inline in the heap entry*:
// scheduling is a plain 4-ary-heap push, firing is a switch dispatching
// straight into the owning subsystem's member function, and there is nothing
// to destroy or recycle afterwards.
//
// Lane-selection rules (see bench/README.md "Two-lane event kernel"):
//   * typed lane — fixed-shape, non-cancellable, POD payload (the request
//     path's fan-out/service/response legs, repairs, hints, client issue);
//   * closure lane — anything cancellable (request timeouts, PeriodicTimer)
//     or carrying non-POD state (client completion callbacks).
// Both lanes share one (time, seq) sequence, so their events interleave in
// exactly the order they were scheduled — determinism is lane-independent.
//
// Dispatch: the high bits of EventKind select a domain (cluster, workload,
// user); each domain registers one EventDispatchFn on the Simulation, and the
// event's `target` pointer names the instance (a Cluster*, a Client*, ...),
// so one simulation can host many dispatch targets with zero per-event
// registration.
//
// Sharded execution: `shard` names the event shard the event must execute on
// (see sim/shard.h — per-DC shards under conservative lookahead windows).
// Schedule sites set it to the shard owning the state the handler touches;
// in one-shard simulations (the default kernel) it stays 0.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "common/time_types.h"

namespace harmony::sim {

/// Event shapes. The value's high bits ("kind >> kEventDomainShift") name the
/// dispatch domain; 0 is reserved so a zeroed event is never dispatched.
enum class EventKind : std::uint8_t {
  kClosure = 0,  ///< reserved: closure-lane heap entries, never dispatched

  // ---- cluster domain (1..15): the replicated-store request path ----------
  kStartWrite = 1,     ///< client link hop done; coordinator starts the write
  kWriteApply,         ///< write fan-out leg arrived at a replica
  kWriteApplied,       ///< replica service done; mutation hits the store
  kWriteAck,           ///< ack travelled replica -> coordinator
  kStartRead,          ///< client link hop done; coordinator starts the read
  kReadServe,          ///< read fan-out leg arrived at a replica
  kReadServed,         ///< replica service done; value/digest leaves
  kReadResponse,       ///< response travelled replica -> coordinator
  kWriteDeliver,       ///< write result travelled coordinator -> client
  kReadDeliver,        ///< read result travelled coordinator -> client
  kRepairArrive,       ///< read-repair / anti-entropy mutation reached target
  kRepairApply,        ///< repair service done; mutation hits the store
  kHintDeliver,        ///< hinted-handoff replay leg reached its target
  kAntiEntropySweep,   ///< periodic dirty-key sweep
  kFault,              ///< scheduled fault-injection action (kill/degrade/...)

  // ---- workload domain (16..31): clients --------------------------------
  kClientIssue = 16,   ///< a closed-loop client issues its next operation
  kOpenLoopArrival,    ///< an open-loop source's next intended arrival fires
  kPolicyTick,         ///< fenced policy-retuning tick (sharded runs)

  // ---- user domain (32..47): free for tests and benches ------------------
  kUserProbe = 32,
};

enum class EventDomain : std::uint8_t { kCluster = 0, kWorkload = 1, kUser = 2 };
inline constexpr std::size_t kEventDomains = 4;
inline constexpr std::size_t kEventDomainShift = 4;

constexpr std::size_t event_domain_index(EventKind kind) {
  return static_cast<std::size_t>(kind) >> kEventDomainShift;
}

/// Tagged-union POD event, 48 bytes: 16-byte header + 32-byte payload. Node
/// ids travel as full u32 net::NodeIds (million-node topologies fit); the
/// payload union member is chosen by `kind` — schedule sites write exactly
/// the fields their handler reads.
struct TypedEvent {
  EventKind kind = EventKind::kClosure;
  std::uint8_t flag = 0;      ///< data_read / found
  std::uint8_t shard = 0;     ///< destination event shard (0 when unsharded);
                              ///< under key-range sharding this is the shard
                              ///< owning the destination node / key range
  std::uint8_t home = 0;      ///< shard owning the pending record (write legs
                              ///< resolve their coordinator's slot pool by it)
  std::uint32_t node = 0;     ///< replica or repair/hint target node
  void* target = nullptr;     ///< dispatch instance (Cluster*, Client*, ...)

  /// Mirror of SlotPool<>::Handle (kept layout-compatible by value).
  struct Req {
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
  };

  union Payload {
    struct {
      Req h;
    } req;  ///< kStartWrite/kStartRead/kWriteApply/kWriteApplied (node=replica)
    struct {
      Req h;
      SimDuration apply_delay;
    } ack;  ///< kWriteAck (node=replica)
    struct {
      Req h;
      SimTime sent_at;
      std::uint64_t key;
      std::uint32_t coord;
    } serve;  ///< kReadServe (node=replica, flag=data_read); key/coord ride
              ///< along so remote shards never touch the pending record
    struct {
      Req h;
      SimTime sent_at;
      std::uint64_t key;
      std::uint32_t coord;
    } served;  ///< kReadServed (node=replica, flag=data_read)
    struct {
      Req h;
      SimTime version_ts;
      std::uint64_t version_seq;
      std::uint32_t rtt_us;  ///< replica round trip, µs (SimTime is µs-grain)
      std::uint32_t size;    ///< value size in bytes
    } resp;  ///< kReadResponse (node=replica, flag=found)
    struct {
      std::uint64_t key;
      SimTime version_ts;
      std::uint64_t version_seq;
      std::uint32_t size;  ///< value size in bytes
    } kv;  ///< kRepairArrive/kRepairApply/kHintDeliver (node=target)
    struct {
      std::uint32_t op;    ///< cluster::FaultOp, widened for the POD union
      std::uint32_t dc;    ///< target DC for blackout/restore ops
      double factor;       ///< latency multiplier for degradation ops
    } fault;  ///< kFault (node=target node for node-scoped ops)
    std::uint64_t raw[4];
  } u{};
};

static_assert(sizeof(TypedEvent) == 48, "typed events must stay heap-inline");
static_assert(offsetof(TypedEvent, u) == 16,
              "16-byte header precedes the payload union");
static_assert(std::is_trivially_copyable_v<TypedEvent>);
static_assert(std::is_trivially_destructible_v<TypedEvent>);

// Every payload must fit the 32-byte union and stay trivially copyable. The
// linter's typed-lane-shape rule (tools/lint/harmony_lint.py) requires one
// assert per payload member, so adding a payload without its assert fails
// `ctest -L lint`; the compiler then enforces what the assert claims.
#define HARMONY_ASSERT_PAYLOAD(member)                               \
  static_assert(sizeof(TypedEvent::Payload::member) <= 32 &&         \
                    std::is_trivially_copyable_v<                    \
                        decltype(TypedEvent::Payload::member)>,      \
                "typed-lane payload '" #member "' must stay a <=32-byte POD")
HARMONY_ASSERT_PAYLOAD(req);
HARMONY_ASSERT_PAYLOAD(ack);
HARMONY_ASSERT_PAYLOAD(serve);
HARMONY_ASSERT_PAYLOAD(served);
HARMONY_ASSERT_PAYLOAD(resp);
HARMONY_ASSERT_PAYLOAD(kv);
HARMONY_ASSERT_PAYLOAD(fault);
#undef HARMONY_ASSERT_PAYLOAD

/// One dispatcher per domain, registered on the Simulation. Pure function:
/// the event carries its own instance pointer.
using EventDispatchFn = void (*)(const TypedEvent&);

}  // namespace harmony::sim
