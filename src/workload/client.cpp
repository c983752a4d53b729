#include "workload/client.h"

#include <algorithm>

#include "common/check.h"
#include "workload/open_loop.h"

namespace harmony::workload {

Client::Client(ClientEnv& env, net::DcId home_dc, double target_rate_per_s,
               Rng rng, bool reroute_on_dc_outage, int shed_retry_limit,
               std::uint8_t shard)
    : env_(&env), home_(home_dc), target_rate_(target_rate_per_s),
      rng_(std::move(rng)), shard_(shard), reroute_(reroute_on_dc_outage),
      shed_retry_limit_(shed_retry_limit) {}

namespace {
sim::TypedEvent issue_event(Client* client, std::uint8_t shard) {
  sim::TypedEvent e;
  e.kind = sim::EventKind::kClientIssue;
  e.shard = shard;
  e.target = client;
  return e;
}
}  // namespace

void Client::dispatch_event(const sim::TypedEvent& ev) {
  switch (ev.kind) {
    case sim::EventKind::kClientIssue:
      static_cast<Client*>(ev.target)->issue_next();
      break;
    case sim::EventKind::kOpenLoopArrival:
      OpenLoopSource::dispatch_arrival(ev);
      break;
    default:
      HARMONY_CHECK_MSG(false, "unknown workload event kind");
  }
}

void Client::start() {
  sim::Simulation& sim = env_->simulation();
  sim.set_event_dispatcher(sim::EventDomain::kWorkload,
                           &Client::dispatch_event);
  // The whole closed loop (issue event, request callback, pacing closure)
  // stays on the ctor-assigned shard (a key-range shard; 0 unsharded).
  const auto stagger = static_cast<SimDuration>(rng_.exponential(500.0));
  sim.schedule_event(stagger, issue_event(this, shard_));
}

void Client::schedule_next() {
  if (finished_) return;
  SimTime next = env_->simulation().now();
  if (target_rate_ > 0) {
    // Semi-open loop: arrivals pace at the target rate but never overlap.
    // The arrival grid advances by the drawn gaps from the previous
    // *intended* time, never from the actual (possibly delayed) issue time:
    // re-basing on actual issue times would let queueing delay stretch the
    // arrival process and hide itself from the latency measurement
    // (coordinated omission). issue_next() measures from next_intended_.
    const auto gap = static_cast<SimDuration>(rng_.exponential(1e6 / target_rate_));
    const SimTime base = next_intended_ >= 0 ? next_intended_ : next;
    next_intended_ = base + gap;
    next = std::max(next, next_intended_);
  }
  env_->simulation().schedule_event_at(next, issue_event(this, shard_));
}

void Client::issue_next() {
  if (finished_) return;
  Op op;
  if (!env_->next_op(op)) {
    finished_ = true;
    env_->on_client_finished();
    return;
  }
  ++issued_;
  last_issue_ = env_->simulation().now();
  // Paced clients measure from the intended arrival, so time spent waiting
  // behind the previous op counts as latency; unthrottled closed loops have
  // no arrival schedule to be late against.
  const SimTime start = (target_rate_ > 0 && next_intended_ >= 0)
                            ? next_intended_
                            : last_issue_;
  switch (op.type) {
    case OpType::kRead:
      do_read(op, /*then_write=*/false, start, 0);
      break;
    case OpType::kUpdate:
    case OpType::kInsert:
      env_->cluster().record_write_issued(op.key, op.value_size);
      do_write(op, start, 0);
      break;
    case OpType::kReadModifyWrite:
      do_read(op, /*then_write=*/true, start, 0);
      break;
  }
}

net::DcId Client::route_dc() {
  if (!reroute_ || env_->cluster().dc_alive(home_)) return home_;
  const std::size_t dcs = env_->cluster().config().dc_count;
  for (std::size_t i = 1; i < dcs; ++i) {
    const auto d = static_cast<net::DcId>((home_ + i) % dcs);
    if (env_->cluster().dc_alive(d)) {
      ++rerouted_;
      return d;
    }
  }
  return home_;  // every DC is dark: the cluster answers unavailable
}

void Client::do_read(const Op& op, bool then_write, SimTime first_start,
                     int shed_attempts) {
  // Monitor issue/complete hooks fire once per logical op, not per shed
  // re-issue, so the policy layer's rates count client intent. The issue
  // time is the op's first start: a paced op's intended arrival.
  if (shed_attempts == 0) {
    env_->cluster().record_read_issued(op.key, first_start);
  }
  const cluster::ReplicaRequirement req = env_->policy().read_requirement();
  env_->cluster().client_read(
      route_dc(), op.key, req,
      [this, op, first_start, then_write, req,
       shed_attempts](const cluster::ReadResult& r) {
        if (r.shed && shed_attempts < shed_retry_limit_) {
          ++shed_retries_;
          // Honor retry-after; exponential jitter keeps shed clients from
          // re-arriving in lockstep and re-shedding as a block.
          const SimDuration delay =
              r.retry_after +
              static_cast<SimDuration>(rng_.exponential(500.0));
          env_->simulation().schedule(
              delay, [this, op, first_start, then_write, shed_attempts] {
                do_read(op, then_write, first_start, shed_attempts + 1);
              });
          return;
        }
        const SimDuration latency = env_->simulation().now() - first_start;
        env_->cluster().record_read_complete(latency);
        env_->on_read_complete(r, latency, req.count);
        if (then_write) {
          env_->cluster().record_write_issued(op.key, op.value_size);
          do_write(op, env_->simulation().now(), 0);
        } else {
          schedule_next();
        }
      },
      /*origin_dc=*/home_);
}

void Client::do_write(const Op& op, SimTime first_start, int shed_attempts) {
  const cluster::ReplicaRequirement req = env_->policy().write_requirement();
  env_->cluster().client_write(
      route_dc(), op.key, op.value_size, req,
      [this, op, first_start, shed_attempts](const cluster::WriteResult& w) {
        if (w.shed && shed_attempts < shed_retry_limit_) {
          ++shed_retries_;
          const SimDuration delay =
              w.retry_after +
              static_cast<SimDuration>(rng_.exponential(500.0));
          env_->simulation().schedule(
              delay, [this, op, first_start, shed_attempts] {
                do_write(op, first_start, shed_attempts + 1);
              });
          return;
        }
        const SimDuration latency = env_->simulation().now() - first_start;
        env_->cluster().record_write_complete(latency);
        env_->on_write_complete(w, latency);
        schedule_next();
      },
      /*origin_dc=*/home_);
}

}  // namespace harmony::workload
