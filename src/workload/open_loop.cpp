#include "workload/open_loop.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace harmony::workload {

namespace {

constexpr double kPi = 3.14159265358979323846;

/// kDiurnal: lambda(t) swings this fraction around the rate (< 1 keeps it
/// positive).
constexpr double kDiurnalAmplitude = 0.5;
/// kFlashCrowd: the plateau's multiple of the base rate.
constexpr double kFlashMultiplier = 8.0;
/// Chance that an arrival targets its user's own profile key.
constexpr double kUserAffinity = 0.5;
/// SLA threshold on end-to-end latency from *intended* arrival time.
constexpr SimDuration kSlaLatency = 100 * kMillisecond;

/// Salt separating a user's profile-key hash from the rank scramble inside
/// ScrambledZipfianKeys (both use mix64 over small integers).
constexpr std::uint64_t kProfileSalt = 0x6A09E667F3BCC909ULL;

sim::TypedEvent arrival_event(OpenLoopSource* src, std::uint8_t shard) {
  sim::TypedEvent e;
  e.kind = sim::EventKind::kOpenLoopArrival;
  e.shard = shard;
  e.target = src;
  return e;
}

}  // namespace

OpenLoopSource::OpenLoopSource(ClientEnv& env, net::DcId dc,
                               const WorkloadSpec& spec, double rate_per_s,
                               std::uint64_t insert_lane,
                               std::uint64_t insert_stride, Rng rng,
                               std::unique_ptr<KeyDistribution> keys,
                               const ScrambledZipfianKeys& users,
                               std::uint8_t shard)
    : env_(&env), dc_(dc), spec_(&spec), rate_(rate_per_s),
      insert_lane_(insert_lane), insert_stride_(insert_stride),
      rng_(std::move(rng)), keys_(std::move(keys)), users_(users),
      shard_(shard), queue_(spec.open_loop.queue_capacity_per_dc) {
  HARMONY_CHECK(rate_ > 0);
  HARMONY_CHECK(keys_ != nullptr);
  props_[0] = spec.read_proportion;
  props_[1] = spec.update_proportion;
  props_[2] = spec.insert_proportion;
  props_[3] = spec.rmw_proportion;
}

void OpenLoopSource::dispatch_arrival(const sim::TypedEvent& ev) {
  static_cast<OpenLoopSource*>(ev.target)->on_arrival();
}

void OpenLoopSource::start() {
  sim::Simulation& sim = env_->simulation();
  sim.set_event_dispatcher(sim::EventDomain::kWorkload,
                           &Client::dispatch_event);
  key_filter_ = sim.shard_count() > 1;
  // The first arrival lands one gap after t=0: sources de-synchronize
  // through their private RNG streams, no explicit stagger needed.
  schedule_next_arrival(0);
}

double OpenLoopSource::lambda_at(SimTime t) const {
  const OpenLoopSpec& ol = spec_->open_loop;
  double r = rate_;
  switch (ol.curve) {
    case RateCurve::kConstant:
      break;
    case RateCurve::kDiurnal: {
      const double phase = 2.0 * kPi *
                           static_cast<double>(t % ol.diurnal_period) /
                           static_cast<double>(ol.diurnal_period);
      r *= 1.0 + kDiurnalAmplitude * std::sin(phase);
      break;
    }
    case RateCurve::kFlashCrowd: {
      // Linear ramp reaching rate*kFlashMultiplier at flash_at, plateau for
      // flash_hold, then a symmetric linear decay back to the base rate.
      const double peak = kFlashMultiplier;
      const SimTime ramp_start = ol.flash_at - ol.flash_ramp;
      const SimTime peak_end = ol.flash_at + ol.flash_hold;
      const SimTime decay_end = peak_end + ol.flash_ramp;
      double mult = 1.0;
      if (t >= ramp_start && t < ol.flash_at) {
        mult = 1.0 + (peak - 1.0) * static_cast<double>(t - ramp_start) /
                         static_cast<double>(ol.flash_ramp);
      } else if (t >= ol.flash_at && t < peak_end) {
        mult = peak;
      } else if (t >= peak_end && t < decay_end) {
        mult = peak - (peak - 1.0) * static_cast<double>(t - peak_end) /
                          static_cast<double>(ol.flash_ramp);
      }
      r *= mult;
      break;
    }
  }
  return r;
}

SimDuration OpenLoopSource::next_gap(SimTime now) {
  const OpenLoopSpec& ol = spec_->open_loop;
  const double mean_us = 1e6 / lambda_at(now);  // lambda > 0 by validate()
  double gap = 0;
  switch (ol.process) {
    case ArrivalProcess::kPoisson:
      gap = rng_.exponential(mean_us);
      break;
    case ArrivalProcess::kSelfSimilar: {
      // Pareto(alpha) renewal gaps scaled so E[gap] = 1/lambda(t): trains of
      // closely spaced arrivals separated by heavy-tailed silences — the
      // standard finite-mean approximation of self-similar arrival counts.
      const double a = ol.pareto_alpha;
      const double xm = mean_us * (a - 1.0) / a;
      const double u = 1.0 - rng_.uniform();  // (0, 1]: pow() stays finite
      gap = xm * std::pow(u, -1.0 / a);
      break;
    }
  }
  // Round up to the microsecond grid so the process always advances.
  return std::max<SimDuration>(1, static_cast<SimDuration>(gap));
}

void OpenLoopSource::schedule_next_arrival(SimTime now) {
  const SimTime next = now + next_gap(now);
  if (next < spec_->open_loop.duration) {
    env_->simulation().schedule_event_at(next, arrival_event(this, shard_));
  } else {
    gen_done_ = true;
    maybe_finished();
  }
}

void OpenLoopSource::draw_op(Op& op) {
  op.type = static_cast<OpType>(rng_.weighted_index(props_, 4));
  op.value_size = spec_->value_size;
  if (op.type == OpType::kInsert) {
    // Interleaved per-source insert lane: key identity is independent of
    // execution order. Serial-only (sharded runs refuse inserts).
    op.key = spec_->record_count + insert_lane_ +
             next_insert_seq_++ * insert_stride_;
    keys_->grow(op.key + 1);
    return;
  }
  // Attribute the arrival to a user (heavy-tailed activity): hot users hit
  // their own profile row with probability kUserAffinity, otherwise the
  // workload's request distribution supplies the key. Key-range sharded
  // sources rejection-sample until the draw lands in their own range (the
  // whole draw repeats so the accept stream stays i.i.d.); unsharded the
  // filter is off and RNG consumption is identical to the serial stream.
  int tries = 0;
  do {
    HARMONY_CHECK_MSG(++tries < 65536,
                      "key ownership rejection sampling did not converge "
                      "(degenerate key distribution vs shard ranges)");
    const std::uint64_t user = users_.next(rng_);
    if (rng_.chance(kUserAffinity)) {
      op.key = mix64(user + kProfileSalt) % spec_->record_count;
    } else {
      op.key = keys_->next(rng_);
    }
  } while (key_filter_ && env_->cluster().home_shard(op.key) != shard_);
}

void OpenLoopSource::on_arrival() {
  const SimTime now = env_->simulation().now();
  ++arrivals_;
  Op op;
  draw_op(op);
  if (in_flight_ < spec_->open_loop.max_in_flight_per_dc) {
    issue(op, now);
  } else if (queue_size_ < queue_.size()) {
    QueuedOp& slot = queue_[(queue_head_ + queue_size_) % queue_.size()];
    slot.intended = now;
    slot.op = op;
    ++queue_size_;
  } else {
    // Explicit overload: the bounded FIFO is full, the arrival is shed and
    // ledgered — never silently absorbed into a lower offered rate.
    ++shed_queue_full_;
    if (measuring_) ++sla_total_;
  }
  schedule_next_arrival(now);
}

void OpenLoopSource::issue(const Op& op, SimTime intended) {
  ++in_flight_;
  ++issued_;
  const SimTime now = env_->simulation().now();
  if (measuring_) queueing_delay_.record(now - intended);
  switch (op.type) {
    case OpType::kRead:
      do_read(op, intended, /*then_write=*/false);
      break;
    case OpType::kUpdate:
    case OpType::kInsert:
      env_->cluster().record_write_issued(op.key, op.value_size);
      do_write(op, intended);
      break;
    case OpType::kReadModifyWrite:
      do_read(op, intended, /*then_write=*/true);
      break;
  }
}

void OpenLoopSource::do_read(const Op& op, SimTime intended, bool then_write) {
  env_->cluster().record_read_issued(op.key, env_->simulation().now());
  const cluster::ReplicaRequirement req = env_->policy().read_requirement();
  env_->cluster().client_read(
      dc_, op.key, req,
      [this, op, intended, then_write, req](const cluster::ReadResult& r) {
        // Latency from the *intended* arrival, not the issue time: client
        // queueing delay counts, which is the coordinated-omission fix. An
        // admission shed is a failed op here — open-loop sources never
        // retry; re-offered load would re-hide the overload.
        const SimTime now = env_->simulation().now();
        const SimDuration latency = now - intended;
        env_->cluster().record_read_complete(latency);
        env_->on_read_complete(r, latency, req.count);
        if (then_write) {
          // RMW: the write half keeps the op's in-flight slot and its
          // intended time, so RMW latency stays end-to-end.
          env_->cluster().record_write_issued(op.key, op.value_size);
          do_write(op, intended);
        } else {
          finish_op(r.ok, r.shed, intended);
        }
      });
}

void OpenLoopSource::do_write(const Op& op, SimTime intended) {
  const cluster::ReplicaRequirement req = env_->policy().write_requirement();
  env_->cluster().client_write(
      dc_, op.key, op.value_size, req,
      [this, intended](const cluster::WriteResult& w) {
        const SimTime now = env_->simulation().now();
        const SimDuration latency = now - intended;
        env_->cluster().record_write_complete(latency);
        env_->on_write_complete(w, latency);
        finish_op(w.ok, w.shed, intended);
      });
}

void OpenLoopSource::finish_op(bool ok, bool shed, SimTime intended) {
  --in_flight_;
  ++completed_;
  if (!ok) {
    ++failed_;
    if (shed) ++shed_admission_;
  }
  if (measuring_) {
    ++sla_total_;
    if (ok &&
        env_->simulation().now() - intended <= kSlaLatency) {
      ++sla_ok_;
    }
  }
  pump_queue();
  maybe_finished();
}

void OpenLoopSource::pump_queue() {
  while (in_flight_ < spec_->open_loop.max_in_flight_per_dc &&
         queue_size_ > 0) {
    const QueuedOp q = queue_[queue_head_];
    queue_head_ = (queue_head_ + 1) % queue_.size();
    --queue_size_;
    issue(q.op, q.intended);
  }
}

void OpenLoopSource::maybe_finished() {
  if (drain_reported_ || !drained()) return;
  drain_reported_ = true;
  env_->on_client_finished();
}

void OpenLoopSource::collect(OpenLoopResult& out) const {
  out.arrivals += arrivals_;
  out.issued += issued_;
  out.completed += completed_;
  out.failed += failed_;
  out.shed_admission += shed_admission_;
  out.shed_queue_full += shed_queue_full_;
  out.queued_at_end += queue_size_;
  out.in_flight_at_end += in_flight_;
  out.sla_ok += sla_ok_;
  out.sla_total += sla_total_;
  out.queueing_delay.merge(queueing_delay_);
}

}  // namespace harmony::workload
