#include "core/baselines.h"

#include <cmath>

#include "common/check.h"

namespace harmony::core {

namespace {
/// Weak-mode write acks of both baselines.
constexpr int kWriteAcks = 1;
/// Conflict rationing goes strong above this P(update conflict).
constexpr double kConflictThreshold = 0.05;
/// The read/write-ratio policy goes strong above this write share.
constexpr double kWriteShareThreshold = 0.3;
}  // namespace

// ----------------------------------------------------------- Kraska-style

ConflictRationingPolicy::ConflictRationingPolicy(int rf) : rf_(rf) {
  HARMONY_CHECK(rf >= 1);
}

cluster::ReplicaRequirement ConflictRationingPolicy::read_requirement() const {
  return cluster::resolve_count(strong_ ? cluster::quorum_of(rf_) : 1, rf_);
}

cluster::ReplicaRequirement ConflictRationingPolicy::write_requirement() const {
  // Strong mode writes at quorum so R+W>N holds (serializability surrogate);
  // weak mode = session-ish weak consistency, one ack.
  return cluster::resolve_count(strong_ ? cluster::quorum_of(rf_) : kWriteAcks,
                                rf_);
}

void ConflictRationingPolicy::tick(const monitor::SystemState& state) {
  const double window_s = state.window_us() / 1e6;
  const double n = state.write_rate * window_s;  // expected updates per window
  // P(>= 2 Poisson arrivals in the window) — an update conflict.
  p_conflict_ = n > 0 ? 1.0 - std::exp(-n) * (1.0 + n) : 0.0;
  const bool want_strong = p_conflict_ > kConflictThreshold;
  if (want_strong != strong_) {
    strong_ = want_strong;
    ++switches_;
  }
}

policy::PolicyFactory conflict_rationing_policy() {
  return [](const policy::PolicyInit& init) {
    return std::make_unique<ConflictRationingPolicy>(init.rf);
  };
}

// ----------------------------------------------------------- Wang-style

ReadWriteRatioPolicy::ReadWriteRatioPolicy(int rf) : rf_(rf) {
  HARMONY_CHECK(rf >= 1);
}

cluster::ReplicaRequirement ReadWriteRatioPolicy::read_requirement() const {
  return cluster::resolve_count(strong_ ? rf_ : 1, rf_);
}

cluster::ReplicaRequirement ReadWriteRatioPolicy::write_requirement() const {
  return cluster::resolve_count(kWriteAcks, rf_);
}

void ReadWriteRatioPolicy::tick(const monitor::SystemState& state) {
  const double total = state.read_rate + state.write_rate;
  const double write_share = total > 0 ? state.write_rate / total : 0.0;
  const bool want_strong = write_share > kWriteShareThreshold;
  if (want_strong != strong_) {
    strong_ = want_strong;
    ++switches_;
  }
}

policy::PolicyFactory rw_ratio_policy() {
  return [](const policy::PolicyInit& init) {
    return std::make_unique<ReadWriteRatioPolicy>(init.rf);
  };
}

}  // namespace harmony::core
