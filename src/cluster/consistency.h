// Cassandra-style consistency levels.
//
// Levels name how many replica acknowledgements a coordinator must collect
// before answering the client. Harmony additionally tunes a *raw replica
// count* (its "number of involved replicas"), so the cluster API accepts both:
// a Level is resolved to a ReplicaRequirement against the replication layout.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace harmony::cluster {

enum class Level : std::uint8_t {
  kOne,
  kTwo,
  kThree,
  kQuorum,
  kAll,
  kLocalOne,
  kLocalQuorum,
  kEachQuorum,
};

// lint: allow(hot-path-alloc): cold reporting helper for tables and logs;
// the request path never stringifies levels.
std::string to_string(Level level);

/// All "global" levels in increasing strength (the set Bismar ranks).
const std::vector<Level>& global_levels();

/// Majority of n.
constexpr int quorum_of(int n) { return n / 2 + 1; }

/// Resolved requirement for one request.
struct ReplicaRequirement {
  int count = 1;              ///< total acks/responses needed
  bool local_only = false;    ///< restrict counted acks to the client's DC
  bool each_quorum = false;   ///< need quorum_of(rf_dc) in *every* DC

  bool operator==(const ReplicaRequirement&) const = default;
};

/// Resolve `level` given total rf and the per-DC replication factors.
/// `local_rf` is the replication factor in the coordinator's DC.
ReplicaRequirement resolve(Level level, int rf, int local_rf);

/// Requirement for a raw replica count k (Harmony's tuning knob), clamped to
/// [1, rf].
ReplicaRequirement resolve_count(int k, int rf);

}  // namespace harmony::cluster
