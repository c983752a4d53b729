#include "cluster/consistency.h"

#include <algorithm>

#include "common/check.h"

namespace harmony::cluster {

std::string to_string(Level level) {
  switch (level) {
    case Level::kOne: return "ONE";
    case Level::kTwo: return "TWO";
    case Level::kThree: return "THREE";
    case Level::kQuorum: return "QUORUM";
    case Level::kAll: return "ALL";
    case Level::kLocalOne: return "LOCAL_ONE";
    case Level::kLocalQuorum: return "LOCAL_QUORUM";
    case Level::kEachQuorum: return "EACH_QUORUM";
  }
  return "?";
}

const std::vector<Level>& global_levels() {
  static const std::vector<Level> kLevels = {
      Level::kOne, Level::kTwo, Level::kThree, Level::kQuorum, Level::kAll};
  return kLevels;
}

ReplicaRequirement resolve(Level level, int rf, int local_rf) {
  HARMONY_CHECK(rf >= 1);
  HARMONY_CHECK(local_rf >= 0 && local_rf <= rf);
  ReplicaRequirement r;
  switch (level) {
    case Level::kOne: r.count = 1; break;
    case Level::kTwo: r.count = std::min(2, rf); break;
    case Level::kThree: r.count = std::min(3, rf); break;
    case Level::kQuorum: r.count = quorum_of(rf); break;
    case Level::kAll: r.count = rf; break;
    case Level::kLocalOne:
      r.count = 1;
      r.local_only = true;
      break;
    case Level::kLocalQuorum:
      HARMONY_CHECK_MSG(local_rf >= 1, "LOCAL_QUORUM needs local replicas");
      r.count = quorum_of(local_rf);
      r.local_only = true;
      break;
    case Level::kEachQuorum:
      // Total count is filled by the coordinator per-DC; store the global
      // quorum as a floor so `count` stays meaningful for estimators.
      r.count = quorum_of(rf);
      r.each_quorum = true;
      break;
  }
  return r;
}

ReplicaRequirement resolve_count(int k, int rf) {
  ReplicaRequirement r;
  r.count = std::clamp(k, 1, rf);
  return r;
}

}  // namespace harmony::cluster
