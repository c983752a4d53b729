#include "cluster/node.h"

#include <algorithm>

#include "common/check.h"

namespace harmony::cluster {

SimDuration Node::base_cost(ServiceKind kind) {
  switch (kind) {
    case ServiceKind::kRead:
    case ServiceKind::kDigest: {
      // Digest reads run the full local read path (Cassandra hashes the
      // result of a normal read), so both kinds share the disk model.
      SimDuration c = kind == ServiceKind::kRead ? params_.cpu_read
                                                 : params_.cpu_digest;
      if (rng_.chance(params_.disk_read_probability)) {
        c += rng_.lognormal_median(
            static_cast<double>(params_.disk_read_median), params_.disk_sigma);
        disk_io_ += 1.0;
      }
      return c;
    }
    case ServiceKind::kWrite:
      disk_io_ += params_.write_disk_io;
      return params_.cpu_write + params_.commit_log_write;
    case ServiceKind::kCoordinate:
      return params_.cpu_coord;
  }
  return 0;
}

SimDuration Node::service(ServiceKind kind, SimTime now) {
  HARMONY_CHECK_MSG(alive_, "service() on a dead node");
  SimDuration cost = base_cost(kind);
  if (params_.service_jitter_sigma > 0) {
    cost = rng_.lognormal_median(static_cast<double>(cost),
                                 params_.service_jitter_sigma);
  }
  if (cost < 1) cost = 1;
  const SimTime start = std::max(now, busy_until_);
  busy_until_ = start + cost;
  busy_time_ += cost;
  ++requests_served_;
  return busy_until_ - now;
}

}  // namespace harmony::cluster
