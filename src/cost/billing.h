// Bill computation: resource usage × price book -> the paper's three-part
// decomposition (instances / storage / network), plus energy when billed.
#pragma once

#include <cstdint>
#include <string>

#include "cost/pricing.h"

namespace harmony::cost {

/// Aggregate resource usage of one experiment run. Produced by the workload
/// runner from cluster counters; consumed by BillCalculator.
struct ResourceUsage {
  double node_hours = 0;        ///< #nodes × wall-clock hours
  double storage_gb_hours = 0;  ///< stored GB × hours (integrated)
  std::uint64_t io_requests = 0;  ///< replica-level storage operations
  double cross_dc_gb = 0;       ///< bytes crossing DC boundaries
  double energy_kwh = 0;        ///< from the power model (may be 0)
};

struct Bill {
  double instances = 0;
  double storage = 0;
  double network = 0;
  double energy = 0;
  double total() const { return instances + storage + network + energy; }

  std::string summary() const;
};

class BillCalculator {
 public:
  explicit BillCalculator(PriceBook book) : book_(std::move(book)) {}

  Bill compute(const ResourceUsage& usage) const;

  const PriceBook& book() const { return book_; }

  static constexpr double kHoursPerMonth = 730.0;

 private:
  PriceBook book_;
};

}  // namespace harmony::cost
