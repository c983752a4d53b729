#include "cost/billing.h"

#include <cstdio>

namespace harmony::cost {

Bill BillCalculator::compute(const ResourceUsage& usage) const {
  Bill b;
  b.instances = usage.node_hours * book_.instance_per_hour;
  b.storage = usage.storage_gb_hours / kHoursPerMonth * book_.storage_gb_month +
              static_cast<double>(usage.io_requests) / 1e6 * book_.io_per_million;
  b.network = usage.cross_dc_gb * book_.net_cross_dc_gb;
  b.energy = usage.energy_kwh * book_.energy_kwh;
  return b;
}

std::string Bill::summary() const {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "total=$%.4f (instances=$%.4f storage=$%.4f network=$%.4f"
                " energy=$%.4f)",
                total(), instances, storage, network, energy);
  return buf;
}

}  // namespace harmony::cost
