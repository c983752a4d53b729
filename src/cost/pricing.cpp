#include "cost/pricing.h"

namespace harmony::cost {

PriceBook PriceBook::ec2_2012() {
  PriceBook p;
  p.instance_per_hour = 0.26;  // m1.large on-demand
  p.storage_gb_month = 0.10;   // EBS standard volume
  p.io_per_million = 0.10;     // EBS I/O requests
  p.net_cross_dc_gb = 0.01;    // inter-AZ transfer
  p.energy_kwh = 0.0;
  return p;
}

PriceBook PriceBook::grid5000() {
  PriceBook p;
  p.instance_per_hour = 0.0;
  p.storage_gb_month = 0.0;
  p.io_per_million = 0.0;
  p.net_cross_dc_gb = 0.0;
  p.energy_kwh = 0.12;  // French industrial tariff, ~2012
  return p;
}

}  // namespace harmony::cost
