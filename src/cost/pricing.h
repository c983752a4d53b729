// Cloud price books.
//
// The paper (§III-B) decomposes the bill of a storage service into three
// parts: VM instances, storage, and network. The books below use 2012-era
// on-demand us-east-1 prices (the paper's platform) and a Grid'5000 variant
// where instances are free but energy is charged — the knob the §V power
// study turns.
#pragma once

namespace harmony::cost {

struct PriceBook {
  double instance_per_hour = 0.26;      ///< $ per VM-hour (m1.large, 2012)
  double storage_gb_month = 0.10;       ///< $ per GB-month (EBS standard)
  double io_per_million = 0.10;         ///< $ per 1M I/O requests (EBS)
  double net_cross_dc_gb = 0.01;        ///< $ per GB between AZs/DCs
  double energy_kwh = 0.0;              ///< $ per kWh (0: power not billed)

  /// Amazon EC2 on-demand, us-east-1, 2012 (the paper's platform).
  static PriceBook ec2_2012();
  /// Grid'5000: hardware is free for researchers; energy is the real cost.
  static PriceBook grid5000();
};

}  // namespace harmony::cost
