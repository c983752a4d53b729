// Figure 1 / §III-A — validation of the stale-read window model.
//
// The paper's Fig. 1 defines when a read may be stale; Harmony's estimator
// turns it into probabilities. This bench regenerates the model three ways
// and checks they agree:
//   closed   the exact piecewise-exponential closed form (core::StaleReadModel)
//   monte    a Monte-Carlo simulation of the same stochastic process
//   cluster  ground-truth staleness measured on the full cluster simulator
//            with a single contended key (so the model's single-key
//            assumptions hold exactly)
#include "bench_common.h"

#include "cluster/cluster.h"
#include "common/check.h"

namespace {

using namespace harmony;

struct ClusterPoint {
  double stale_fraction = 0;
  double observed_lambda_w = 0;
  std::vector<double> observed_delays;
  double mean_read_rtt_us = 0;  ///< replica read responsiveness (sampling lag)
};

/// Drive one hot key with Poisson reads/writes on the real cluster and
/// measure ground-truth staleness at read-replica-count k.
ClusterPoint cluster_truth(double lambda_w, double lambda_r, int k,
                           std::uint64_t seed, double horizon_s) {
  sim::Simulation sim(seed);
  cluster::ClusterConfig cfg;
  cfg.node_count = 10;
  cfg.dc_count = 2;
  cfg.rf = 5;
  cfg.latency = net::TieredLatencyModel::grid5000_two_sites();
  cfg.read_repair_chance = 0;  // keep the process pure
  cluster::Cluster c(sim, cfg);
  c.preload_range(1, 1024);

  struct DelayProbe : cluster::ClusterObserver {
    std::vector<double> sums;
    std::uint64_t count = 0;
    double rtt_sum = 0;
    std::uint64_t rtt_count = 0;
    void on_write_propagated(cluster::Key, SimTime,
                             const cluster::DelayList& d) override {
      auto sorted = d;
      std::sort(sorted.begin(), sorted.end());
      if (sums.size() < sorted.size()) sums.resize(sorted.size(), 0.0);
      for (std::size_t i = 0; i < sorted.size(); ++i) {
        sums[i] += static_cast<double>(sorted[i]);
      }
      ++count;
    }
    void on_replica_read_rtt(net::NodeId, SimDuration rtt, bool) override {
      rtt_sum += static_cast<double>(rtt);
      ++rtt_count;
    }
  } probe;
  c.set_observer(&probe);

  Rng rng(seed ^ 0xF00D);
  std::uint64_t stale = 0, judged = 0, writes = 0, reads = 0;
  // Poisson write process from alternating DCs.
  std::function<void(SimTime)> schedule_write = [&](SimTime at) {
    sim.schedule_at(at, [&, at] {
      if (sim.now() > sec(horizon_s)) return;
      ++writes;
      c.client_write(static_cast<net::DcId>(writes % 2), 0, 1024,
                     cluster::resolve_count(1, 5),
                     [](const cluster::WriteResult&) {});
      schedule_write(sim.now() +
                     static_cast<SimDuration>(rng.exponential(1e6 / lambda_w)));
    });
  };
  std::function<void(SimTime)> schedule_read = [&](SimTime at) {
    sim.schedule_at(at, [&] {
      if (sim.now() > sec(horizon_s)) return;
      ++reads;
      c.client_read(static_cast<net::DcId>(reads % 2), 0,
                    cluster::resolve_count(k, 5),
                    [&](const cluster::ReadResult& r) {
                      if (r.ok) {
                        ++judged;
                        if (r.stale) ++stale;
                      }
                    });
      schedule_read(sim.now() +
                    static_cast<SimDuration>(rng.exponential(1e6 / lambda_r)));
    });
  };
  schedule_write(1000);
  schedule_read(1500);
  sim.run();

  ClusterPoint p;
  p.stale_fraction = judged ? static_cast<double>(stale) /
                                  static_cast<double>(judged)
                            : 0.0;
  p.observed_lambda_w = static_cast<double>(writes) / horizon_s;
  if (probe.count > 0) {
    for (double s : probe.sums) {
      p.observed_delays.push_back(s / static_cast<double>(probe.count));
    }
  }
  if (probe.rtt_count > 0) {
    p.mean_read_rtt_us = probe.rtt_sum / static_cast<double>(probe.rtt_count);
  }
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace harmony;
  const auto args = bench::BenchArgs::parse(argc, argv, 0, {"horizon"});
  const double horizon_s =
      args.config.get_double("horizon", 25.0);

  bench::print_header(
      "Figure 1 — stale-read window model validation",
      "single contended key, rf=5 over 2 DCs (Grid'5000 WAN profile);\n"
      "closed form vs Monte-Carlo vs full-cluster ground truth");

  TextTable table({"lambda_w (w/s)", "k", "closed-form", "monte-carlo",
                   "closed+offset", "cluster truth", "|closed-mc|"});

  double worst_gap = 0;
  double worst_cluster_gap = 0;
  for (const double lambda_w : {50.0, 200.0, 800.0}) {
    for (const int k : {1, 2, 3}) {
      // Ground truth first: it also yields the observed propagation profile
      // that the analytic forms consume (exactly what Harmony's monitor
      // would feed them).
      const auto truth =
          cluster_truth(lambda_w, /*lambda_r=*/2000.0, k, args.seed, horizon_s);

      core::StaleModelParams params;
      params.lambda_w = truth.observed_lambda_w;
      params.prop_delays_us = truth.observed_delays;
      params.write_acks = 1;
      const core::StaleReadModel model(params);
      const double closed = model.p_stale(k);
      Rng rng(args.seed ^ 0xABCD);
      const double mc = core::StaleReadModel::monte_carlo_p_stale(
          params, k, 2000.0, horizon_s * 4, rng);

      // With the read-path sampling offset (a read observes replica state
      // after its own request latency) the model tracks ground truth.
      auto offset_params = params;
      offset_params.read_offset_us = truth.mean_read_rtt_us;
      const core::StaleReadModel offset_model(offset_params);
      const double offset_closed = offset_model.p_stale(k);

      worst_gap = std::max(worst_gap, std::abs(closed - mc));
      worst_cluster_gap = std::max(
          worst_cluster_gap, std::abs(offset_closed - truth.stale_fraction));
      table.add_row({TextTable::num(lambda_w, 0), std::to_string(k),
                     TextTable::pct(closed), TextTable::pct(mc),
                     TextTable::pct(offset_closed),
                     TextTable::pct(truth.stale_fraction),
                     TextTable::num(std::abs(closed - mc), 4)});
    }
  }
  bench::print_table(table, args.csv);
  std::printf("\n");
  bench::claim(
      "Fig. 1: a read is stale iff it starts inside [Xw, Xw+Tp] and misses "
      "every contacted replica",
      "closed form matches Monte-Carlo within " +
          bench::fmt("%.3f", worst_gap) +
          " absolute; with the read-sampling offset it matches cluster "
          "ground truth within " +
          bench::fmt("%.3f", worst_cluster_gap) +
          " (the uncorrected form is the paper's conservative estimate)");
  return 0;
}
