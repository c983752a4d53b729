// Multi-seed / multi-variant experiment sweeps.
//
// Every paper figure is an embarrassingly parallel grid of independent
// single-seed runs. SweepRunner executes that grid — named RunConfig variants
// x n_seeds replicates — on common/thread_pool and aggregates each cell's
// RunResults into SweepStats (mean / stddev / 95% confidence interval per
// metric, histograms combined via LatencyHistogram::merge).
//
// Determinism: each cell+seed is an independent single-threaded Simulation,
// and results are collected in grid order (cells in insertion order, seeds
// ascending), so the aggregated output is byte-identical for any `jobs`
// value — `jobs = 1` reproduces a plain serial loop over run_experiment().
//
// Thread safety: workers hand results to a mutex-guarded, slot-addressed
// ResultSink (annotated for clang -Wthread-safety in sweep.cpp); aggregation
// only starts after parallel_for joins every worker. The TSan CI job runs
// this sweep under -fsanitize=thread (see docs/INVARIANTS.md).
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "workload/runner.h"

namespace harmony::workload {

/// Mean and dispersion of one scalar metric across a cell's seeds.
struct MetricSummary {
  std::size_t n = 0;
  double mean = 0;
  double stddev = 0;  ///< sample standard deviation (0 when n < 2)
  double ci95 = 0;    ///< 95% CI half-width (Student t; 0 when n < 2)
  double min = 0;
  double max = 0;
};

/// Summarize a complete sample; ci95 uses the two-sided Student-t quantile
/// for n-1 degrees of freedom, so small seed counts get honest intervals.
MetricSummary summarize_metric(const std::vector<double>& xs);

/// Aggregate view of one grid cell (one RunConfig variant across all seeds).
struct SweepStats {
  std::string label;
  std::string policy_name;
  /// Per-seed results, ascending seed order (runs[i] used seed base+i).
  std::vector<RunResult> runs;

  // Histograms merged across seeds (every observation, not a mean-of-means).
  LatencyHistogram read_latency;
  LatencyHistogram write_latency;
  LatencyHistogram staleness_age;

  // Common scalar metrics, pre-summarized across seeds.
  MetricSummary throughput;
  MetricSummary stale_fraction;
  MetricSummary avg_read_replicas;
  MetricSummary bill_total;

  /// Summarize any per-run metric across this cell's seeds.
  MetricSummary over(const std::function<double(const RunResult&)>& metric) const;
};

struct SweepOptions {
  /// Replicates per cell; replicate i runs with seed = RunConfig::seed + i.
  unsigned seeds = 1;
  /// Worker threads; 0 = usable_cpus() (the affinity mask), 1 = run
  /// serially inline.
  std::size_t jobs = 1;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions opts = {});

  /// Append one grid cell; returns its index (results keep this order).
  std::size_t add(RunConfig cfg);
  std::size_t cell_count() const { return cells_.size(); }

  /// Execute cells x seeds and aggregate. Deterministic in configs and seeds
  /// regardless of `jobs`.
  std::vector<SweepStats> run();

  /// Aggregate already-computed per-seed results of one cell.
  static SweepStats aggregate(std::vector<RunResult> runs);

 private:
  SweepOptions opts_;
  std::vector<RunConfig> cells_;
};

/// One-call convenience: add every cell, run, aggregate.
std::vector<SweepStats> run_sweep(std::vector<RunConfig> cells,
                                  const SweepOptions& opts = {});

}  // namespace harmony::workload
