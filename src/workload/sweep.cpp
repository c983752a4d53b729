#include "workload/sweep.h"

#include <cmath>
#include <mutex>

#include "common/check.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"

namespace harmony::workload {

namespace {

/// Collects per-(cell, seed) results from sweep workers. Slots are addressed
/// by flat index (cell * seeds + replicate) so scheduling order cannot leak
/// into aggregation order; the mutex makes the cross-thread handoff a
/// machine-checked contract (-Wthread-safety) and a visible happens-before
/// edge for TSan, instead of relying on disjoint-index reasoning alone. One
/// lock per completed simulation is noise next to the run itself.
class ResultSink {
 public:
  explicit ResultSink(std::size_t n) : results_(n) {}

  void put(std::size_t slot, RunResult r) EXCLUDES(mutex_) {
    std::lock_guard<std::mutex> lock(mutex_);
    results_[slot] = std::move(r);
  }

  /// Steals the collected results; the sink is spent afterwards.
  std::vector<RunResult> take() EXCLUDES(mutex_) {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::move(results_);
  }

 private:
  std::mutex mutex_;
  std::vector<RunResult> results_ GUARDED_BY(mutex_);
};

/// Two-sided Student-t 0.975 quantiles for df = 1..30; the normal quantile
/// is within 1% beyond that.
constexpr double kT975[30] = {
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};

double t975(std::size_t df) {
  if (df == 0) return 0.0;
  return df <= 30 ? kT975[df - 1] : 1.96;
}

}  // namespace

MetricSummary summarize_metric(const std::vector<double>& xs) {
  MetricSummary s;
  s.n = xs.size();
  if (xs.empty()) return s;
  s.min = s.max = xs.front();
  double sum = 0;
  for (const double x : xs) {
    sum += x;
    if (x < s.min) s.min = x;
    if (x > s.max) s.max = x;
  }
  s.mean = sum / static_cast<double>(s.n);
  if (s.n >= 2) {
    double ss = 0;
    for (const double x : xs) ss += (x - s.mean) * (x - s.mean);
    s.stddev = std::sqrt(ss / static_cast<double>(s.n - 1));
    s.ci95 = t975(s.n - 1) * s.stddev /
             std::sqrt(static_cast<double>(s.n));
  }
  return s;
}

MetricSummary SweepStats::over(
    const std::function<double(const RunResult&)>& metric) const {
  std::vector<double> xs;
  xs.reserve(runs.size());
  for (const RunResult& r : runs) xs.push_back(metric(r));
  return summarize_metric(xs);
}

SweepRunner::SweepRunner(SweepOptions opts) : opts_(opts) {
  HARMONY_CHECK_MSG(opts_.seeds >= 1, "SweepOptions.seeds must be >= 1");
}

std::size_t SweepRunner::add(RunConfig cfg) {
  HARMONY_CHECK_MSG(cfg.policy != nullptr, "RunConfig.policy is required");
  cells_.push_back(std::move(cfg));
  return cells_.size() - 1;
}

SweepStats SweepRunner::aggregate(std::vector<RunResult> runs) {
  HARMONY_CHECK_MSG(!runs.empty(), "aggregate() needs at least one run");
  SweepStats s;
  s.label = runs.front().label;
  s.policy_name = runs.front().policy_name;
  s.runs = std::move(runs);
  for (const RunResult& r : s.runs) {
    s.read_latency.merge(r.read_latency);
    s.write_latency.merge(r.write_latency);
    s.staleness_age.merge(r.staleness_age);
  }
  s.throughput = s.over([](const RunResult& r) { return r.throughput; });
  s.stale_fraction = s.over([](const RunResult& r) { return r.stale_fraction; });
  s.avg_read_replicas =
      s.over([](const RunResult& r) { return r.avg_read_replicas; });
  s.bill_total = s.over([](const RunResult& r) { return r.bill.total(); });
  return s;
}

std::vector<SweepStats> SweepRunner::run() {
  const std::size_t seeds = opts_.seeds;
  const std::size_t total = cells_.size() * seeds;
  ResultSink sink(total);

  // Flat index = cell * seeds + replicate: the simulation runs outside the
  // sink's lock, and the slot write is the only shared-state touch.
  const bool parallel_grid = opts_.jobs != 1 && total > 1;
  const auto run_one = [&](std::size_t flat) {
    RunConfig cfg = cells_[flat / seeds];
    cfg.seed += flat % seeds;
    // No nested parallelism: a parallel grid already saturates the pool, so
    // sharded cells keep their shard layout but run it merged-serial, and a
    // cell's set-up stays serial on its pool worker (setup_threads()). The
    // results are identical by the sharding determinism contract.
    if (parallel_grid && cfg.num_shard_threads > 1) cfg.num_shard_threads = 1;
    sink.put(flat, run_experiment(cfg));
  };

  if (opts_.jobs == 1 || total <= 1) {
    for (std::size_t i = 0; i < total; ++i) run_one(i);
  } else {
    ThreadPool pool(opts_.jobs);
    pool.parallel_for(total, run_one);
  }

  std::vector<RunResult> results = sink.take();
  std::vector<SweepStats> out;
  out.reserve(cells_.size());
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    std::vector<RunResult> cell_runs;
    cell_runs.reserve(seeds);
    for (std::size_t i = 0; i < seeds; ++i) {
      cell_runs.push_back(std::move(results[c * seeds + i]));
    }
    out.push_back(aggregate(std::move(cell_runs)));
  }
  return out;
}

std::vector<SweepStats> run_sweep(std::vector<RunConfig> cells,
                                  const SweepOptions& opts) {
  SweepRunner runner(opts);
  for (RunConfig& cfg : cells) runner.add(std::move(cfg));
  return runner.run();
}

}  // namespace harmony::workload
