// Shared plumbing for the paper-reproduction benches.
//
// Every bench accepts:
//   --ops=N      operation budget per run (default: experiment-specific,
//                scaled down from the paper's 3M/5M/10M so a laptop core
//                finishes in seconds; shapes are preserved)
//   --scale=F    multiply the default op budget by F (use --scale=75 or so
//                to approach paper scale)
//   --seed=S     base simulation seed (replicate i runs with seed S+i)
//   --seeds=N    replicates per table row (default 3); rows report the
//                across-seed mean ±95% CI
//   --jobs=M     worker threads for the sweep (default 0 = every CPU of
//                the affinity mask; output is byte-identical for any value,
//                incl. --jobs=1)
//   --csv        also dump rows as CSV (for plotting)
// plus the flags the bench names itself, and prints the paper's table plus a
// paper-vs-measured footer. Any other argument, or a value that does not
// parse in full, exits with code 2 and a message naming it.
#pragma once

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.h"
#include "common/table.h"
#include "core/stale_model.h"
#include "workload/runner.h"
#include "workload/sweep.h"

namespace harmony::bench {

struct BenchArgs {
  std::uint64_t ops;
  std::uint64_t seed;
  unsigned seeds = 3;
  std::size_t jobs = 0;
  bool csv = false;
  Config config;

  /// `extra_flags` names the bench's own flags beyond the six above.
  static BenchArgs parse(
      int argc, char** argv, std::uint64_t default_ops,
      std::initializer_list<std::string_view> extra_flags = {}) {
    std::vector<std::string_view> flags = {"ops",   "scale", "seed",
                                           "seeds", "jobs",  "csv"};
    flags.insert(flags.end(), extra_flags.begin(), extra_flags.end());
    BenchArgs a;
    a.config = Config::from_args(argc, argv, flags);
    const double scale = a.config.get_double("scale", 1.0);
    a.ops = static_cast<std::uint64_t>(
        static_cast<double>(a.config.get_int("ops", static_cast<std::int64_t>(
                                                        default_ops))) *
        scale);
    if (a.ops < 1000) a.ops = 1000;
    a.seed = static_cast<std::uint64_t>(a.config.get_int("seed", 42));
    a.seeds = static_cast<unsigned>(
        std::max<std::int64_t>(1, a.config.get_int("seeds", 3)));
    a.jobs = static_cast<std::size_t>(
        std::max<std::int64_t>(0, a.config.get_int("jobs", 0)));
    a.csv = a.config.get_bool("csv", false);
    return a;
  }

  workload::SweepOptions sweep_options() const {
    workload::SweepOptions opts;
    opts.seeds = seeds;
    opts.jobs = jobs;
    return opts;
  }

  /// "3 seeds (42..44)" — for bench headers.
  std::string seeds_note() const {
    return std::to_string(seeds) + (seeds == 1 ? " seed (" : " seeds (") +
           std::to_string(seed) +
           (seeds == 1 ? "" : ".." + std::to_string(seed + seeds - 1)) + ")";
  }
};

inline void print_header(const std::string& title, const std::string& setup) {
  std::printf("=== %s ===\n%s\n\n", title.c_str(), setup.c_str());
}

inline void print_table(const TextTable& table, bool csv) {
  std::cout << table;
  if (csv) std::cout << "\nCSV:\n" << table.to_csv();
}

/// paper-vs-measured footer line.
inline void claim(const std::string& paper, const std::string& measured) {
  std::printf("paper:    %s\nmeasured: %s\n\n", paper.c_str(), measured.c_str());
}

inline std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

// ---- mean ±CI cell formatters ---------------------------------------------
// Single-seed sweeps print the bare mean (the CI half-width is 0 and would
// only add noise); multi-seed sweeps append the 95% CI half-width.

/// "1234 ±56" (numeric, fixed precision).
inline std::string ci_num(const workload::MetricSummary& m, int precision = 0) {
  char spec[16];
  std::snprintf(spec, sizeof spec, "%%.%df", precision);
  std::string out = fmt(spec, m.mean);
  if (m.n > 1) out += " ±" + fmt(spec, m.ci95);
  return out;
}

/// "31.0% ±0.8" (fractions in, percent out).
inline std::string ci_pct(const workload::MetricSummary& m, int precision = 1) {
  char spec[16];
  std::snprintf(spec, sizeof spec, "%%.%df", precision);
  std::string out = fmt(spec, m.mean * 100.0) + "%";
  if (m.n > 1) out += " ±" + fmt(spec, m.ci95 * 100.0);
  return out;
}

/// "1.23ms ±40us" (microsecond metrics, human-readable units).
inline std::string ci_dur(const workload::MetricSummary& m) {
  std::string out = format_duration(static_cast<SimDuration>(m.mean));
  if (m.n > 1) {
    out += " ±" + format_duration(static_cast<SimDuration>(m.ci95));
  }
  return out;
}

/// "$0.0123 ±0.0004".
inline std::string ci_money(const workload::MetricSummary& m) {
  std::string out = "$" + fmt("%.4f", m.mean);
  if (m.n > 1) out += " ±" + fmt("%.4f", m.ci95);
  return out;
}

/// Fig. 1 estimate of the stale-read probability for a finished run, using
/// the *paper's* coarse approximation: every write contends (system-wide
/// rates) and the read position is uniform within the window. This is the
/// number the paper reports when it says "N% of reads are estimated to be
/// up-to-date" — print it next to the oracle ground truth.
inline double paper_style_estimate(const workload::RunResult& r, int rf,
                                   int read_replicas, int write_acks) {
  core::StaleModelParams params;
  params.lambda_w = r.duration_s > 0
                        ? static_cast<double>(r.writes) / r.duration_s
                        : 0.0;
  params.write_acks = write_acks;
  params.contention = 1.0;  // the paper's system-wide approximation
  params.prop_delays_us = r.final_state.prop_delays_us;  // observed profile
  while (params.prop_delays_us.size() < static_cast<std::size_t>(rf) &&
         !params.prop_delays_us.empty()) {
    params.prop_delays_us.push_back(params.prop_delays_us.back());
  }
  const core::StaleReadModel model(std::move(params));
  const int k = std::min(read_replicas, model.replica_count());
  return k >= 1 ? model.p_stale_uniform_window(k) : 0.0;
}

/// Across-seed summary of the paper-style stale estimate for one sweep cell.
inline workload::MetricSummary estimate_summary(const workload::SweepStats& s,
                                                int rf, int write_acks) {
  return s.over([rf, write_acks](const workload::RunResult& r) {
    const int k = std::max(1, static_cast<int>(r.avg_read_replicas + 0.5));
    return paper_style_estimate(r, rf, k, write_acks);
  });
}

}  // namespace harmony::bench
