// Ground-truth staleness tracking.
//
// The paper estimates stale reads probabilistically; the simulator can *know*.
// The oracle watches every acknowledged write and judges every completed read:
// a read is stale iff some write that committed before the read started has a
// newer version than the one returned. It also measures the *staleness age*
// (how far behind the returned value was), which the freshness-deadline
// extension (§V) builds on.
//
// Judge contract: a read is judged between its begin_read() and end_read().
// The registered starts give the *horizon*, the oldest instant an in-flight
// read can look back to (now, when none is in flight). No read can tell
// commits at or before the horizon apart, so they fold into one max version
// per key. judge() checks that the read starts at or after the highest fold
// horizon so far: a read never registered may start earlier, and its
// judgement would count folded commits that landed after it started.
//
// Layout (the oracle sits on every request the simulator serves):
//   * a 32-byte entry per written key in an open-addressing table: the key,
//     the max version of its folded commits, and the log position of its
//     newest unfolded commit;
//   * one shared commit log, a ring buffer in commit-time order of only the
//     commits newer than the horizon, each linked to its key's previous
//     unfolded commit. record_commit folds the log's front up to the horizon
//     into the table and appends the new commit (folding it at once when no
//     in-flight read predates it); judge starts from the key's folded max and
//     walks its chain;
//   * in-flight read starts arrive in monotone simulation order, so they
//     live in a ring of {start, live-count} windows: begin_read is an
//     increment on the back, end_read a binary search plus decrement,
//     horizon a front peek.
// Memory is one table entry per written key plus a log no longer than the
// commits made during the oldest in-flight read; the log keeps its
// high-water capacity, so after warm-up neither call allocates.
// tests/reference/reference_oracle.h keeps a naive twin that the
// differential harness replays against this one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "cluster/versioned_value.h"
#include "common/check.h"
#include "common/flat_table.h"
#include "common/histogram.h"

namespace harmony::cluster {

class StalenessOracle {
 public:
  /// A write reached its client-visible commit point (required acks met).
  /// Commit times arrive in monotone simulation order.
  void record_commit(Key key, const Version& version, SimTime commit_time);

  /// A read started at `read_start`; commits at or before that instant must
  /// stay judgeable until the matching end_read(). Pair every begin_read with
  /// exactly one end_read (after judge(), or directly for failed reads).
  /// Start times arrive in monotone simulation order (ends in any order).
  void begin_read(SimTime read_start);
  void end_read(SimTime read_start);

  struct Judgement {
    bool stale = false;
    /// timestamp(latest committed) - timestamp(returned); 0 when fresh.
    SimDuration age = 0;
  };

  /// Judge a completed read that started at `read_start` and returned
  /// `returned` (kNoVersion if the key was missing everywhere contacted).
  /// The read must be registered (begin_read, no end_read yet); CheckError
  /// if it starts before the fold horizon, which only an unregistered read
  /// can.
  Judgement judge(Key key, const Version& returned, SimTime read_start);

  /// Test seam: mirrors every oracle call (in order) to a sink so the
  /// differential harness can replay real cluster traffic through a naive
  /// reference implementation. Null (the default) costs one predicted branch.
  class TraceSink {
   public:
    virtual ~TraceSink() = default;
    virtual void on_commit(Key key, const Version& version, SimTime t) = 0;
    virtual void on_begin_read(SimTime read_start) = 0;
    virtual void on_end_read(SimTime read_start) = 0;
    virtual void on_judge(Key key, const Version& returned, SimTime read_start,
                          const Judgement& judgement) = 0;
  };
  void set_trace_sink(TraceSink* sink) { trace_ = sink; }

  std::uint64_t fresh_reads() const { return fresh_; }
  std::uint64_t stale_reads() const { return stale_; }
  std::uint64_t judged_reads() const { return fresh_ + stale_; }
  double stale_fraction() const {
    const auto n = judged_reads();
    return n ? static_cast<double>(stale_) / static_cast<double>(n) : 0.0;
  }
  /// Distribution of staleness ages over *stale* reads.
  const LatencyHistogram& staleness_age() const { return age_hist_; }

  /// Commits currently retained for `key`: its unfolded commits, plus one
  /// for the folded max once a commit has folded into it (test/diagnostic
  /// hook).
  std::size_t history_size(Key key) const;
  std::size_t inflight_reads() const { return inflight_count_; }

 private:
  /// Position of a commit in the log: monotone and never reused, so a
  /// position below log_begin_ names a folded commit. Positions start at 1,
  /// which leaves 0 for "none".
  using LogPos = std::uint64_t;

  struct KeyState {
    Version folded = kNoVersion;  ///< max version of the folded commits
    LogPos newest = 0;            ///< newest unfolded commit, if >= log_begin_
  };
  static_assert(FlatTable<KeyState>::entry_bytes() == 32,
                "an oracle table entry is 32 bytes: key, folded, newest");

  struct LogEntry {
    SimTime commit_time;
    Version version;
    Key key;
    LogPos prev;  ///< the key's previous unfolded commit, if >= log_begin_
  };

  /// Oldest instant an in-flight (or future) read may look back to.
  SimTime horizon(SimTime now) const {
    return inflight_count_ == 0
               ? now
               : std::min(now, windows_[window_head_ & window_mask_].start);
  }

  /// Fold every log entry committed at or before `h` into its key's entry.
  void fold_through(SimTime h);
  void grow_log();

  // Per-key entries in the shared open-addressing table (hash64, linear
  // probe, 50% load, never-erase — common/flat_table.h).
  FlatTable<KeyState> table_{256};

  std::vector<LogEntry> log_;  // power-of-two ring, positions masked
  LogPos log_mask_ = 0;        // capacity - 1 (0 until first use)
  LogPos log_begin_ = 1;       // oldest unfolded commit
  LogPos log_end_ = 1;         // next position to append
  /// Highest horizon any record_commit folded through (judge's lower bound).
  SimTime folded_through_ = std::numeric_limits<SimTime>::min();

  // In-flight read windows: distinct start times in monotone order, each with
  // the count of reads sharing it. Entries whose count hits zero mid-ring are
  // skipped lazily once they reach the front.
  struct Window {
    SimTime start;
    std::uint32_t live;
  };
  std::vector<Window> windows_;  // power-of-two ring, indices masked
  std::uint32_t window_head_ = 0;   // monotone; masked on access
  std::uint32_t window_count_ = 0;  // entries (distinct starts) in the ring
  std::uint32_t window_mask_ = 0;   // capacity - 1 (0 until first use)
  std::size_t inflight_count_ = 0;  // total reads between begin and end
  void compact_windows();           // drop drained mid-ring windows in place

  TraceSink* trace_ = nullptr;
  std::uint64_t fresh_ = 0, stale_ = 0;
  LatencyHistogram age_hist_;
};

}  // namespace harmony::cluster
