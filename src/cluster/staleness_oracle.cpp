#include "cluster/staleness_oracle.h"

namespace harmony::cluster {

namespace {
constexpr std::size_t kInitialWindows = 64;  // power of two
constexpr std::size_t kInitialLog = 64;      // power of two
}  // namespace

// ---------------------------------------------------------------- commit log

void StalenessOracle::record_commit(Key key, const Version& version,
                                    SimTime commit_time) {
  if (trace_ != nullptr) trace_->on_commit(key, version, commit_time);
  const SimTime h = horizon(commit_time);
  fold_through(h);
  KeyState& s = *table_.insert(key).first;
  if (commit_time <= h) {
    // No in-flight read predates this commit, so it folds on arrival (as
    // appending it and folding again would).
    if (version.newer_than(s.folded)) s.folded = version;
    return;
  }
  // Commits arrive in commit-time order by construction (simulation time is
  // monotone), so appending keeps the log sorted.
  if (log_end_ - log_begin_ == log_.size()) grow_log();
  log_[log_end_ & log_mask_] = {commit_time, version, key, s.newest};
  s.newest = log_end_++;
}

void StalenessOracle::fold_through(SimTime h) {
  // Every read still in flight started at or after the horizon, so a
  // judgement can only distinguish commits after it; fold everything at or
  // before the horizon into its key's max version. The log is sorted by
  // commit time, so those commits are its front.
  folded_through_ = std::max(folded_through_, h);
  while (log_begin_ != log_end_) {
    const LogEntry& c = log_[log_begin_ & log_mask_];
    if (c.commit_time > h) break;
    KeyState& s = *table_.find(c.key);  // inserted when c was appended
    if (c.version.newer_than(s.folded)) s.folded = c.version;
    ++log_begin_;
  }
}

void StalenessOracle::grow_log() {
  // Positions are absolute, so each live entry keeps its position and only
  // its slot moves under the wider mask. Growth is warm-up-only: the log
  // keeps its high-water capacity (alloc_guard-pinned).
  std::vector<LogEntry> next(log_.empty() ? kInitialLog : log_.size() * 2);
  const LogPos next_mask = next.size() - 1;
  for (LogPos p = log_begin_; p != log_end_; ++p) {
    next[p & next_mask] = log_[p & log_mask_];
  }
  log_.swap(next);
  log_mask_ = next_mask;
}

// ------------------------------------------------------------- read windows

void StalenessOracle::begin_read(SimTime read_start) {
  if (trace_ != nullptr) trace_->on_begin_read(read_start);
  ++inflight_count_;
  if (window_count_ > 0) {
    Window& back =
        windows_[(window_head_ + window_count_ - 1) & window_mask_];
    HARMONY_CHECK_MSG(read_start >= back.start,
                      "read starts must arrive in monotone order");
    if (back.start == read_start) {
      ++back.live;
      return;
    }
  }
  if (window_count_ == windows_.size()) {
    // Drained mid-ring windows are only kept so end_read can pop them
    // lazily; under capacity pressure drop them wholesale first, and grow
    // only when truly full of live windows (bounded by concurrent reads).
    compact_windows();
  }
  if (window_count_ == windows_.size()) {
    std::vector<Window> next(windows_.empty() ? kInitialWindows
                                              : windows_.size() * 2);
    for (std::uint32_t i = 0; i < window_count_; ++i) {
      next[i] = windows_[(window_head_ + i) & window_mask_];
    }
    windows_.swap(next);
    window_head_ = 0;
    window_mask_ = static_cast<std::uint32_t>(windows_.size() - 1);
  }
  windows_[(window_head_ + window_count_) & window_mask_] = {read_start, 1};
  ++window_count_;
}

void StalenessOracle::compact_windows() {
  // In-place, order-preserving removal of zero-live windows: reads lead
  // writes, so copying forward through the ring never clobbers.
  std::uint32_t kept = 0;
  for (std::uint32_t i = 0; i < window_count_; ++i) {
    const Window w = windows_[(window_head_ + i) & window_mask_];
    if (w.live > 0) {
      windows_[(window_head_ + kept) & window_mask_] = w;
      ++kept;
    }
  }
  window_count_ = kept;
}

void StalenessOracle::end_read(SimTime read_start) {
  if (trace_ != nullptr) trace_->on_end_read(read_start);
  if (window_count_ == 0) return;
  // Reads mostly complete in FIFO order, so the oldest window is the common
  // target; handle it without the search.
  {
    Window& front = windows_[window_head_ & window_mask_];
    if (front.start == read_start) {
      --front.live;
      --inflight_count_;
      while (window_count_ > 0 &&
             windows_[window_head_ & window_mask_].live == 0) {
        ++window_head_;
        --window_count_;
      }
      return;
    }
  }
  // Window starts are strictly increasing, so the matching entry (if any) is
  // found by binary search over the logical ring order.
  std::uint32_t lo = 0, hi = window_count_;
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (windows_[(window_head_ + mid) & window_mask_].start < read_start) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == window_count_) return;  // unpaired end: ignore
  Window& w = windows_[(window_head_ + lo) & window_mask_];
  if (w.start != read_start || w.live == 0) return;
  --w.live;
  --inflight_count_;
  // Drained windows advance the horizon only once they reach the front;
  // mid-ring zeros wait there (they cannot affect the minimum).
  while (window_count_ > 0 &&
         windows_[window_head_ & window_mask_].live == 0) {
    ++window_head_;
    --window_count_;
  }
}

StalenessOracle::Judgement StalenessOracle::judge(Key key,
                                                  const Version& returned,
                                                  SimTime read_start) {
  HARMONY_CHECK_MSG(read_start >= folded_through_,
                    "judge() of a read that starts before the fold horizon "
                    "(never registered with begin_read)");
  Judgement j;
  const KeyState* s = table_.find(key);
  if (s == nullptr) {
    ++fresh_;  // nothing ever committed: any answer is fresh
    if (trace_ != nullptr) trace_->on_judge(key, returned, read_start, j);
    return j;
  }
  // Latest version committed at or before the read start: every folded
  // commit qualifies (it is at or before the fold horizon), and the chain
  // holds the rest. Versions are not guaranteed monotone in commit order
  // (two concurrent writes may commit out of timestamp order), so scan for
  // the max.
  Version latest = s->folded;
  for (LogPos p = s->newest; p >= log_begin_;) {
    const LogEntry& c = log_[p & log_mask_];
    if (c.commit_time <= read_start && c.version.newer_than(latest)) {
      latest = c.version;
    }
    p = c.prev;
  }
  if (latest.newer_than(returned)) {
    j.stale = true;
    j.age = latest.timestamp - returned.timestamp;
    if (j.age < 0) j.age = 0;
    ++stale_;
    age_hist_.record(j.age);
  } else {
    ++fresh_;
  }
  if (trace_ != nullptr) trace_->on_judge(key, returned, read_start, j);
  return j;
}

std::size_t StalenessOracle::history_size(Key key) const {
  const KeyState* s = table_.find(key);
  if (s == nullptr) return 0;
  std::size_t n = s->folded == kNoVersion ? 0 : 1;
  for (LogPos p = s->newest; p >= log_begin_; p = log_[p & log_mask_].prev) {
    ++n;
  }
  return n;
}

}  // namespace harmony::cluster
