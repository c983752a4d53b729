#include "cluster/staleness_oracle.h"

#include "common/rng.h"

namespace harmony::cluster {

namespace {
constexpr std::size_t kInitialWindows = 64;   // power of two
}  // namespace

// ------------------------------------------------------------- commit rings

void StalenessOracle::CommitRing::grow(SpillPool& pool) {
  const std::uint32_t new_cap = cap() * 2;
  auto next = pool.take(cap_class(new_cap));
  // lint: allow(hot-path-alloc): ring growth is warm-up-only; steady state
  // recycles rings through the spill pool (alloc_guard-pinned).
  if (!next) next = std::make_unique<Commit[]>(new_cap);
  for (std::uint32_t i = 0; i < size_; ++i) next[i] = (*this)[i];
  if (heap_) pool.put(cap_class(cap()), std::move(heap_));
  heap_ = std::move(next);
  head_ = 0;
  mask_ = new_cap - 1;
}

void StalenessOracle::fold(CommitRing& q, SimTime h) {
  // Every read still in flight started at or after the horizon, so a
  // judgement can only distinguish commits after it; fold everything at or
  // before the horizon into one entry carrying the max version seen so far.
  while (q.size() >= 2 && q[1].commit_time <= h) {
    if (q[0].version.newer_than(q[1].version)) q[1].version = q[0].version;
    q.pop_front();
  }
}

// ------------------------------------------------------------ oracle proper

void StalenessOracle::record_commit(Key key, const Version& version,
                                    SimTime commit_time) {
  if (trace_ != nullptr) trace_->on_commit(key, version, commit_time);
  CommitRing& q = history_for(key);
  // Commits arrive in commit-time order by construction (simulation time is
  // monotone), so push_back keeps the ring sorted.
  q.push_back({commit_time, version}, spill_pool_);
  fold(q, horizon(commit_time));
  q.maybe_release_spill(spill_pool_);
}

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
  Judgement j;
  const CommitRing* q = find_history(key);
  if (q == nullptr) {
    ++fresh_;  // nothing ever committed: any answer is fresh
    if (trace_ != nullptr) trace_->on_judge(key, returned, read_start, j);
    return j;
  }
  // Latest version committed strictly before the read started. Versions are
  // not guaranteed monotone in commit order (two concurrent writes may commit
  // out of timestamp order), so scan for the max.
  Version latest = kNoVersion;
  const std::size_t n = q->size();
  for (std::size_t i = 0; i < n; ++i) {
    const Commit& c = (*q)[i];
    if (c.commit_time > read_start) break;  // ring is sorted by commit_time
    if (c.version.newer_than(latest)) latest = c.version;
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
  const CommitRing* q = find_history(key);
  return q == nullptr ? 0 : q->size();
}

}  // namespace harmony::cluster
