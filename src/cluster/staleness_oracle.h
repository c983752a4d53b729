// Ground-truth staleness tracking.
//
// The paper estimates stale reads probabilistically; the simulator can *know*.
// The oracle watches every acknowledged write and judges every completed read:
// a read is stale iff some write that committed before the read started has a
// newer version than the one returned. It also measures the *staleness age*
// (how far behind the returned value was), which the freshness-deadline
// extension (§V) builds on.
//
// Callers register reads with begin_read()/end_read() so the oracle knows how
// far back in-flight reads can look; commit history older than the oldest
// in-flight read is folded into a single max-version entry per key, keeping
// memory bounded without ever evicting a version a pending judgement needs.
//
// Hot-path layout (the oracle sits on every request the simulator serves):
//   * per-key history lives in an open-addressing table with the commits held
//     in a small inline ring (heap spill only for write storms that outrun an
//     in-flight read, and the spill capacity is kept for reuse), so a commit
//     or judgement costs one probe sequence and no allocation;
//   * in-flight read starts arrive in monotone simulation order, so the
//     multiset the correctness rework introduced is replaced by a ring of
//     {start, live-count} windows: begin_read is an increment on the back,
//     end_read a binary search plus decrement, horizon a front peek.
// Judgement semantics are identical to the correctness-first implementation;
// tests/reference/reference_oracle.h keeps a naive twin that the differential
// harness replays against this one.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
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

  /// Commits currently retained for `key` (test/diagnostic hook).
  std::size_t history_size(Key key) const;
  std::size_t inflight_reads() const { return inflight_count_; }

 private:
  struct Commit {
    SimTime commit_time;
    Version version;
  };

  /// Reuse pool for commit-ring spill buffers, shared across keys: a ring
  /// that outgrows its inline array borrows a buffer here and hands it back
  /// once folding shrinks the history again, so after warm-up a write storm
  /// on a *new* hot key is served from buffers earlier storms paid for.
  class SpillPool {
   public:
    static constexpr std::uint32_t kClasses = 24;  // caps 8 .. 8*2^23
    /// Buffers retained per class; surplus is freed on put, which bounds the
    /// pool's memory and keeps the bins inline (put/take never allocate).
    static constexpr std::uint32_t kDepth = 16;

    std::unique_ptr<Commit[]> take(std::uint32_t cls) {
      if (cls >= kClasses) return nullptr;  // beyond-pool sizes: plain alloc
      Bin& bin = bins_[cls];
      if (bin.count == 0) return nullptr;
      return std::move(bin.bufs[--bin.count]);
    }
    void put(std::uint32_t cls, std::unique_ptr<Commit[]> buf) {
      if (cls >= kClasses) return;  // beyond-pool sizes: let the buffer die
      Bin& bin = bins_[cls];
      if (bin.count < kDepth) bin.bufs[bin.count++] = std::move(buf);
      // else: drop the buffer; a bin deeper than kDepth is dead weight
    }

   private:
    struct Bin {
      std::unique_ptr<Commit[]> bufs[kDepth];
      std::uint32_t count = 0;
    };
    Bin bins_[kClasses];
  };

  /// Ring buffer of commits ordered by commit_time. The common case (history
  /// folded to one or a few entries) lives entirely in the inline array; a
  /// write storm overlapping a slow read spills to a pool buffer that is
  /// returned as soon as the history folds back down.
  class CommitRing {
   public:
    CommitRing() = default;
    CommitRing(CommitRing&& o) noexcept { move_from(o); }
    CommitRing& operator=(CommitRing&& o) noexcept {
      if (this != &o) {
        heap_.reset();
        move_from(o);
      }
      return *this;
    }
    CommitRing(const CommitRing&) = delete;
    CommitRing& operator=(const CommitRing&) = delete;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /// Logical index from the front (0 = oldest retained commit).
    Commit& operator[](std::size_t i) { return data()[(head_ + i) & mask_]; }
    const Commit& operator[](std::size_t i) const {
      return data()[(head_ + i) & mask_];
    }
    Commit& front() { return data()[head_]; }

    void push_back(const Commit& c, SpillPool& pool) {
      if (size_ == cap()) grow(pool);
      data()[(head_ + size_) & mask_] = c;
      ++size_;
    }
    void pop_front() {
      head_ = (head_ + 1) & mask_;
      --size_;
    }
    /// Return the spill buffer to the pool once the inline array suffices
    /// again (call after folding).
    void maybe_release_spill(SpillPool& pool) {
      if (!heap_ || size_ > kInline) return;
      for (std::uint32_t i = 0; i < size_; ++i) {
        inline_[i] = heap_[(head_ + i) & mask_];
      }
      pool.put(cap_class(cap()), std::move(heap_));
      head_ = 0;
      mask_ = kInline - 1;
    }

   private:
    static constexpr std::uint32_t kInline = 4;  // power of two

    /// Pool bin for a spill capacity: 8 -> 0, 16 -> 1, ...
    static std::uint32_t cap_class(std::uint32_t cap) {
      std::uint32_t cls = 0;
      while (cap > 2 * kInline) {
        cap /= 2;
        ++cls;
      }
      return cls;
    }

    std::uint32_t cap() const { return mask_ + 1; }
    Commit* data() { return heap_ ? heap_.get() : inline_; }
    const Commit* data() const { return heap_ ? heap_.get() : inline_; }
    void grow(SpillPool& pool);
    void move_from(CommitRing& o) {
      heap_ = std::move(o.heap_);
      if (!heap_) std::memcpy(inline_, o.inline_, sizeof inline_);
      head_ = o.head_;
      size_ = o.size_;
      mask_ = o.mask_;
      o.head_ = o.size_ = 0;
      o.mask_ = kInline - 1;
    }

    Commit inline_[kInline];
    std::unique_ptr<Commit[]> heap_;  // nullptr while inline suffices
    std::uint32_t head_ = 0;
    std::uint32_t size_ = 0;
    std::uint32_t mask_ = kInline - 1;
  };

  /// Oldest instant an in-flight (or future) read may look back to.
  SimTime horizon(SimTime now) const {
    return inflight_count_ == 0
               ? now
               : std::min(now, windows_[window_head_ & window_mask_].start);
  }

  CommitRing& history_for(Key key) { return *table_.insert(key).first; }
  const CommitRing* find_history(Key key) const { return table_.find(key); }
  void fold(CommitRing& q, SimTime h);

  // Per-key commit rings in the shared open-addressing table (hash64, linear
  // probe, 50% load, never-erase — common/flat_table.h).
  FlatTable<CommitRing> table_{256};

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

  SpillPool spill_pool_;

  TraceSink* trace_ = nullptr;
  std::uint64_t fresh_ = 0, stale_ = 0;
  LatencyHistogram age_hist_;
};

}  // namespace harmony::cluster
