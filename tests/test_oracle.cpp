#include "cluster/staleness_oracle.h"

#include <gtest/gtest.h>

namespace harmony::cluster {
namespace {

TEST(Oracle, FreshWhenNothingCommitted) {
  StalenessOracle o;
  const auto j = o.judge(1, kNoVersion, 100);
  EXPECT_FALSE(j.stale);
  EXPECT_EQ(o.fresh_reads(), 1u);
}

TEST(Oracle, FreshWhenReturningLatest) {
  StalenessOracle o;
  const Version v{50, 1};
  o.record_commit(1, v, 60);
  const auto j = o.judge(1, v, 100);
  EXPECT_FALSE(j.stale);
}

TEST(Oracle, StaleWhenMissingCommittedWrite) {
  StalenessOracle o;
  const Version v1{50, 1}, v2{80, 2};
  o.record_commit(1, v1, 60);
  o.record_commit(1, v2, 90);
  const auto j = o.judge(1, v1, 100);  // read started after v2 committed
  EXPECT_TRUE(j.stale);
  EXPECT_EQ(j.age, 30);  // 80 - 50
  EXPECT_EQ(o.stale_reads(), 1u);
}

TEST(Oracle, WriteCommittedAfterReadStartDoesNotCount) {
  StalenessOracle o;
  const Version v1{50, 1}, v2{80, 2};
  o.record_commit(1, v1, 60);
  o.record_commit(1, v2, 150);  // commits after the read started
  const auto j = o.judge(1, v1, 100);
  EXPECT_FALSE(j.stale);
}

TEST(Oracle, ReturningNewerThanCommittedIsFresh) {
  // A read can return a version whose write has not yet reached its ack
  // count (it saw the replica early). That is not stale.
  StalenessOracle o;
  o.record_commit(1, {50, 1}, 60);
  const auto j = o.judge(1, {80, 2}, 100);
  EXPECT_FALSE(j.stale);
}

TEST(Oracle, KeysAreIndependent) {
  StalenessOracle o;
  o.record_commit(1, {50, 1}, 60);
  const auto j = o.judge(2, kNoVersion, 100);
  EXPECT_FALSE(j.stale);
}

TEST(Oracle, OutOfTimestampOrderCommits) {
  // Two concurrent writes can commit in the opposite of timestamp order;
  // the oracle must track the max version, not the last commit.
  StalenessOracle o;
  o.record_commit(1, {80, 2}, 90);
  o.record_commit(1, {50, 1}, 95);  // older write commits later
  const auto j = o.judge(1, {80, 2}, 100);
  EXPECT_FALSE(j.stale);
  const auto j2 = o.judge(1, {50, 1}, 100);
  EXPECT_TRUE(j2.stale);
}

TEST(Oracle, StaleFraction) {
  StalenessOracle o;
  o.record_commit(1, {10, 1}, 20);
  o.record_commit(1, {30, 2}, 40);
  o.judge(1, {30, 2}, 50);  // fresh
  o.judge(1, {10, 1}, 50);  // stale
  o.judge(1, {10, 1}, 50);  // stale
  EXPECT_NEAR(o.stale_fraction(), 2.0 / 3.0, 1e-12);
  EXPECT_EQ(o.judged_reads(), 3u);
}

TEST(Oracle, AgeHistogramOnlyTracksStale) {
  StalenessOracle o;
  o.record_commit(1, {10, 1}, 20);
  o.record_commit(1, {100, 2}, 110);
  o.judge(1, {10, 1}, 200);
  EXPECT_EQ(o.staleness_age().count(), 1u);
  EXPECT_EQ(o.staleness_age().max(), 90);
}

TEST(Oracle, PruningKeepsRecentHistory) {
  StalenessOracle o;
  // 100 commits with no read in flight; history folds to a single max-version
  // entry, which is all any future read needs.
  for (int i = 0; i < 100; ++i) {
    o.record_commit(1, {i * 10, static_cast<std::uint64_t>(i)}, i * 10 + 5);
  }
  const auto j = o.judge(1, {990, 99}, 1000);
  EXPECT_FALSE(j.stale);
  const auto j2 = o.judge(1, {980, 98}, 1000);
  EXPECT_TRUE(j2.stale);
  EXPECT_EQ(o.history_size(1), 1u);
}

TEST(Oracle, HotKeyWriteStormKeepsPreReadHistory) {
  // Regression: pruning used to keep only the newest 16 commits per key, so a
  // write storm on a hot key *during* a slow read evicted the newest version
  // committed before the read started, and the read was wrongly judged fresh.
  StalenessOracle o;
  o.record_commit(1, {10, 1}, 20);  // superseded before the read
  o.record_commit(1, {50, 2}, 60);  // newest commit before read start
  o.begin_read(100);
  for (int i = 0; i < 40; ++i) {  // 40 > old cap of 16
    o.record_commit(1, {200 + i * 10, static_cast<std::uint64_t>(3 + i)},
                    205 + i * 10);
  }
  const auto j = o.judge(1, {10, 1}, 100);
  EXPECT_TRUE(j.stale);
  EXPECT_EQ(j.age, 40);  // 50 - 10: judged against {50,2}, not the storm
  o.end_read(100);

  // A read returning the newest pre-read version is fresh despite the storm.
  o.begin_read(100);
  const auto j2 = o.judge(1, {50, 2}, 100);
  EXPECT_FALSE(j2.stale);
  o.end_read(100);
}

TEST(Oracle, InFlightReadBoundsPruning) {
  StalenessOracle o;
  o.begin_read(100);
  for (int i = 0; i < 50; ++i) {
    o.record_commit(1, {200 + i, static_cast<std::uint64_t>(i + 1)}, 200 + i);
  }
  // Everything committed after the in-flight read's start must be retained.
  EXPECT_EQ(o.history_size(1), 50u);
  o.end_read(100);
  // With the read gone the next commit folds the backlog away.
  o.record_commit(1, {300, 51}, 300);
  EXPECT_EQ(o.history_size(1), 1u);
}

TEST(Oracle, HorizonFollowsOldestInFlightRead) {
  StalenessOracle o;
  o.record_commit(1, {10, 1}, 10);
  o.begin_read(50);
  o.begin_read(200);
  for (int i = 0; i < 10; ++i) {
    o.record_commit(1, {100 + i, static_cast<std::uint64_t>(2 + i)}, 100 + i);
  }
  // The read that started at 50 keeps the pre-50 entry plus the 10 later ones.
  EXPECT_EQ(o.history_size(1), 11u);
  o.end_read(50);
  // Horizon advances to 200: the next commit folds everything up to it.
  o.record_commit(1, {250, 20}, 250);
  EXPECT_EQ(o.history_size(1), 2u);
  // The read at 200 still judges correctly against the folded history.
  const auto j = o.judge(1, {100, 2}, 200);
  EXPECT_TRUE(j.stale);
  EXPECT_EQ(j.age, 9);  // latest before 200 is {109, 11}
  o.end_read(200);
}

TEST(Oracle, EndReadWithoutJudgeReleasesHistory) {
  // Failed reads (timeout/unavailable) end without a judgement; the horizon
  // must still advance.
  StalenessOracle o;
  o.begin_read(100);
  EXPECT_EQ(o.inflight_reads(), 1u);
  o.end_read(100);
  EXPECT_EQ(o.inflight_reads(), 0u);
  o.record_commit(1, {10, 1}, 110);
  o.record_commit(1, {20, 2}, 120);
  EXPECT_EQ(o.history_size(1), 1u);
}

TEST(Oracle, ReadBeginningExactlyAtFoldBoundary) {
  // A read whose start coincides exactly with the horizon commit: folding
  // merges commits at-or-before the horizon, so the folded front entry must
  // still carry the max version at that exact instant.
  StalenessOracle o;
  o.record_commit(1, {10, 1}, 10);
  o.record_commit(1, {20, 2}, 20);
  o.record_commit(1, {30, 3}, 30);
  o.begin_read(30);  // starts exactly at the newest commit's time
  // Later commits fold everything at or before t=30 into one entry.
  o.record_commit(1, {40, 4}, 40);
  o.record_commit(1, {50, 5}, 50);
  EXPECT_EQ(o.history_size(1), 3u);  // folded({10,20,30}), 40, 50
  // The read must still be judged against {30,3}, not a folded-away version.
  const auto fresh = o.judge(1, {30, 3}, 30);
  EXPECT_FALSE(fresh.stale);
  const auto stale = o.judge(1, {20, 2}, 30);
  EXPECT_TRUE(stale.stale);
  EXPECT_EQ(stale.age, 10);  // 30 - 20
  o.end_read(30);
}

TEST(Oracle, TwoInFlightReadsSharingAStartTime) {
  StalenessOracle o;
  o.record_commit(1, {10, 1}, 10);
  o.begin_read(100);
  o.begin_read(100);  // same instant: two clients, one start time
  EXPECT_EQ(o.inflight_reads(), 2u);
  for (int i = 0; i < 20; ++i) {
    o.record_commit(1, {200 + i, static_cast<std::uint64_t>(2 + i)}, 200 + i);
  }
  // Ending ONE of the shared-start reads must not advance the horizon: the
  // other still needs the pre-100 history.
  o.end_read(100);
  EXPECT_EQ(o.inflight_reads(), 1u);
  o.record_commit(1, {300, 30}, 300);
  EXPECT_GT(o.history_size(1), 1u);  // no fold yet
  const auto j = o.judge(1, {10, 1}, 100);
  EXPECT_FALSE(j.stale);  // {10,1} was the newest commit before t=100
  o.end_read(100);
  EXPECT_EQ(o.inflight_reads(), 0u);
  // Both shared-start reads gone: the next commit folds the backlog.
  o.record_commit(1, {400, 31}, 400);
  EXPECT_EQ(o.history_size(1), 1u);
}

TEST(Oracle, EndReadIsIgnoredWhenUnpaired) {
  // Failure paths may race: an end_read with no live window (or for an
  // already-drained start) must be a no-op, as the multiset erase was.
  StalenessOracle o;
  o.end_read(50);  // nothing in flight at all
  EXPECT_EQ(o.inflight_reads(), 0u);
  o.begin_read(100);
  o.end_read(40);   // before every live window
  o.end_read(300);  // after every live window
  EXPECT_EQ(o.inflight_reads(), 1u);
  o.end_read(100);
  o.end_read(100);  // second end for a drained window: ignored
  EXPECT_EQ(o.inflight_reads(), 0u);
}

TEST(Oracle, OutOfOrderEndsKeepHorizonAtOldestLiveRead) {
  // Reads complete in any order; mid-ring windows drain lazily and the
  // horizon must track the oldest still-live start throughout.
  StalenessOracle o;
  o.begin_read(10);
  o.begin_read(20);
  o.begin_read(30);
  o.end_read(20);  // middle window drains first
  o.record_commit(1, {5, 1}, 35);
  o.record_commit(1, {6, 2}, 36);
  // Horizon still 10: nothing foldable behind it.
  EXPECT_EQ(o.history_size(1), 2u);
  o.end_read(10);  // now the drained middle window must not pin anything
  o.record_commit(1, {7, 3}, 40);
  // Horizon is 30 (not 20): every retained commit landed after it, so all
  // three stay distinct.
  EXPECT_EQ(o.history_size(1), 3u);
  o.end_read(30);
  EXPECT_EQ(o.inflight_reads(), 0u);
}

}  // namespace
}  // namespace harmony::cluster
