#include "cluster/consistency.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "cluster/versioned_value.h"
#include "common/check.h"

namespace harmony::cluster {
namespace {

TEST(Consistency, QuorumOf) {
  EXPECT_EQ(quorum_of(1), 1);
  EXPECT_EQ(quorum_of(2), 2);
  EXPECT_EQ(quorum_of(3), 2);
  EXPECT_EQ(quorum_of(4), 3);
  EXPECT_EQ(quorum_of(5), 3);
}

// gtest names each case by a byte dump of the parameter, so the padding is
// spelled out and zeroed: implicit padding bytes are indeterminate and would
// make the case names vary from build to build.
struct LevelCase {
  LevelCase(Level level, int rf, int local_rf, int expected_count,
            bool local_only)
      : level(level),
        rf(rf),
        local_rf(local_rf),
        expected_count(expected_count),
        local_only(local_only) {}

  Level level;
  std::uint8_t pad_after_level[3] = {};
  int rf;
  int local_rf;
  int expected_count;
  bool local_only;
  std::uint8_t pad_after_local_only[3] = {};
};
static_assert(sizeof(LevelCase) == 20, "LevelCase must have no implicit padding");

class ResolveLevels : public ::testing::TestWithParam<LevelCase> {};

TEST_P(ResolveLevels, CountsMatchCassandraSemantics) {
  const auto& c = GetParam();
  const auto req = resolve(c.level, c.rf, c.local_rf);
  EXPECT_EQ(req.count, c.expected_count) << to_string(c.level);
  EXPECT_EQ(req.local_only, c.local_only) << to_string(c.level);
}

INSTANTIATE_TEST_SUITE_P(
    Table, ResolveLevels,
    ::testing::Values(LevelCase{Level::kOne, 5, 3, 1, false},
                      LevelCase{Level::kTwo, 5, 3, 2, false},
                      LevelCase{Level::kThree, 5, 3, 3, false},
                      LevelCase{Level::kQuorum, 5, 3, 3, false},
                      LevelCase{Level::kQuorum, 3, 2, 2, false},
                      LevelCase{Level::kAll, 5, 3, 5, false},
                      LevelCase{Level::kLocalOne, 5, 3, 1, true},
                      LevelCase{Level::kLocalQuorum, 5, 3, 2, true},
                      LevelCase{Level::kLocalQuorum, 4, 2, 2, true},
                      LevelCase{Level::kTwo, 1, 1, 1, false},
                      LevelCase{Level::kThree, 2, 1, 2, false}));

TEST(Consistency, EachQuorumFlag) {
  const auto req = resolve(Level::kEachQuorum, 5, 3);
  EXPECT_TRUE(req.each_quorum);
  EXPECT_EQ(req.count, 3);  // floor: global quorum
}

TEST(Consistency, LocalQuorumNeedsLocalReplicas) {
  EXPECT_THROW(resolve(Level::kLocalQuorum, 3, 0), harmony::CheckError);
}

TEST(Consistency, ResolveCountClamps) {
  EXPECT_EQ(resolve_count(0, 3).count, 1);
  EXPECT_EQ(resolve_count(2, 3).count, 2);
  EXPECT_EQ(resolve_count(9, 3).count, 3);
}

TEST(Consistency, GlobalLevelsOrderedByStrength) {
  const auto& levels = global_levels();
  ASSERT_EQ(levels.size(), 5u);
  int prev = 0;
  for (const auto l : levels) {
    const int count = resolve(l, 5, 3).count;
    EXPECT_GE(count, prev);
    prev = count;
  }
  EXPECT_EQ(prev, 5);
}

TEST(Consistency, Names) {
  EXPECT_EQ(to_string(Level::kQuorum), "QUORUM");
  EXPECT_EQ(to_string(Level::kEachQuorum), "EACH_QUORUM");
}

TEST(Version, NewerThanOrdering) {
  const Version a{100, 1}, b{100, 2}, c{200, 1};
  EXPECT_TRUE(b.newer_than(a));   // seq breaks timestamp ties
  EXPECT_TRUE(c.newer_than(b));   // timestamp dominates
  EXPECT_FALSE(a.newer_than(a));  // irreflexive
  EXPECT_TRUE(a.newer_than(kNoVersion));
  EXPECT_FALSE(kNoVersion.newer_than(a));
}

}  // namespace
}  // namespace harmony::cluster
