#include <gtest/gtest.h>

#include "cluster/node.h"
#include "cluster/replica_store.h"
#include "common/check.h"

namespace harmony::cluster {
namespace {

TEST(ReplicaStore, LastWriteWins) {
  ReplicaStore s;
  EXPECT_TRUE(s.apply(1, {{100, 1}, 10}));
  EXPECT_TRUE(s.apply(1, {{200, 2}, 20}));
  EXPECT_FALSE(s.apply(1, {{150, 3}, 30}));  // older timestamp dropped
  const auto v = s.read(1);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->version.timestamp, 200);
  EXPECT_EQ(v->size_bytes, 20u);
  EXPECT_EQ(s.writes_superseded(), 1u);
  EXPECT_EQ(s.writes_applied(), 2u);
}

TEST(ReplicaStore, SeqBreaksTies) {
  ReplicaStore s;
  s.apply(1, {{100, 1}, 10});
  EXPECT_TRUE(s.apply(1, {{100, 2}, 11}));
  EXPECT_FALSE(s.apply(1, {{100, 1}, 12}));
}

TEST(ReplicaStore, StoredBytesTracksReplacement) {
  ReplicaStore s;
  s.apply(1, {{1, 1}, 100});
  s.apply(2, {{2, 2}, 50});
  EXPECT_EQ(s.stored_bytes(), 150u);
  s.apply(1, {{3, 3}, 70});  // replaces the 100-byte value
  EXPECT_EQ(s.stored_bytes(), 120u);
  EXPECT_EQ(s.key_count(), 2u);
}

TEST(ReplicaStore, MissingKey) {
  ReplicaStore s;
  EXPECT_FALSE(s.read(42).has_value());
  EXPECT_EQ(s.reads(), 1u);
}

TEST(ReplicaStore, ClearResets) {
  ReplicaStore s;
  s.apply(1, {{1, 1}, 10});
  s.clear();
  EXPECT_EQ(s.key_count(), 0u);
  EXPECT_EQ(s.stored_bytes(), 0u);
}

TEST(ReplicaStore, PreloadBaseReadsAndCopiesOnWrite) {
  ReplicaStore s;
  // Keys 0 and 2 of 3 are preloaded: versions {0, 10 + 4k}, 50 bytes.
  s.set_base({3, 10, 4, 50, {0b101}});
  EXPECT_EQ(s.key_count(), 2u);
  EXPECT_EQ(s.stored_bytes(), 100u);
  EXPECT_EQ(s.writes_applied(), 2u);
  ASSERT_TRUE(s.read(2).has_value());
  EXPECT_EQ(s.read(2)->version, (Version{0, 18}));
  EXPECT_FALSE(s.read(1).has_value());  // bit unset
  EXPECT_FALSE(s.read(3).has_value());  // past count
  EXPECT_FALSE(s.apply(2, {{0, 17}, 9}));  // older than the base version
  EXPECT_EQ(s.writes_superseded(), 1u);
  EXPECT_TRUE(s.apply(0, {{1, 1}, 70}));  // newer: replaces 50 bytes
  EXPECT_EQ(s.stored_bytes(), 120u);
  EXPECT_EQ(s.key_count(), 2u);
  EXPECT_THROW(s.set_base({3, 10, 4, 50, {0b101}}), CheckError);
  s.clear();
  EXPECT_EQ(s.key_count(), 0u);
  EXPECT_FALSE(s.read(2).has_value());
}

TEST(Node, ServiceAddsQueueingUnderLoad) {
  NodeParams p;
  p.service_jitter_sigma = 0;        // deterministic
  p.disk_read_probability = 0;
  Node n(0, p, Rng(1));
  // Two back-to-back requests at the same instant: the second queues.
  const auto d1 = n.service(ServiceKind::kWrite, 0);
  const auto d2 = n.service(ServiceKind::kWrite, 0);
  EXPECT_GT(d2, d1);
  EXPECT_NEAR(static_cast<double>(d2), static_cast<double>(2 * d1), 1.0);
}

TEST(Node, IdleNodeHasNoBacklog) {
  NodeParams p;
  Node n(0, p, Rng(2));
  n.service(ServiceKind::kRead, 0);
  EXPECT_GT(n.backlog(0), 0);
  EXPECT_EQ(n.backlog(sec(1)), 0);
}

TEST(Node, DigestCheaperThanRead) {
  NodeParams p;
  p.service_jitter_sigma = 0;
  p.disk_read_probability = 0;
  Node n(0, p, Rng(3));
  SimDuration read_total = 0, digest_total = 0;
  for (int i = 0; i < 100; ++i) {
    Node fresh_r(0, p, Rng(3));
    read_total += fresh_r.service(ServiceKind::kRead, 0);
    Node fresh_d(0, p, Rng(3));
    digest_total += fresh_d.service(ServiceKind::kDigest, 0);
  }
  EXPECT_LT(digest_total, read_total);
}

TEST(Node, DiskMissesInflateReads) {
  NodeParams cached;
  cached.disk_read_probability = 0;
  cached.service_jitter_sigma = 0;
  NodeParams disky = cached;
  disky.disk_read_probability = 1.0;
  SimDuration cached_total = 0, disky_total = 0;
  for (int i = 0; i < 200; ++i) {
    Node a(0, cached, Rng(100 + i));
    cached_total += a.service(ServiceKind::kRead, 0);
    Node b(0, disky, Rng(100 + i));
    disky_total += b.service(ServiceKind::kRead, 0);
  }
  EXPECT_GT(disky_total, cached_total + 200 * 50);
}

TEST(Node, BusyTimeAccumulates) {
  NodeParams p;
  p.service_jitter_sigma = 0;
  p.disk_read_probability = 0;
  Node n(0, p, Rng(4));
  n.service(ServiceKind::kWrite, 0);
  n.service(ServiceKind::kWrite, sec(1));
  EXPECT_EQ(n.requests_served(), 2u);
  EXPECT_NEAR(static_cast<double>(n.busy_time()),
              2.0 * static_cast<double>(p.cpu_write + p.commit_log_write), 2.0);
}

TEST(Node, DeadNodeRefusesService) {
  NodeParams p;
  Node n(0, p, Rng(5));
  n.set_alive(false);
  EXPECT_THROW(n.service(ServiceKind::kRead, 0), harmony::CheckError);
}

}  // namespace
}  // namespace harmony::cluster
