// Randomized differential harness for the allocation-free request path.
//
// The optimized hot lanes (SlotPool pending requests, ring-buffered
// StalenessOracle, inline LatencyHistogram) are replayed against naive
// reference twins (tests/reference/) over thousands of seeded schedules:
//
//   * oracle schedules — interleavings of commits (including write storms and
//     out-of-timestamp-order versions), reads beginning exactly at fold
//     boundaries, reads sharing a start time, reads ending with and without a
//     judgement (the timeout/unavailable paths);
//   * histogram schedules — mixed record/record_n/merge streams compared on
//     count, min, max, mean, and a whole percentile grid;
//   * slot-pool schedules — acquire/release/lookup churn, including lookups
//     through stale handles of recycled slots, against a unique-id map;
//   * preload-base schedules — a replica store with a random copy-on-write
//     preload base against a map that loaded every base key explicitly:
//     ties and near-ties with base versions, unset bits, keys past the
//     base, and clears;
//   * full cluster runs — real traffic with kill/revive, hinted handoff,
//     request timeouts, and write storms, mirrored through the oracle's trace
//     sink into the reference oracle, with run fingerprints asserted
//     bit-identical across repeat runs of the same seed.
//
// Every judgement, percentile, and fingerprint must match exactly — a single
// divergence fails the suite with the offending seed, which reproduces the
// schedule deterministically.
//
// CI runs the default seeds plus extra ones derived from GITHUB_RUN_ID via
// HARMONY_DIFF_EXTRA_SEEDS (comma-separated uint64s, logged on startup).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/replica_store.h"
#include "cluster/staleness_oracle.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/slot_pool.h"
#include "reference/reference_histogram.h"
#include "reference/reference_oracle.h"
#include "reference/reference_pending_map.h"
#include "reference/reference_store.h"
#include "sim/simulation.h"

namespace harmony::testing {
namespace {

// Default schedule counts; the acceptance bar for this harness is >= 5000
// randomized schedules per full run (3200 + 1500 + 600 + 400 + 40 = 5740).
constexpr std::uint64_t kOracleSchedules = 3200;
constexpr std::uint64_t kHistogramSchedules = 1500;
constexpr std::uint64_t kPoolSchedules = 600;
constexpr std::uint64_t kStoreSchedules = 400;
constexpr std::uint64_t kClusterRuns = 40;

constexpr double kPercentileGrid[] = {0,  0.1, 1,  10,   25,  50,
                                      75, 90,  95, 99.9, 100};

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  h *= 1099511628211ULL;  // FNV-1a prime
  return h;
}
constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;

/// Extra base seeds injected by CI (HARMONY_DIFF_EXTRA_SEEDS=comma list).
const std::vector<std::uint64_t>& extra_seeds() {
  static const std::vector<std::uint64_t> seeds = [] {
    std::vector<std::uint64_t> out;
    const char* env = std::getenv("HARMONY_DIFF_EXTRA_SEEDS");
    if (env == nullptr || *env == '\0') return out;
    std::string s(env);
    std::size_t pos = 0;
    while (pos < s.size()) {
      const std::size_t comma = s.find(',', pos);
      const std::string tok =
          s.substr(pos, comma == std::string::npos ? comma : comma - pos);
      if (!tok.empty()) out.push_back(std::strtoull(tok.c_str(), nullptr, 10));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    std::printf("[diff] extra seeds from HARMONY_DIFF_EXTRA_SEEDS:");
    for (const auto seed : out) std::printf(" %llu", (unsigned long long)seed);
    std::printf("\n");
    return out;
  }();
  return seeds;
}

// --------------------------------------------------------------- oracle diff

/// One randomized oracle schedule through both implementations; returns a
/// fingerprint over every judgement (0 fingerprints are valid but the caller
/// checks determinism by equality, not against zero).
std::uint64_t run_oracle_schedule(std::uint64_t seed) {
  Rng rng(seed);
  cluster::StalenessOracle prod;
  ReferenceOracle ref;
  const std::uint64_t keys = 1 + rng.uniform_u64(6);
  const int ops = 40 + static_cast<int>(rng.uniform_u64(260));
  SimTime now = 0;
  std::uint64_t seq = 0;
  std::uint64_t fp = kFnvOffset;

  struct InFlight {
    SimTime start;
    cluster::Key key;
  };
  std::vector<InFlight> reads;
  std::vector<std::vector<cluster::Version>> committed(keys);

  auto commit_one = [&](cluster::Key key) {
    // Timestamps sometimes lag the commit instant: two concurrent writes can
    // commit in the opposite of timestamp order.
    const SimTime ts = now - static_cast<SimTime>(rng.uniform_u64(4));
    const cluster::Version v{ts, ++seq};
    prod.record_commit(key, v, now);
    ref.record_commit(key, v, now);
    committed[key].push_back(v);
  };

  auto finish_read = [&](std::size_t pick, bool judge) {
    const InFlight r = reads[pick];
    reads.erase(reads.begin() + static_cast<std::ptrdiff_t>(pick));
    if (judge) {
      cluster::Version returned = cluster::kNoVersion;
      const double choice = rng.uniform();
      if (choice < 0.55 && !committed[r.key].empty()) {
        returned = committed[r.key][rng.uniform_u64(committed[r.key].size())];
      } else if (choice < 0.7) {
        // A replica seen "early": newer than anything committed yet.
        returned = cluster::Version{now + 1 + static_cast<SimTime>(
                                              rng.uniform_u64(5)),
                                    ++seq};
      }
      const auto pj = prod.judge(r.key, returned, r.start);
      const auto rj = ref.judge(r.key, returned, r.start);
      EXPECT_EQ(pj.stale, rj.stale) << "seed " << seed;
      EXPECT_EQ(pj.age, rj.age) << "seed " << seed;
      fp = mix(fp, pj.stale ? 1 : 0);
      fp = mix(fp, static_cast<std::uint64_t>(pj.age));
    }
    prod.end_read(r.start);
    ref.end_read(r.start);
  };

  for (int op = 0; op < ops; ++op) {
    // Advancing by 0 keeps commits and read starts landing on the same
    // instant (fold boundaries, shared starts) a routine occurrence.
    now += static_cast<SimTime>(rng.uniform_u64(3));
    const double roll = rng.uniform();
    if (roll < 0.35) {
      const int burst =
          rng.chance(0.15) ? 10 + static_cast<int>(rng.uniform_u64(30)) : 1;
      for (int b = 0; b < burst; ++b) {
        commit_one(rng.uniform_u64(keys));
        if (b + 1 < burst) now += static_cast<SimTime>(rng.uniform_u64(2));
      }
    } else if (roll < 0.65 || reads.empty()) {
      const int n = rng.chance(0.2) ? 2 : 1;  // shared start times
      for (int i = 0; i < n; ++i) {
        prod.begin_read(now);
        ref.begin_read(now);
        reads.push_back({now, rng.uniform_u64(keys)});
      }
    } else {
      // End a random in-flight read; 25% end without judging, as the
      // timeout/unavailable completion paths do.
      finish_read(rng.uniform_u64(reads.size()), !rng.chance(0.25));
    }
  }
  while (!reads.empty()) {
    now += static_cast<SimTime>(rng.uniform_u64(2));
    finish_read(rng.uniform_u64(reads.size()), !rng.chance(0.5));
  }

  EXPECT_EQ(prod.fresh_reads(), ref.fresh_reads()) << "seed " << seed;
  EXPECT_EQ(prod.stale_reads(), ref.stale_reads()) << "seed " << seed;
  EXPECT_EQ(prod.inflight_reads(), 0u) << "seed " << seed;
  EXPECT_EQ(ref.inflight_reads(), 0u) << "seed " << seed;
  EXPECT_EQ(prod.staleness_age().count(), ref.staleness_age().count())
      << "seed " << seed;
  for (const double p : kPercentileGrid) {
    EXPECT_EQ(prod.staleness_age().percentile(p),
              ref.staleness_age().percentile(p))
        << "seed " << seed << " p=" << p;
  }
  fp = mix(fp, prod.fresh_reads());
  fp = mix(fp, prod.stale_reads());
  return fp;
}

TEST(RequestPathDiff, OracleSchedulesMatchReference) {
  std::uint64_t schedules = 0;
  auto run_block = [&](std::uint64_t base, std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t seed = base + i;
      const std::uint64_t fp1 = run_oracle_schedule(seed);
      ASSERT_FALSE(::testing::Test::HasFailure())
          << "oracle diff diverged at seed " << seed;
      // Replaying the seed must reproduce the identical judgement stream.
      const std::uint64_t fp2 = run_oracle_schedule(seed);
      ASSERT_EQ(fp1, fp2) << "oracle schedule not deterministic, seed "
                          << seed;
      ++schedules;
    }
  };
  run_block(0x0D1FF5EEDULL, kOracleSchedules);
  for (const auto seed : extra_seeds()) run_block(seed, 300);
  std::printf("[diff] oracle schedules: %llu\n",
              (unsigned long long)schedules);
}

// ------------------------------------------------------------ histogram diff

void run_histogram_schedule(std::uint64_t seed) {
  Rng rng(seed);
  LatencyHistogram prod, prod_other;
  ReferenceHistogram ref, ref_other;
  const int ops = 20 + static_cast<int>(rng.uniform_u64(350));

  auto random_value = [&]() -> SimDuration {
    const double roll = rng.uniform();
    if (roll < 0.1) return 0;
    if (roll < 0.2) return static_cast<SimDuration>(rng.uniform_u64(32));
    if (roll < 0.3) return -static_cast<SimDuration>(rng.uniform_u64(1000));
    if (roll < 0.4) {  // huge values, up to the clamp-to-last-bucket range
      return static_cast<SimDuration>(rng.uniform_u64(1ULL << 45));
    }
    return static_cast<SimDuration>(rng.exponential(2000));
  };

  for (int op = 0; op < ops; ++op) {
    const double roll = rng.uniform();
    if (roll < 0.75) {
      const SimDuration v = random_value();
      prod.record(v);
      ref.record(v);
    } else if (roll < 0.9) {
      const SimDuration v = random_value();
      const std::uint64_t n = rng.uniform_u64(5);  // includes n == 0
      prod.record_n(v, n);
      ref.record_n(v, n);
    } else if (roll < 0.97) {
      const SimDuration v = random_value();
      prod_other.record(v);
      ref_other.record(v);
    } else {
      prod.merge(prod_other);
      ref.merge(ref_other);
    }
  }
  if (rng.chance(0.5)) {
    prod.merge(prod_other);
    ref.merge(ref_other);
  }

  EXPECT_EQ(prod.count(), ref.count()) << "seed " << seed;
  EXPECT_EQ(prod.min(), ref.min()) << "seed " << seed;
  EXPECT_EQ(prod.max(), ref.max()) << "seed " << seed;
  EXPECT_EQ(prod.mean(), ref.mean()) << "seed " << seed;
  for (const double p : kPercentileGrid) {
    EXPECT_EQ(prod.percentile(p), ref.percentile(p))
        << "seed " << seed << " p=" << p;
  }
}

TEST(RequestPathDiff, HistogramSchedulesMatchReference) {
  std::uint64_t schedules = 0;
  auto run_block = [&](std::uint64_t base, std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      run_histogram_schedule(base + i);
      ASSERT_FALSE(::testing::Test::HasFailure())
          << "histogram diff diverged at seed " << base + i;
      ++schedules;
    }
  };
  run_block(0x41157ULL, kHistogramSchedules);
  for (const auto seed : extra_seeds()) run_block(seed, 150);
  std::printf("[diff] histogram schedules: %llu\n",
              (unsigned long long)schedules);
}

// ------------------------------------------------------------ slot-pool diff

void run_pool_schedule(std::uint64_t seed) {
  Rng rng(seed);
  struct Payload {
    std::uint64_t stamp = 0;
  };
  SlotPool<Payload> pool;
  ReferencePendingMap<Payload> ref;

  struct Tracked {
    SlotPool<Payload>::Handle pool_handle;
    ReferencePendingMap<Payload>::Handle ref_handle;
    bool released = false;
  };
  std::vector<Tracked> history;
  std::vector<std::size_t> live;  // indices into history
  std::uint64_t stamp = 0;

  const int ops = 30 + static_cast<int>(rng.uniform_u64(200));
  for (int op = 0; op < ops; ++op) {
    const double roll = rng.uniform();
    if (roll < 0.4 || live.empty()) {
      const auto [h, p] = pool.acquire();
      const auto rh = ref.acquire();
      p->stamp = ++stamp;
      ref.get(rh)->stamp = stamp;
      live.push_back(history.size());
      history.push_back({h, rh, false});
    } else if (roll < 0.7) {
      const std::size_t pick = rng.uniform_u64(live.size());
      Tracked& t = history[live[pick]];
      pool.release(t.pool_handle);
      ref.release(t.ref_handle);
      t.released = true;
      live[pick] = live.back();
      live.pop_back();
    } else {
      // Look up a random handle from the whole history: stale handles of
      // recycled slots must miss exactly like released unique ids do.
      const Tracked& t = history[rng.uniform_u64(history.size())];
      Payload* pp = pool.get(t.pool_handle);
      Payload* rp = ref.get(t.ref_handle);
      ASSERT_EQ(pp == nullptr, rp == nullptr)
          << "seed " << seed << ": slot pool hit/miss diverged from map";
      if (pp != nullptr) {
        EXPECT_EQ(pp->stamp, rp->stamp) << "seed " << seed;
      }
    }
    EXPECT_EQ(pool.live(), ref.live()) << "seed " << seed;
  }
}

TEST(RequestPathDiff, SlotPoolMatchesPendingMapSemantics) {
  std::uint64_t schedules = 0;
  auto run_block = [&](std::uint64_t base, std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      run_pool_schedule(base + i);
      ASSERT_FALSE(::testing::Test::HasFailure())
          << "slot-pool diff diverged at seed " << base + i;
      ++schedules;
    }
  };
  run_block(0x5107F001ULL, kPoolSchedules);
  for (const auto seed : extra_seeds()) run_block(seed, 60);
  std::printf("[diff] slot-pool schedules: %llu\n",
              (unsigned long long)schedules);
}

// ------------------------------------------------------- preload-base diff

void run_store_schedule(std::uint64_t seed) {
  Rng rng(seed);
  cluster::ReplicaStore prod;
  ReferenceStore ref;
  std::uint64_t count = 0;
  std::uint64_t seq0 = 0;
  std::uint64_t stride = 1;

  // A random base: the store gets the bitmap, the reference applies every
  // member key explicitly. seq0 has the preload's (w0 + 1) * S + id shape.
  auto install_base = [&] {
    count = rng.uniform_u64(301);
    stride = 1 + rng.uniform_u64(4);
    seq0 = (1 + rng.uniform_u64(64)) * stride + rng.uniform_u64(stride);
    const auto size = static_cast<std::uint32_t>(1 + rng.uniform_u64(1024));
    const double density = rng.uniform();
    std::vector<bool> member(count);
    cluster::PreloadBase base{count, seq0, stride, size,
                              std::vector<std::uint64_t>((count + 63) / 64)};
    for (std::uint64_t k = 0; k < count; ++k) {
      if (!rng.chance(density)) continue;
      member[k] = true;
      base.bits[k >> 6] |= 1ULL << (k & 63);
    }
    prod.set_base(std::move(base));
    ref.load(seq0, stride, size, member);
  };

  auto expect_same_counters = [&] {
    EXPECT_EQ(prod.key_count(), ref.key_count()) << "seed " << seed;
    EXPECT_EQ(prod.stored_bytes(), ref.stored_bytes()) << "seed " << seed;
    EXPECT_EQ(prod.reads(), ref.reads()) << "seed " << seed;
    EXPECT_EQ(prod.writes_applied(), ref.writes_applied()) << "seed " << seed;
    EXPECT_EQ(prod.writes_superseded(), ref.writes_superseded())
        << "seed " << seed;
  };

  auto pick_key = [&]() -> cluster::Key {
    const double roll = rng.uniform();
    if (roll < 0.7 && count > 0) return rng.uniform_u64(count);
    if (roll < 0.97) return count + rng.uniform_u64(20);
    return ~0ULL;  // the flat table's empty-slot sentinel, stored aside
  };

  install_base();
  expect_same_counters();
  const int ops = 200 + static_cast<int>(rng.uniform_u64(401));
  for (int op = 0; op < ops; ++op) {
    const double roll = rng.uniform();
    const cluster::Key key = pick_key();
    if (roll < 0.5) {
      cluster::VersionedValue v;
      v.size_bytes = static_cast<std::uint32_t>(rng.uniform_u64(2048));
      if (roll < 0.35) {
        // Timestamp 0 ties the base version: the seq decides, so aim just
        // below, at and just above the key's base seq.
        const std::uint64_t base_seq = seq0 + key * stride;
        const std::uint64_t delta = rng.uniform_u64(5);
        v.version = {0, delta < 2 ? base_seq - delta : base_seq + delta - 2};
      } else {
        v.version = {static_cast<SimTime>(1 + rng.uniform_u64(1000)),
                     rng.uniform_u64(1u << 20)};
      }
      const bool p = prod.apply(key, v);
      const bool r = ref.apply(key, v);
      EXPECT_EQ(p, r) << "seed " << seed << " apply key " << key;
    } else if (roll < 0.98) {
      const auto p = prod.read(key);
      const auto r = ref.read(key);
      ASSERT_EQ(p.has_value(), r.has_value())
          << "seed " << seed << " read key " << key;
      if (p) {
        EXPECT_EQ(p->version, r->version) << "seed " << seed;
        EXPECT_EQ(p->size_bytes, r->size_bytes) << "seed " << seed;
      }
    } else {
      prod.clear();
      ref.clear();
      if (rng.chance(0.5)) {
        install_base();
      } else {
        count = 0;
      }
    }
    expect_same_counters();
  }
}

TEST(RequestPathDiff, PreloadBaseMatchesExplicitLoad) {
  std::uint64_t schedules = 0;
  auto run_block = [&](std::uint64_t base, std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      run_store_schedule(base + i);
      ASSERT_FALSE(::testing::Test::HasFailure())
          << "preload-base diff diverged at seed " << base + i;
      ++schedules;
    }
  };
  run_block(0xBA5E0001ULL, kStoreSchedules);
  for (const auto seed : extra_seeds()) run_block(seed, 40);
  std::printf("[diff] preload-base schedules: %llu\n",
              (unsigned long long)schedules);
}

// ------------------------------------------------------- cluster traffic diff

/// Mirrors every oracle call the cluster makes into the reference oracle and
/// cross-checks each judgement as it happens.
class DiffSink : public cluster::StalenessOracle::TraceSink {
 public:
  void on_commit(cluster::Key key, const cluster::Version& version,
                 SimTime t) override {
    ref.record_commit(key, version, t);
  }
  void on_begin_read(SimTime read_start) override {
    ref.begin_read(read_start);
  }
  void on_end_read(SimTime read_start) override { ref.end_read(read_start); }
  void on_judge(cluster::Key key, const cluster::Version& returned,
                SimTime read_start,
                const cluster::StalenessOracle::Judgement& judgement) override {
    const auto rj = ref.judge(key, returned, read_start);
    if (rj.stale != judgement.stale || rj.age != judgement.age) {
      ++mismatches;
    }
    fp = mix(fp, judgement.stale ? 1 : 0);
    fp = mix(fp, static_cast<std::uint64_t>(judgement.age));
  }

  ReferenceOracle ref;
  std::uint64_t fp = kFnvOffset;
  int mismatches = 0;
};

struct ClusterRunResult {
  std::uint64_t fingerprint = 0;
  std::uint64_t events = 0;
  SimTime end_time = 0;
  std::uint64_t spills = 0;  ///< cross-shard mailbox overflows (sharded runs)
};

ClusterRunResult run_cluster_schedule(std::uint64_t seed,
                                      bool resilience = false,
                                      bool single_shard = false) {
  Rng setup(seed);
  sim::Simulation sim(seed);
  if (single_shard) {
    // K == 1 anchor: the single shard run in 1-ms windows must be
    // byte-identical to the default kernel's one unbounded window, on the
    // exact same schedules — including anti-entropy, kill/revive closures,
    // and DC blackouts, all of which only shard_count > 1 restricts.
    sim.configure_shards(1, kMillisecond, 1);
  }

  cluster::ClusterConfig cfg;
  cfg.dc_count = 1 + setup.uniform_u64(2);
  cfg.node_count = cfg.dc_count * (3 + setup.uniform_u64(3));
  const int max_rf = static_cast<int>(cfg.node_count / cfg.dc_count);
  cfg.rf = 2 + static_cast<int>(setup.uniform_u64(
                   static_cast<std::uint64_t>(std::min(3, max_rf - 1))));
  if (setup.chance(0.3)) {
    // WAN slower than the deadline: a slice of requests must time out.
    cfg.latency.cross_dc.base = 60 * kMillisecond;
    cfg.request_timeout = 20 * kMillisecond;
  }
  if (setup.chance(0.3)) cfg.anti_entropy_period = 50 * kMillisecond;
  if (resilience) {
    // Knobs-on variant: randomized hedging / retry / admission settings, so
    // the resilience machinery replays on the same adversarial schedules as
    // the knobs-off harness.
    cluster::ResilienceConfig& rc = cfg.resilience;
    rc.hedge_reads = setup.chance(0.8);
    rc.hedge_quantile = 0.5 + setup.uniform() * 0.45;
    rc.hedge_fallback_delay = msec(1 + setup.uniform_u64(5));
    rc.read_retries = static_cast<int>(setup.uniform_u64(3));
    rc.retry_backoff = msec(1 + setup.uniform_u64(4));
    if (setup.chance(0.5)) {
      rc.admission_rate = 500 + static_cast<double>(setup.uniform_u64(4000));
      rc.admission_burst = 20 + static_cast<double>(setup.uniform_u64(100));
      rc.admission_mode = setup.chance(0.5) ? cluster::AdmissionMode::kShed
                                            : cluster::AdmissionMode::kDelay;
    }
  }

  cluster::Cluster c(sim, cfg);
  if (resilience) {
    // Scripted faults on the typed event lane: degradation windows always,
    // a whole-DC blackout when a second DC exists to absorb the traffic.
    const auto victim =
        static_cast<net::NodeId>(setup.uniform_u64(cfg.node_count));
    const SimTime deg_at = static_cast<SimTime>(
        setup.uniform_u64(kSecond));
    c.schedule_fault({deg_at, cluster::FaultOp::kDegradeNode, victim, 0,
                      5.0 + static_cast<double>(setup.uniform_u64(30))});
    c.schedule_fault({deg_at + 300 * kMillisecond,
                      cluster::FaultOp::kRestoreNode, victim, 0, 1.0});
    if (cfg.dc_count > 1) {
      if (setup.chance(0.6)) {
        const SimTime out_at =
            static_cast<SimTime>(setup.uniform_u64(kSecond));
        c.schedule_fault(
            {out_at, cluster::FaultOp::kDcBlackout, 0, 1, 1.0});
        c.schedule_fault({out_at + 200 * kMillisecond,
                          cluster::FaultOp::kDcRestore, 0, 1, 1.0});
      }
      if (setup.chance(0.5)) {
        const SimTime wan_at =
            static_cast<SimTime>(setup.uniform_u64(kSecond));
        c.schedule_fault({wan_at, cluster::FaultOp::kDegradeWan, 0, 0,
                          2.0 + static_cast<double>(setup.uniform_u64(6))});
        c.schedule_fault({wan_at + 250 * kMillisecond,
                          cluster::FaultOp::kRestoreWan, 0, 0, 1.0});
      }
    }
  }
  DiffSink sink;
  c.oracle().set_trace_sink(&sink);

  const std::uint64_t key_count = 40 + setup.uniform_u64(160);
  c.preload_range(key_count / 2, 256);  // half the keys miss at first

  struct Ctx {
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
  } ctx;

  Rng traffic = sim.fork_rng(0xD1FF);
  const int ops = 500 + static_cast<int>(setup.uniform_u64(800));
  const SimTime horizon = 2 * kSecond;
  for (int i = 0; i < ops; ++i) {
    const SimTime at = static_cast<SimTime>(traffic.uniform_u64(horizon));
    const cluster::Key key = traffic.uniform_u64(key_count);
    const auto dc = static_cast<net::DcId>(traffic.uniform_u64(cfg.dc_count));
    const int k = 1 + static_cast<int>(traffic.uniform_u64(
                          static_cast<std::uint64_t>(cfg.rf)));
    cluster::ReplicaRequirement req = cluster::resolve_count(k, cfg.rf);
    const double lvl = traffic.uniform();
    if (lvl < 0.15) {
      req = cluster::resolve(cluster::Level::kLocalQuorum, cfg.rf,
                             cfg.local_rf(dc));
    } else if (lvl < 0.25 && cfg.dc_count > 1) {
      req = cluster::resolve(cluster::Level::kEachQuorum, cfg.rf,
                             cfg.local_rf(dc));
    }
    const bool is_write = traffic.chance(0.35);
    const bool storm = traffic.chance(0.02);
    ++ctx.issued;
    const int rf = cfg.rf;
    sim.schedule_at(at, [&c, &ctx, key, dc, req, is_write, storm, rf] {
      if (is_write) {
        c.client_write(dc, key, 512, req,
                       [&ctx](const cluster::WriteResult&) { ++ctx.completed; });
        if (storm) {
          // Write storm: hammer the same key with CL=ONE writes so commits
          // pile up behind any in-flight read of it.
          for (int s = 0; s < 25; ++s) {
            ++ctx.issued;
            c.client_write(dc, key, 128, cluster::resolve_count(1, rf),
                           [&ctx](const cluster::WriteResult&) {
                             ++ctx.completed;
                           });
          }
        }
      } else {
        c.client_read(dc, key, req,
                      [&ctx](const cluster::ReadResult&) { ++ctx.completed; });
      }
    });
  }

  // Kill/revive churn: hints accumulate for the dead node and replay on
  // revival. Never drop below rf alive nodes (keeps coordinators available).
  const int churns = 1 + static_cast<int>(setup.uniform_u64(3));
  for (int i = 0; i < churns; ++i) {
    const auto victim =
        static_cast<net::NodeId>(setup.uniform_u64(cfg.node_count));
    const SimTime down = static_cast<SimTime>(setup.uniform_u64(horizon));
    const SimDuration outage =
        50 * kMillisecond + static_cast<SimDuration>(setup.uniform_u64(
                                static_cast<std::uint64_t>(horizon / 2)));
    const int rf = cfg.rf;
    sim.schedule_at(down, [&c, victim, rf] {
      if (c.alive_count() > static_cast<std::size_t>(rf)) {
        c.kill_node(victim);
      }
    });
    sim.schedule_at(down + outage, [&c, victim] {
      if (c.alive_count() < c.config().node_count) c.revive_node(victim);
    });
  }

  sim.run();

  EXPECT_EQ(ctx.completed, ctx.issued) << "seed " << seed;
  EXPECT_EQ(sink.mismatches, 0)
      << "seed " << seed << ": optimized and reference judgements diverged";
  // Every completion path — success, timeout, unavailable — must end its
  // oracle read window.
  EXPECT_EQ(c.oracle().inflight_reads(), 0u) << "seed " << seed;
  EXPECT_EQ(c.oracle().fresh_reads(), sink.ref.fresh_reads())
      << "seed " << seed;
  EXPECT_EQ(c.oracle().stale_reads(), sink.ref.stale_reads())
      << "seed " << seed;
  EXPECT_EQ(c.oracle().staleness_age().count(),
            sink.ref.staleness_age().count())
      << "seed " << seed;
  for (const double p : kPercentileGrid) {
    EXPECT_EQ(c.oracle().staleness_age().percentile(p),
              sink.ref.staleness_age().percentile(p))
        << "seed " << seed << " p=" << p;
  }

  ClusterRunResult out;
  out.fingerprint = mix(mix(sink.fp, c.oracle().fresh_reads()),
                        c.oracle().stale_reads());
  out.fingerprint = mix(out.fingerprint, c.timeouts());
  out.fingerprint = mix(out.fingerprint, c.unavailable());
  out.fingerprint = mix(out.fingerprint, c.retries());
  out.fingerprint = mix(out.fingerprint, c.hedges_fired());
  out.fingerprint = mix(out.fingerprint, c.hedge_wins());
  out.fingerprint = mix(out.fingerprint, c.sheds());
  out.events = sim.events_processed();
  out.end_time = sim.now();
  return out;
}

TEST(RequestPathDiff, ClusterTrafficMatchesReferenceAndIsDeterministic) {
  std::uint64_t schedules = 0;
  auto run_block = [&](std::uint64_t base, std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t seed = base + i;
      const ClusterRunResult a = run_cluster_schedule(seed);
      ASSERT_FALSE(::testing::Test::HasFailure())
          << "cluster diff diverged at seed " << seed;
      const ClusterRunResult b = run_cluster_schedule(seed);
      ASSERT_EQ(a.fingerprint, b.fingerprint)
          << "cluster run fingerprint not reproducible, seed " << seed;
      ASSERT_EQ(a.events, b.events) << "seed " << seed;
      ASSERT_EQ(a.end_time, b.end_time) << "seed " << seed;
      ++schedules;
    }
  };
  run_block(0xC10C0ULL, kClusterRuns);
  for (const auto seed : extra_seeds()) run_block(seed, 4);
  std::printf("[diff] cluster schedules: %llu\n",
              (unsigned long long)schedules);
}

TEST(RequestPathDiff, ResilienceKnobsOnMatchBothLanesAndReproduce) {
  // The same schedules with hedged reads, coordinator retries, admission
  // control, and a scripted fault script (degradation windows, DC blackout,
  // WAN inflation) layered on top. Hedge timers racing responses, retry
  // backoffs racing late acks, and shed deliveries must all replay
  // bit-identically across repeated runs. The oracle diff inside
  // run_cluster_schedule keeps judging every read against the reference
  // model throughout.
  std::uint64_t schedules = 0;
  auto run_block = [&](std::uint64_t base, std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t seed = base + i;
      const ClusterRunResult first =
          run_cluster_schedule(seed, /*resilience=*/true);
      ASSERT_FALSE(::testing::Test::HasFailure())
          << "resilience cluster diff diverged at seed " << seed;
      const ClusterRunResult again =
          run_cluster_schedule(seed, /*resilience=*/true);
      ASSERT_EQ(first.fingerprint, again.fingerprint)
          << "knobs-on run not reproducible, seed " << seed;
      ASSERT_EQ(first.events, again.events) << "seed " << seed;
      ASSERT_EQ(first.end_time, again.end_time) << "seed " << seed;
      ++schedules;
    }
  };
  run_block(0x4E517ULL, kClusterRuns);
  for (const auto seed : extra_seeds()) run_block(seed, 4);
  std::printf("[diff] resilience knobs-on cluster schedules: %llu\n",
              (unsigned long long)schedules);
}

// ------------------------------------------------------ sharded execution diff

TEST(RequestPathDiff, SingleShardMatchesUnshardedByteIdentical) {
  // The same schedules as the main cluster harness, replayed with the
  // single shard cut into 1-ms windows (configure_shards(1, 1 ms, 1))
  // instead of the default kernel's one unbounded window. Window boundaries
  // and the per-window barrier must not move a single event: the output
  // matches bit for bit.
  for (std::uint64_t i = 0; i < 8; ++i) {
    const std::uint64_t seed = 0xC10C0ULL + i;
    const bool resilience = (i % 2) == 1;
    const ClusterRunResult flat = run_cluster_schedule(seed, resilience);
    ASSERT_FALSE(::testing::Test::HasFailure())
        << "default-kernel reference diverged at seed " << seed;
    const ClusterRunResult single =
        run_cluster_schedule(seed, resilience, /*single_shard=*/true);
    ASSERT_FALSE(::testing::Test::HasFailure())
        << "single-shard run diverged at seed " << seed;
    ASSERT_EQ(flat.fingerprint, single.fingerprint)
        << "1-ms windows are not byte-identical to the single-window "
           "kernel, seed " << seed;
    ASSERT_EQ(flat.events, single.events) << "seed " << seed;
    ASSERT_EQ(flat.end_time, single.end_time) << "seed " << seed;
  }
}

/// Options for one sharded 3-DC scenario (see run_sharded_schedule).
struct ShardedOpts {
  unsigned threads = 1;
  std::uint32_t mailbox_capacity = sim::Simulation::kDefaultMailboxCapacity;
  bool faults = false;      ///< fenced kill/revive/degrade script mid-run
  bool resilience = false;  ///< hedging / retries / admission knobs on
  bool quiet_dc2 = false;   ///< DC 2 gets no replicas and no clients
};

/// Per-DC client-side bookkeeping. Each instance is touched only by its DC's
/// shard during the run; the alignment keeps concurrently-updated counters
/// off shared cache lines.
struct alignas(64) DcCtx {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t fp = kFnvOffset;
};

/// One 3-DC EC2-style scenario on per-DC event shards. The schedule honours
/// every sharded-execution restriction: coordinators stay in the client's DC
/// (NTS placement, local traffic only), anti-entropy off, fault instants
/// fenced via schedule_fault, and the cross-DC latency floored at the
/// lookahead. The fingerprint covers everything the run can observe — the
/// per-DC client result streams, the full oracle diff against the reference
/// model (the per-shard logs are merged by (time, seq) at window barriers,
/// i.e. in exact serial call order), hint/repair/net counters — but NOT
/// mailbox spills, which legitimately differ between the serial executor (no
/// mailboxes) and the windowed one. threads == 1 is the merged-serial
/// reference order; every other thread count must reproduce it bit for bit.
ClusterRunResult run_sharded_schedule(std::uint64_t seed,
                                      const ShardedOpts& opts) {
  Rng setup(seed);
  sim::Simulation sim(seed);

  cluster::ClusterConfig cfg;
  cfg.dc_count = 3;
  const std::size_t per_dc = 3 + setup.uniform_u64(2);
  cfg.node_count = cfg.dc_count * per_dc;
  // rf == 2 under NTS splits [1, 1, 0]: DC 2 holds no replicas, so with its
  // clients also silenced its shard processes zero events all run.
  cfg.rf = opts.quiet_dc2 ? 2 : 3;
  const SimDuration lookahead = kMillisecond;
  cfg.latency.cross_dc.base = 2 * kMillisecond;
  cfg.latency.cross_dc.floor = lookahead;
  if (setup.chance(0.3)) cfg.request_timeout = 30 * kMillisecond;
  if (opts.resilience) {
    cluster::ResilienceConfig& rc = cfg.resilience;
    rc.hedge_reads = setup.chance(0.8);
    rc.hedge_quantile = 0.5 + setup.uniform() * 0.45;
    rc.hedge_fallback_delay = msec(1 + setup.uniform_u64(5));
    rc.read_retries = static_cast<int>(setup.uniform_u64(3));
    rc.retry_backoff = msec(1 + setup.uniform_u64(4));
    if (setup.chance(0.5)) {
      rc.admission_rate = 500 + static_cast<double>(setup.uniform_u64(4000));
      rc.admission_burst = 20 + static_cast<double>(setup.uniform_u64(100));
      rc.admission_mode = setup.chance(0.5) ? cluster::AdmissionMode::kShed
                                            : cluster::AdmissionMode::kDelay;
    }
  }

  sim.configure_shards(3, lookahead, opts.threads, opts.mailbox_capacity);
  cluster::Cluster c(sim, cfg);

  DiffSink sink;
  c.oracle().set_trace_sink(&sink);

  const std::uint64_t key_count = 40 + setup.uniform_u64(120);
  c.preload_range(key_count / 2, 256);

  const SimTime horizon = 2 * kSecond;
  if (opts.faults) {
    // Node-scoped faults only: DC blackouts would force cross-DC coordinator
    // failover, which sharded runs reject by contract. One kill/revive pair
    // per DC (never sinking a DC below one alive node), at instants that are
    // not lookahead multiples — the fences land mid-window on purpose.
    for (std::size_t d = 0; d < cfg.dc_count; ++d) {
      const auto victim =
          static_cast<net::NodeId>(d * per_dc + setup.uniform_u64(per_dc));
      const SimTime down = static_cast<SimTime>(
          100 * kMillisecond + setup.uniform_u64(kSecond));
      const auto outage = static_cast<SimDuration>(
          100 * kMillisecond + setup.uniform_u64(400 * kMillisecond));
      c.schedule_fault({down, cluster::FaultOp::kKillNode, victim, 0, 1.0});
      c.schedule_fault(
          {down + outage, cluster::FaultOp::kReviveNode, victim, 0, 1.0});
    }
    // Degradation windows: factors stay >= 1 so no link ever undercuts the
    // lookahead floor.
    const auto slow =
        static_cast<net::NodeId>(setup.uniform_u64(cfg.node_count));
    const auto deg_at = static_cast<SimTime>(1 + setup.uniform_u64(kSecond));
    c.schedule_fault({deg_at, cluster::FaultOp::kDegradeNode, slow, 0,
                      2.0 + static_cast<double>(setup.uniform_u64(8))});
    c.schedule_fault({deg_at + 300 * kMillisecond,
                      cluster::FaultOp::kRestoreNode, slow, 0, 1.0});
    const auto wan_at = static_cast<SimTime>(1 + setup.uniform_u64(kSecond));
    c.schedule_fault({wan_at, cluster::FaultOp::kDegradeWan, 0, 0,
                      1.5 + static_cast<double>(setup.uniform_u64(4))});
    c.schedule_fault({wan_at + 250 * kMillisecond,
                      cluster::FaultOp::kRestoreWan, 0, 0, 1.0});
  }

  DcCtx ctx[3];
  for (std::uint32_t d = 0; d < 3; ++d) {
    if (opts.quiet_dc2 && d == 2) continue;
    // Setup-time closures book into (and later run on) DC d's shard: every
    // client's issue instant, callback, and counter stays shard-local.
    sim.set_setup_shard(d);
    Rng traffic(mix(kFnvOffset, seed * 8 + d));
    DcCtx& cx = ctx[d];
    const auto dc = static_cast<net::DcId>(d);
    const int ops = 250 + static_cast<int>(traffic.uniform_u64(350));
    for (int i = 0; i < ops; ++i) {
      const SimTime at = static_cast<SimTime>(traffic.uniform_u64(horizon));
      const cluster::Key key = traffic.uniform_u64(key_count);
      const int k = 1 + static_cast<int>(traffic.uniform_u64(
                            static_cast<std::uint64_t>(cfg.rf)));
      cluster::ReplicaRequirement req = cluster::resolve_count(k, cfg.rf);
      const double lvl = traffic.uniform();
      if (lvl < 0.2) {
        req = cluster::resolve(cluster::Level::kLocalQuorum, cfg.rf,
                               cfg.local_rf(dc));
      } else if (lvl < 0.3 && !opts.quiet_dc2) {
        req = cluster::resolve(cluster::Level::kEachQuorum, cfg.rf,
                               cfg.local_rf(dc));
      }
      const bool is_write = traffic.chance(0.35);
      const bool storm = traffic.chance(0.02);
      ++cx.issued;
      const int rf = cfg.rf;
      sim.schedule_at(at, [&c, &cx, key, dc, req, is_write, storm, rf] {
        if (is_write) {
          c.client_write(dc, key, 512, req,
                         [&cx](const cluster::WriteResult& w) {
                           ++cx.completed;
                           cx.fp = mix(cx.fp, w.ok ? 2u : 3u);
                           cx.fp = mix(cx.fp, static_cast<std::uint64_t>(
                                                  w.version.timestamp));
                         });
          if (storm) {
            // Same-instant CL=ONE write burst: many cross-shard fan-out legs
            // land in one lookahead window (mailbox pressure).
            for (int s = 0; s < 15; ++s) {
              ++cx.issued;
              c.client_write(dc, key, 128, cluster::resolve_count(1, rf),
                             [&cx](const cluster::WriteResult& w) {
                               ++cx.completed;
                               cx.fp = mix(cx.fp, w.ok ? 2u : 3u);
                             });
            }
          }
        } else {
          c.client_read(dc, key, req, [&cx](const cluster::ReadResult& r) {
            ++cx.completed;
            cx.fp = mix(cx.fp, (r.ok ? 1u : 0u) | (r.found ? 2u : 0u) |
                                   (r.shed ? 4u : 0u));
            cx.fp = mix(cx.fp,
                        static_cast<std::uint64_t>(r.version.timestamp));
            cx.fp = mix(cx.fp, r.version.seq);
            cx.fp = mix(cx.fp, r.value_size);
            cx.fp = mix(cx.fp, static_cast<std::uint64_t>(
                                   r.replicas_contacted));
          });
        }
      });
    }
  }
  sim.set_setup_shard(0);

  sim.run();

  std::uint64_t fp = sink.fp;
  for (std::uint32_t d = 0; d < 3; ++d) {
    EXPECT_EQ(ctx[d].completed, ctx[d].issued)
        << "seed " << seed << " dc " << d << " threads " << opts.threads;
    fp = mix(fp, ctx[d].issued);
    fp = mix(fp, ctx[d].fp);
  }
  EXPECT_EQ(sink.mismatches, 0)
      << "seed " << seed
      << ": merged oracle log diverged from the reference model";
  EXPECT_EQ(c.oracle().inflight_reads(), 0u) << "seed " << seed;
  EXPECT_EQ(c.oracle().fresh_reads(), sink.ref.fresh_reads())
      << "seed " << seed;
  EXPECT_EQ(c.oracle().stale_reads(), sink.ref.stale_reads())
      << "seed " << seed;
  for (const double p : kPercentileGrid) {
    EXPECT_EQ(c.oracle().staleness_age().percentile(p),
              sink.ref.staleness_age().percentile(p))
        << "seed " << seed << " p=" << p;
  }

  fp = mix(fp, c.oracle().fresh_reads());
  fp = mix(fp, c.oracle().stale_reads());
  fp = mix(fp, c.timeouts());
  fp = mix(fp, c.unavailable());
  fp = mix(fp, c.retries());
  fp = mix(fp, c.hedges_fired());
  fp = mix(fp, c.hedge_wins());
  fp = mix(fp, c.sheds());
  fp = mix(fp, c.hints_stored());
  fp = mix(fp, c.hints_replayed());
  fp = mix(fp, c.replica_ops());
  fp = mix(fp, c.read_repairs_sent());
  fp = mix(fp, c.net_stats().total_bytes());

  ClusterRunResult out;
  out.fingerprint = fp;
  out.events = sim.events_processed();
  out.end_time = sim.now();
  out.spills = sim.mailbox_spills();
  return out;
}

/// Run one sharded scenario at 1, 2, and 4 threads and assert the parallel
/// executions reproduce the merged-serial reference bit for bit. Returns the
/// serial result for scenario-specific follow-up assertions.
ClusterRunResult assert_sharded_thread_invariance(std::uint64_t seed,
                                                  ShardedOpts opts) {
  opts.threads = 1;
  const ClusterRunResult serial = run_sharded_schedule(seed, opts);
  EXPECT_FALSE(::testing::Test::HasFailure())
      << "sharded serial reference diverged at seed " << seed;
  for (const unsigned threads : {2u, 4u}) {
    opts.threads = threads;
    const ClusterRunResult par = run_sharded_schedule(seed, opts);
    EXPECT_FALSE(::testing::Test::HasFailure())
        << "sharded run diverged at seed " << seed << " threads " << threads;
    EXPECT_EQ(serial.fingerprint, par.fingerprint)
        << "sharded run diverged from serial reference, seed " << seed
        << " threads " << threads;
    EXPECT_EQ(serial.events, par.events)
        << "seed " << seed << " threads " << threads;
    EXPECT_EQ(serial.end_time, par.end_time)
        << "seed " << seed << " threads " << threads;
  }
  return serial;
}

TEST(RequestPathDiff, ShardedRunByteIdenticalAcrossThreadCounts) {
  std::uint64_t schedules = 0;
  auto run_block = [&](std::uint64_t base, std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      ShardedOpts opts;
      opts.faults = (i % 2) == 1;      // fenced kill/revive/degrade script
      opts.resilience = (i % 3) == 1;  // hedges racing cross-shard responses
      assert_sharded_thread_invariance(base + i, opts);
      ASSERT_FALSE(::testing::Test::HasFailure())
          << "sharded diff diverged at seed " << base + i;
      ++schedules;
    }
  };
  run_block(0x5AA4DED0ULL, 8);
  for (const auto seed : extra_seeds()) run_block(seed, 2);
  std::printf("[diff] sharded cluster schedules: %llu\n",
              (unsigned long long)schedules);
}

TEST(RequestPathDiff, ShardedKillReviveMidWindowByteIdentical) {
  // Every scenario in this block carries the fault script: each fault
  // instant becomes a fence the windowed executor must split on, so windows
  // repeatedly end mid-lookahead and the kill/revive (plus hint replay on
  // revival) executes merged-serial between parallel windows.
  std::uint64_t schedules = 0;
  for (std::uint64_t i = 0; i < 4; ++i) {
    ShardedOpts opts;
    opts.faults = true;
    opts.resilience = (i % 2) == 1;
    assert_sharded_thread_invariance(0xFA57ULL + i, opts);
    ASSERT_FALSE(::testing::Test::HasFailure())
        << "sharded fault diff diverged at seed " << 0xFA57ULL + i;
    ++schedules;
  }
  std::printf("[diff] sharded fault schedules: %llu\n",
              (unsigned long long)schedules);
}

TEST(RequestPathDiff, ShardedTinyMailboxBackpressureIsDeterministic) {
  // mailbox_capacity == 1: nearly every multi-leg cross-DC fan-out overflows
  // into the spill vector. Backpressure must be an observability event, not
  // a behavior change — parallel fingerprints still match the serial
  // reference (which never touches a mailbox and so never spills).
  for (std::uint64_t i = 0; i < 3; ++i) {
    const std::uint64_t seed = 0x3B0E5ULL + i;
    ShardedOpts opts;
    opts.mailbox_capacity = 1;
    ShardedOpts probe = opts;
    probe.threads = 4;
    const ClusterRunResult par = run_sharded_schedule(seed, probe);
    EXPECT_GT(par.spills, 0u)
        << "seed " << seed
        << ": capacity-1 mailboxes were expected to overflow";
    const ClusterRunResult serial = assert_sharded_thread_invariance(seed, opts);
    ASSERT_FALSE(::testing::Test::HasFailure())
        << "tiny-mailbox diff diverged at seed " << seed;
    EXPECT_EQ(serial.spills, 0u) << "serial mode must not touch mailboxes";
  }
}

// --------------------------------------------------- key-range sharding diff

/// Options for one key-range-sharded scenario (run_key_range_schedule).
struct KeyRangeOpts {
  unsigned threads = 1;
  std::uint32_t shards = 4;  ///< key-range shards inside DC 0
  bool second_dc = false;    ///< add a single-shard DC 1 (mixed plan)
  bool anti_entropy = false; ///< fenced per-shard sweeps (lifted restriction)
  bool faults = false;       ///< fenced kill/revive inside the split DC
};

/// One scenario with DC 0 split into `shards` key-range shards. Traffic is
/// routed the way the workload layer does it: every operation is issued from
/// home_shard(dc, key), so replicas of a key routinely live on *other*
/// shards of the same DC and the write fan-out crosses shards intra-DC. The
/// lookahead is the intra-DC floor (well under cross_dc), so windows are
/// short and the intra-DC legs ride the mailbox constantly. threads == 1 is
/// the merged-serial reference; every other thread count must reproduce its
/// fingerprint bit for bit.
ClusterRunResult run_key_range_schedule(std::uint64_t seed,
                                        const KeyRangeOpts& opts) {
  Rng setup(seed);
  sim::Simulation sim(seed);

  cluster::ClusterConfig cfg;
  cfg.dc_count = opts.second_dc ? 2 : 1;
  const std::size_t per_dc = 2 * opts.shards;  // two coordinator candidates
  cfg.node_count = cfg.dc_count * per_dc;      // per shard, kills included
  cfg.rf = 3;
  // Intra-DC hops now cross shards, so the conservative lookahead is the
  // *intra*-DC floor — the floors must cover it (the cluster ctor enforces
  // this), and cross-DC keeps its own larger floor.
  const SimDuration lookahead = usec(150);
  cfg.latency.same_rack.floor = lookahead;
  cfg.latency.same_dc.floor = lookahead;
  cfg.latency.cross_dc.base = 2 * kMillisecond;
  cfg.latency.cross_dc.floor = kMillisecond;
  if (setup.chance(0.3)) cfg.request_timeout = 30 * kMillisecond;
  if (opts.anti_entropy) cfg.anti_entropy_period = 50 * kMillisecond;

  std::vector<std::uint32_t> plan{opts.shards};
  if (opts.second_dc) plan.push_back(1);  // mixed plan: split DC + legacy DC
  sim.configure_shards(plan, lookahead, opts.threads);
  cluster::Cluster c(sim, cfg);

  DiffSink sink;
  c.oracle().set_trace_sink(&sink);

  const std::uint64_t key_count = 60 + setup.uniform_u64(120);
  c.preload_range(key_count / 2, 256);

  const SimTime horizon = kSecond;
  if (opts.faults) {
    // Kill/revive one node per key-range shard of DC 0 (each shard keeps a
    // second coordinator candidate alive); the fault instants are fences, so
    // the windowed executor splits mid-lookahead around them.
    for (std::uint32_t s = 0; s < opts.shards; ++s) {
      const auto victim = static_cast<net::NodeId>(
          s + opts.shards * setup.uniform_u64(2));
      const SimTime down = static_cast<SimTime>(
          50 * kMillisecond + setup.uniform_u64(horizon / 2));
      const auto outage = static_cast<SimDuration>(
          50 * kMillisecond + setup.uniform_u64(200 * kMillisecond));
      c.schedule_fault({down, cluster::FaultOp::kKillNode, victim, 0, 1.0});
      c.schedule_fault(
          {down + outage, cluster::FaultOp::kReviveNode, victim, 0, 1.0});
    }
  }

  // One traffic context per shard, touched only by that shard's events.
  std::vector<DcCtx> ctx(sim.shard_count());
  Rng traffic(mix(kFnvOffset, seed * 16 + opts.shards));
  const int ops = 400 + static_cast<int>(traffic.uniform_u64(400));
  for (int i = 0; i < ops; ++i) {
    const SimTime at = static_cast<SimTime>(traffic.uniform_u64(horizon));
    const cluster::Key key = traffic.uniform_u64(key_count);
    const auto dc = static_cast<net::DcId>(
        opts.second_dc && traffic.chance(0.3) ? 1 : 0);
    const int k = 1 + static_cast<int>(traffic.uniform_u64(
                          static_cast<std::uint64_t>(cfg.rf)));
    cluster::ReplicaRequirement req = cluster::resolve_count(k, cfg.rf);
    if (traffic.uniform() < 0.2) {
      req = cluster::resolve(cluster::Level::kLocalQuorum, cfg.rf,
                             cfg.local_rf(dc));
    }
    const bool is_write = traffic.chance(0.4);
    const bool storm = traffic.chance(0.02);
    // The workload-layer routing rule: the op lives on its key's home shard
    // within the issuing DC. Its callback and counters stay there too.
    const std::uint32_t shard = c.home_shard(dc, key);
    sim.set_setup_shard(shard);
    DcCtx& cx = ctx[shard];
    ++cx.issued;
    const int rf = cfg.rf;
    sim.schedule_at(at, [&c, &cx, key, dc, req, is_write, storm, rf] {
      if (is_write) {
        c.client_write(dc, key, 512, req,
                       [&cx](const cluster::WriteResult& w) {
                         ++cx.completed;
                         cx.fp = mix(cx.fp, w.ok ? 2u : 3u);
                         cx.fp = mix(cx.fp, static_cast<std::uint64_t>(
                                                w.version.timestamp));
                       });
        if (storm) {
          // Same-key CL=ONE burst: every leg fans out to replicas on other
          // shards of the DC within one short intra-DC window.
          for (int s = 0; s < 15; ++s) {
            ++cx.issued;
            c.client_write(dc, key, 128, cluster::resolve_count(1, rf),
                           [&cx](const cluster::WriteResult& w) {
                             ++cx.completed;
                             cx.fp = mix(cx.fp, w.ok ? 2u : 3u);
                           });
          }
        }
      } else {
        c.client_read(dc, key, req, [&cx](const cluster::ReadResult& r) {
          ++cx.completed;
          cx.fp = mix(cx.fp, (r.ok ? 1u : 0u) | (r.found ? 2u : 0u) |
                                 (r.shed ? 4u : 0u));
          cx.fp = mix(cx.fp, static_cast<std::uint64_t>(r.version.timestamp));
          cx.fp = mix(cx.fp, r.version.seq);
          cx.fp = mix(cx.fp, r.value_size);
          cx.fp = mix(cx.fp,
                      static_cast<std::uint64_t>(r.replicas_contacted));
        });
      }
    });
  }
  sim.set_setup_shard(0);

  sim.run();

  std::uint64_t fp = sink.fp;
  for (std::size_t s = 0; s < ctx.size(); ++s) {
    EXPECT_EQ(ctx[s].completed, ctx[s].issued)
        << "seed " << seed << " shard " << s << " threads " << opts.threads;
    fp = mix(fp, ctx[s].issued);
    fp = mix(fp, ctx[s].fp);
  }
  EXPECT_EQ(sink.mismatches, 0)
      << "seed " << seed
      << ": merged oracle log diverged from the reference model";
  EXPECT_EQ(c.oracle().inflight_reads(), 0u) << "seed " << seed;
  EXPECT_EQ(c.oracle().fresh_reads(), sink.ref.fresh_reads())
      << "seed " << seed;
  EXPECT_EQ(c.oracle().stale_reads(), sink.ref.stale_reads())
      << "seed " << seed;

  fp = mix(fp, c.oracle().fresh_reads());
  fp = mix(fp, c.oracle().stale_reads());
  fp = mix(fp, c.timeouts());
  fp = mix(fp, c.unavailable());
  fp = mix(fp, c.anti_entropy_repairs());
  fp = mix(fp, c.hints_stored());
  fp = mix(fp, c.hints_replayed());
  fp = mix(fp, c.replica_ops());
  fp = mix(fp, c.read_repairs_sent());
  fp = mix(fp, c.net_stats().total_bytes());

  ClusterRunResult out;
  out.fingerprint = fp;
  out.events = sim.events_processed();
  out.end_time = sim.now();
  out.spills = sim.mailbox_spills();
  return out;
}

/// Run one key-range scenario at 1, 2, 4, and 8 threads and assert every
/// parallel execution reproduces the merged-serial reference bit for bit.
void assert_key_range_thread_invariance(std::uint64_t seed, KeyRangeOpts opts) {
  opts.threads = 1;
  const ClusterRunResult serial = run_key_range_schedule(seed, opts);
  EXPECT_FALSE(::testing::Test::HasFailure())
      << "key-range serial reference diverged at seed " << seed;
  for (const unsigned threads : {2u, 4u, 8u}) {
    opts.threads = threads;
    const ClusterRunResult par = run_key_range_schedule(seed, opts);
    EXPECT_FALSE(::testing::Test::HasFailure())
        << "key-range run diverged at seed " << seed << " threads " << threads;
    EXPECT_EQ(serial.fingerprint, par.fingerprint)
        << "key-range sharded run diverged from serial reference, seed "
        << seed << " threads " << threads;
    EXPECT_EQ(serial.events, par.events)
        << "seed " << seed << " threads " << threads;
    EXPECT_EQ(serial.end_time, par.end_time)
        << "seed " << seed << " threads " << threads;
  }
}

TEST(RequestPathDiff, KeyRangeShardedByteIdenticalAcrossThreadCounts) {
  // A single DC split into 4 key-range shards: the scaling shape PR 8 could
  // not express (its shard count was pinned to the DC count). 1, 2, 4, and
  // 8 worker threads must all reproduce the merged-serial reference.
  std::uint64_t schedules = 0;
  for (std::uint64_t i = 0; i < 4; ++i) {
    KeyRangeOpts opts;
    opts.shards = (i % 2) == 0 ? 4 : 3;
    opts.faults = i >= 2;
    assert_key_range_thread_invariance(0x4EE7A6E0ULL + i, opts);
    ASSERT_FALSE(::testing::Test::HasFailure())
        << "key-range diff diverged at seed " << 0x4EE7A6E0ULL + i;
    ++schedules;
  }
  std::printf("[diff] key-range sharded schedules: %llu\n",
              (unsigned long long)schedules);
}

TEST(RequestPathDiff, KeyRangeShardedAntiEntropyByteIdentical) {
  // Anti-entropy used to be rejected under sharding; sweeps now run
  // per-shard at fenced instants with a cross-shard dedup of deferred dirty
  // keys. The repair stream (and everything downstream of it) must still be
  // byte-identical across thread counts.
  for (std::uint64_t i = 0; i < 3; ++i) {
    KeyRangeOpts opts;
    opts.anti_entropy = true;
    opts.faults = (i % 2) == 1;  // outages make hints + dirty keys pile up
    assert_key_range_thread_invariance(0xAE5EE0ULL + i, opts);
    ASSERT_FALSE(::testing::Test::HasFailure())
        << "key-range anti-entropy diff diverged at seed " << 0xAE5EE0ULL + i;
  }
}

TEST(RequestPathDiff, KeyRangeShardedMixedPlanByteIdentical) {
  // Mixed plan: DC 0 splits into 4 shards, DC 1 keeps the legacy one-shard
  // layout. Cross-DC replication legs and intra-DC cross-shard legs coexist
  // under the intra-DC lookahead floor.
  for (std::uint64_t i = 0; i < 3; ++i) {
    KeyRangeOpts opts;
    opts.second_dc = true;
    opts.anti_entropy = (i % 2) == 1;
    assert_key_range_thread_invariance(0x3D1A6ULL + i, opts);
    ASSERT_FALSE(::testing::Test::HasFailure())
        << "mixed-plan diff diverged at seed " << 0x3D1A6ULL + i;
  }
}

TEST(RequestPathDiff, ShardedEmptyShardStaysIdleAndDeterministic) {
  // rf == 2 (NTS split [1, 1, 0]) with DC 2's clients silenced: shard 2 owns
  // nodes but processes zero events all run. The window loop must neither
  // stall on the idle shard nor let it perturb the merged order.
  for (std::uint64_t i = 0; i < 3; ++i) {
    ShardedOpts opts;
    opts.quiet_dc2 = true;
    opts.faults = (i % 2) == 1;
    assert_sharded_thread_invariance(0xE3057ULL + i, opts);
    ASSERT_FALSE(::testing::Test::HasFailure())
        << "empty-shard diff diverged at seed " << 0xE3057ULL + i;
  }
}

}  // namespace
}  // namespace harmony::testing
