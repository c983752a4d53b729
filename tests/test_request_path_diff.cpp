// Randomized differential harness for the allocation-free request path.
//
// The optimized hot lanes (SlotPool pending requests, the StalenessOracle's
// shared commit log, inline LatencyHistogram) are replayed against naive
// reference twins (tests/reference/) over thousands of seeded schedules:
//
//   * oracle schedules — interleavings of commits (including write storms and
//     out-of-timestamp-order versions), reads beginning exactly at fold
//     boundaries, reads sharing a start time, reads ending with and without a
//     judgement (the timeout/unavailable paths), and reads held open across
//     enough commits to grow the commit log past its first capacity;
//   * histogram schedules — mixed record/record_n/merge streams compared on
//     count, min, max, mean, and a whole percentile grid;
//   * lognormal draws — Rng::lognormal_median against the libm formula it
//     replaces, integer for integer and stream position for stream
//     position: every latency tier, the node disk and jitter draws, random
//     (median, sigma) pairs, medians chosen to land libm's value on an
//     integer, and streams that open with u1 a few ulps below 1;
//   * slot-pool schedules — acquire/release/lookup churn, including lookups
//     through stale handles of recycled slots, against a unique-id map;
//   * preload-base schedules — a replica store with a random copy-on-write
//     preload base against a map that loaded every base key explicitly:
//     ties and near-ties with base versions, unset bits, keys past the
//     base, and clears;
//   * event-queue schedules — typed pushes from zero delay to several wheel
//     spans (and one past 2^32 µs), stamped pushes with earlier-drawn seqs
//     delivered shuffled as a mailbox drain does, closure pushes and
//     cancels, peeks, and pops at random horizons, against one ordered map
//     over both lanes;
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

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/node.h"
#include "cluster/replica_store.h"
#include "cluster/staleness_oracle.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/slot_pool.h"
#include "net/latency_model.h"
#include "reference/reference_event_queue.h"
#include "reference/reference_histogram.h"
#include "reference/reference_lognormal.h"
#include "reference/reference_oracle.h"
#include "reference/reference_pending_map.h"
#include "reference/reference_store.h"
#include "sim/event_queue.h"
#include "sim/simulation.h"

namespace harmony::testing {
namespace {

// Default schedule counts; the acceptance bar for this harness is >= 5000
// randomized schedules per full run (3200 + 1500 + 600 + 400 + 2000 + 40 =
// 7740).
constexpr std::uint64_t kOracleSchedules = 3200;
constexpr std::uint64_t kHistogramSchedules = 1500;
constexpr std::uint64_t kPoolSchedules = 600;
constexpr std::uint64_t kStoreSchedules = 400;
constexpr std::uint64_t kEventQueueSchedules = 2000;
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
  // A quarter of the schedules spread over up to 64 keys and hold their
  // first read open across more commits than the oracle log's first
  // capacity (64), so the shared log grows, and wraps once it drains.
  const bool wide = rng.chance(0.25);
  const std::uint64_t keys = 1 + rng.uniform_u64(wide ? 64 : 6);
  const int ops = 40 + static_cast<int>(rng.uniform_u64(260));
  std::uint64_t hold_commits = wide ? 65 + rng.uniform_u64(200) : 0;
  SimTime now = 0;
  std::uint64_t seq = 0;
  std::uint64_t fp = kFnvOffset;

  struct InFlight {
    SimTime start;
    cluster::Key key;
  };
  std::vector<InFlight> reads;
  bool hold_next = wide;
  std::optional<InFlight> held;  // the first read of a wide schedule
  std::vector<std::vector<cluster::Version>> committed(keys);

  auto commit_one = [&](cluster::Key key) {
    // Timestamps sometimes lag the commit instant: two concurrent writes can
    // commit in the opposite of timestamp order.
    const SimTime ts = now - static_cast<SimTime>(rng.uniform_u64(4));
    const cluster::Version v{ts, ++seq};
    prod.record_commit(key, v, now);
    ref.record_commit(key, v, now);
    committed[key].push_back(v);
    if (held && --hold_commits == 0) {
      reads.push_back(*held);  // released: it may now end like any other
      held.reset();
    }
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

  for (int op = 0; op < ops || held; ++op) {
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
        const InFlight r{now, rng.uniform_u64(keys)};
        if (hold_next) {
          held = r;
          hold_next = false;
        } else {
          reads.push_back(r);
        }
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

// ------------------------------------------------------- lognormal draw diff

constexpr std::uint64_t kDrawsPerStream = 1'000'000;
constexpr int kIntegerEdgeCases = 20'000;
constexpr int kNearOneCases = 4000;

struct DrawParams {
  double median, sigma;
};

/// Draws `n` values through Rng::lognormal_median on `rng` and through the
/// libm reference on a clone, with (median, sigma) = params(i) for draw i.
/// Every integer must match, and so must the next raw output after every
/// draw (each side consumed exactly two). Positions whose libm value has no
/// int64 truncation are stepped over on both sides; returns how many.
template <typename Params>
std::uint64_t check_draw_stream(Rng rng, std::uint64_t n, Params params,
                                const std::string& what) {
  Rng ref = rng;
  std::uint64_t skipped = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const DrawParams p = params(i);
    const double value = reference_lognormal_value(ref, p.median, p.sigma);
    if (!(value < 0x1.0p63)) {
      rng.next();
      rng.next();
      ++skipped;
      continue;
    }
    const std::int64_t got = rng.lognormal_median(p.median, p.sigma);
    if (got != static_cast<std::int64_t>(value)) {
      ADD_FAILURE() << what << ", draw " << i << std::setprecision(17)
                    << ": median " << p.median << " sigma " << p.sigma
                    << " gave " << got << ", libm " << value;
      return skipped;
    }
    if (rng.next() != ref.next()) {
      ADD_FAILURE() << what << ", draw " << i
                    << ": streams out of step after the draw";
      return skipped;
    }
  }
  return skipped;
}

/// Median for which libm's median * factor rounds to exactly `target`, or
/// 0 if no double within a few ulps of target / factor does.
double median_hitting(double target, double factor) {
  double median = target / factor;
  for (int step = 0; step < 8; ++step) {
    if (median * factor == target) return median;
    median = std::nextafter(median, median * factor < target
                                        ? std::numeric_limits<double>::max()
                                        : 0.0);
  }
  return 0.0;
}

/// Inverse of y = x ^ (x >> s).
std::uint64_t unxorshift(std::uint64_t y, int s) {
  std::uint64_t x = y;
  for (int i = 0; i < 64 / s + 1; ++i) x = y ^ (x >> s);
  return x;
}

/// Multiplicative inverse of an odd a modulo 2^64 (Newton's iteration).
std::uint64_t inverse_odd(std::uint64_t a) {
  std::uint64_t x = a;
  for (int i = 0; i < 5; ++i) x *= 2 - a * x;
  return x;
}

/// A seed whose Rng's first next() returns `out`: undoes xoshiro256**'s
/// output scrambler on state word 1, then the SplitMix64 finalizer that
/// seeded it (word 1 is hash64(seed + golden gamma)).
std::uint64_t seed_with_first_output(std::uint64_t out) {
  const std::uint64_t x = out * inverse_odd(9);
  std::uint64_t z = ((x >> 7) | (x << 57)) * inverse_odd(5);
  z = unxorshift(z, 31) * inverse_odd(0x94D049BB133111EBULL);
  z = unxorshift(z, 27) * inverse_odd(0xBF58476D1CE4E5B9ULL);
  return unxorshift(z, 30) - 2 * 0x9E3779B97F4A7C15ULL;
}

void run_lognormal_block(std::uint64_t seed) {
  Rng master(seed);
  std::uint64_t salt = 0;
  auto fixed = [](double median, double sigma) {
    return [=](std::uint64_t) { return DrawParams{median, sigma}; };
  };
  const std::string at = " (seed " + std::to_string(seed) + ")";

  // Every tier of the three presets, as TieredLatencyModel::sample and
  // Cluster::client_link_delay draw them.
  using Model = net::TieredLatencyModel;
  const std::pair<const char*, Model::Params> presets[] = {
      {"ec2_two_az", Model::ec2_two_az()},
      {"grid5000_two_sites", Model::grid5000_two_sites()},
      {"lan", Model::lan()}};
  for (const auto& [name, p] : presets) {
    const std::pair<const char*, net::LatencyTier> tiers[] = {
        {"loopback", p.loopback},
        {"same_rack", p.same_rack},
        {"same_dc", p.same_dc},
        {"cross_dc", p.cross_dc}};
    for (const auto& [tier, t] : tiers) {
      check_draw_stream(master.fork(++salt), kDrawsPerStream,
                        fixed(static_cast<double>(t.base), t.sigma),
                        std::string(name) + " " + tier + at);
    }
  }

  // Node::base_cost's disk draw, and Node::service's jitter over each
  // kind's base cost (reads and digests add a disk draw 30% of the time).
  const cluster::NodeParams np;
  check_draw_stream(
      master.fork(++salt), kDrawsPerStream,
      fixed(static_cast<double>(np.disk_read_median), np.disk_sigma),
      "node disk draw" + at);
  Rng costs = master.fork(++salt);
  check_draw_stream(
      master.fork(++salt), kDrawsPerStream,
      [&](std::uint64_t) {
        const SimDuration base[] = {np.cpu_read, np.cpu_digest,
                                    np.cpu_write + np.commit_log_write,
                                    np.cpu_coord};
        const std::uint64_t kind = costs.uniform_u64(4);
        SimDuration cost = base[kind];
        if (kind < 2 && costs.chance(np.disk_read_probability)) {
          cost += costs.lognormal_median(
              static_cast<double>(np.disk_read_median), np.disk_sigma);
        }
        return DrawParams{static_cast<double>(cost), np.service_jitter_sigma};
      },
      "node service jitter" + at);

  // Random pairs: median log-uniform over [1, 1e5], sigma over [0, 16].
  Rng pairs = master.fork(++salt);
  const std::uint64_t skipped = check_draw_stream(
      master.fork(++salt), kDrawsPerStream,
      [&](std::uint64_t) {
        const double median = std::exp(pairs.uniform(0.0, std::log(1e5)));
        return DrawParams{median, pairs.uniform(0.0, 16.0)};
      },
      "random (median, sigma)" + at);
  EXPECT_LT(skipped, kDrawsPerStream / 20)
      << "random pairs: too many draws past int64" << at;

  // Integer edges: pick the median so that libm's product is exactly an
  // integer k, or one ulp either side of it — where truncation flips
  // between k - 1 and k. Only the band's fallback returns libm's integer
  // there.
  Rng edges = master.fork(++salt);
  Rng params = master.fork(++salt);
  int hit = 0;
  for (int c = 0; c < kIntegerEdgeCases; ++c) {
    const double sigma =
        c % 2 == 0 ? params.uniform(0.0, 1.0) : params.uniform(0.0, 16.0);
    Rng peek = edges;
    const double factor = reference_lognormal_factor(peek, sigma);
    const auto k = static_cast<double>(1 + params.uniform_u64(100'000));
    for (const double target :
         {std::nextafter(k, 0.0), k, std::nextafter(k, 2 * k)}) {
      const double median = median_hitting(target, factor);
      if (median <= 0.0) continue;
      ++hit;
      const std::string what = "integer edge " + std::to_string(c) + at;
      check_draw_stream(edges, 1, fixed(median, sigma), what);
      Rng ref = edges;
      ASSERT_EQ(reference_lognormal_median(ref, median, sigma),
                static_cast<std::int64_t>(target))
          << what;
    }
    if (::testing::Test::HasFailure()) return;
    edges.next();
    edges.next();
  }
  EXPECT_GT(hit, kIntegerEdgeCases) << "too few integer edges built" << at;

  // u1 a few ulps below 1, where -log(u1) is itself a few ulps and a
  // relative error in it moves v most: streams seeded to open with
  // u1 = 1 - j * 2^-53, j <= 4 (a random position lands there once in 2^51
  // draws), then |cos(2 pi u2)| >= 0.9 and sigma near its cap of 16, and
  // libm's value put a hair (1e-9 to 3e-8 relative) either side of an
  // integer.
  for (int c = 0; c < kNearOneCases; ++c) {
    const std::uint64_t j = 1 + params.uniform_u64(4);
    const double u1 = 1.0 - static_cast<double>(j) * 0x1.0p-53;
    Rng rng;
    for (;;) {
      const std::uint64_t out =
          (((1ULL << 53) - j) << 11) | params.uniform_u64(1 << 11);
      rng = Rng(seed_with_first_output(out));
      Rng peek = rng;
      ASSERT_EQ(peek.uniform(), u1) << "seed construction" << at;
      if (std::fabs(std::cos(2.0 * M_PI * peek.uniform())) >= 0.9) break;
    }
    const double sigma = c % 2 == 0 ? 16.0 : params.uniform(8.0, 16.0);
    Rng peek = rng;
    const double factor = reference_lognormal_factor(peek, sigma);
    const auto n = static_cast<double>(1000 + params.uniform_u64(1'000'000));
    for (const double offset : {-3e-8, -1e-8, -1e-9, 1e-9, 1e-8, 3e-8}) {
      check_draw_stream(rng, 1, fixed(n * (1.0 + offset) / factor, sigma),
                        "u1 = 1 - " + std::to_string(j) + " * 2^-53" + at);
    }
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(RequestPathDiff, LognormalDrawMatchesLibmFormula) {
  std::uint64_t blocks = 0;
  auto run_block = [&](std::uint64_t seed) {
    run_lognormal_block(seed);
    ASSERT_FALSE(::testing::Test::HasFailure())
        << "lognormal draw diverged at seed " << seed;
    ++blocks;
  };
  run_block(0x10E4A1ULL);
  for (const auto seed : extra_seeds()) run_block(seed);
  std::printf("[diff] lognormal draw seeds: %llu\n",
              (unsigned long long)blocks);
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

// ------------------------------------------------------- event-queue diff

/// The typed lane's wheel span, 2^14 µs: schedules push events just inside,
/// at and just past it.
constexpr SimDuration kWheelSpan = SimDuration{1} << 14;

/// A push delay: zero, short, medium, around the wheel's span, several spans
/// out (the far tier), or one of a few same-instant values.
SimDuration draw_event_delay(Rng& rng) {
  switch (rng.uniform_u64(6)) {
    case 0:
      return 0;
    case 1:
      return 1 + static_cast<SimDuration>(rng.uniform_u64(63));
    case 2:
      return 64 + static_cast<SimDuration>(rng.uniform_u64(4032));
    case 3:
      return kWheelSpan - 2 + static_cast<SimDuration>(rng.uniform_u64(5));
    case 4:
      return static_cast<SimDuration>(rng.uniform_u64(8 * kWheelSpan + 1));
    default:
      return static_cast<SimDuration>(rng.uniform_u64(4));
  }
}

/// One randomized schedule through sim::EventQueue and the naive twin: typed
/// pushes, stamped pushes whose seqs were drawn earlier (some from sibling
/// shards' streams) inserted shuffled as a mailbox drain does, closure
/// pushes and cancels, peeks, and pops at random horizons. Every pop's
/// (when, seq, lane, tag) and PopResult must match.
void run_event_queue_schedule(std::uint64_t seed) {
  using Ref = ReferenceEventQueue;
  Rng rng(seed);
  // What the real queue's last pop ran (declared before the queue: pending
  // closures point at them).
  Ref::Lane ran_lane = Ref::Lane::kTyped;
  std::uint64_t ran_tag = 0;
  sim::EventQueue q;
  Ref ref;

  // The queue draws seqs offset, offset + K, ... like shard `offset` of K.
  const std::uint64_t stride = std::uint64_t{1} << rng.uniform_u64(3);
  const std::uint64_t offset = rng.uniform_u64(stride);
  q.set_seq_stream(offset, stride);
  std::vector<std::uint64_t> stream_next(stride);  // per stream, in units of K
  auto draw_seq = [&](std::uint64_t stream) {
    if (stream != offset) {
      // A sibling shard's stream runs close to this one's.
      const std::uint64_t own = stream_next[offset];
      const std::uint64_t lag = rng.uniform_u64(4);
      stream_next[stream] =
          std::max(stream_next[stream], own > lag ? own - lag : 0);
    }
    return stream + stride * stream_next[stream]++;
  };

  auto typed = [](std::uint64_t tag) {
    sim::TypedEvent ev;
    ev.kind = sim::EventKind::kUserProbe;
    ev.u.raw[0] = tag;
    return ev;
  };
  struct Held {
    SimTime when;
    std::uint64_t seq;
    std::uint64_t tag;
  };
  std::vector<Held> held;  // stamped events not yet delivered
  struct Timer {
    sim::EventHandle handle;
    SimTime when;
    std::uint64_t seq;
  };
  std::vector<Timer> timers;
  SimTime now = 0;  // time of the last pop
  std::uint64_t next_tag = 1;

  auto deliver_held = [&] {
    for (std::size_t i = held.size(); i > 1; --i) {
      std::swap(held[i - 1], held[rng.uniform_u64(i)]);
    }
    for (const Held& h : held) {
      q.push_typed_stamped(h.when, h.seq, typed(h.tag));
      ref.push(h.when, h.seq, Ref::Lane::kTyped, h.tag);
    }
    held.clear();
  };
  auto push_typed = [&](SimTime when) {
    const std::uint64_t seq = draw_seq(offset);
    ASSERT_EQ(q.alloc_seq(), seq);
    q.push_typed_stamped(when, seq, typed(next_tag));
    ref.push(when, seq, Ref::Lane::kTyped, next_tag++);
  };
  // One pop on both sides; true when both ran an event.
  auto pop_once = [&](SimTime horizon) {
    Ref::Event want;
    const Ref::Result want_r = ref.run_before(horizon, want);
    SimTime when = -1;
    std::uint64_t seq = 0;
    ran_tag = 0;
    const auto got_r = q.run_before(
        horizon,
        [&](SimTime w, std::uint64_t s) {
          when = w;
          seq = s;
        },
        [&](const sim::TypedEvent& ev) {
          ran_lane = Ref::Lane::kTyped;
          ran_tag = ev.u.raw[0];
        });
    EXPECT_EQ(static_cast<int>(got_r), static_cast<int>(want_r))
        << "pop result, horizon " << horizon;
    if (got_r != sim::EventQueue::PopResult::kEvent ||
        want_r != Ref::Result::kEvent) {
      return false;
    }
    EXPECT_EQ(when, want.when);
    EXPECT_EQ(seq, want.seq);
    EXPECT_EQ(ran_lane, want.lane);
    EXPECT_EQ(ran_tag, want.tag);
    now = when;
    return !::testing::Test::HasFailure();
  };

  const std::uint64_t steps = 100 + rng.uniform_u64(300);
  const std::uint64_t far_step = rng.uniform_u64(steps);
  for (std::uint64_t step = 0; step < steps; ++step) {
    if (step == far_step) {
      // Past 2^32 µs: slot indices come from the low bits of the time.
      push_typed(now + (SimDuration{1} << 32) +
                 static_cast<SimDuration>(rng.uniform_u64(kWheelSpan)));
    }
    const std::uint64_t action = rng.uniform_u64(100);
    if (action < 35) {
      push_typed(now + draw_event_delay(rng));
    } else if (action < 50) {
      const std::uint64_t stream =
          rng.chance(0.5) ? offset : rng.uniform_u64(stride);
      const std::uint64_t seq = draw_seq(stream);
      if (stream == offset) {
        ASSERT_EQ(q.alloc_seq(), seq);
      }
      held.push_back({now + draw_event_delay(rng), seq, next_tag++});
    } else if (action < 60) {
      const SimTime when = now + draw_event_delay(rng);
      const std::uint64_t tag = next_tag++;
      sim::EventHandle h = q.push(when, [&ran_lane, &ran_tag, tag] {
        ran_lane = Ref::Lane::kClosure;
        ran_tag = tag;
      });
      const std::uint64_t seq = draw_seq(offset);
      ref.push(when, seq, Ref::Lane::kClosure, tag);
      timers.push_back({h, when, seq});
    } else if (action < 66) {
      if (!timers.empty()) {
        // A fired or already-cancelled timer cancels as a no-op on both.
        const std::size_t i = rng.uniform_u64(timers.size());
        timers[i].handle.cancel();
        ref.cancel(timers[i].when, timers[i].seq);
        timers[i] = timers.back();
        timers.pop_back();
      }
    } else if (action < 74) {
      SimTime w1 = -1, w2 = -1;
      std::uint64_t s1 = 0, s2 = 0;
      const bool got = q.peek_next(w1, s1);
      ASSERT_EQ(got, ref.peek(w2, s2));
      if (got) {
        ASSERT_EQ(w1, w2);
        ASSERT_EQ(s1, s2);
      }
    } else {
      // A window opens: the mailbox drains, then events run.
      deliver_held();
      const std::uint64_t pick = rng.uniform_u64(10);
      if (pick == 0) {
        while (pop_once(std::numeric_limits<SimTime>::max())) {
        }
      } else {
        const SimTime horizon =
            pick == 1 ? now - 1 : now + draw_event_delay(rng);
        const std::uint64_t pops = 1 + rng.uniform_u64(16);
        for (std::uint64_t k = 0; k < pops && pop_once(horizon); ++k) {
        }
      }
    }
    ASSERT_FALSE(::testing::Test::HasFailure()) << "at step " << step;
    ASSERT_EQ(q.size(), ref.size());
  }
  deliver_held();
  while (pop_once(std::numeric_limits<SimTime>::max())) {
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(ref.size(), 0u);
}

TEST(RequestPathDiff, EventQueueMatchesReference) {
  std::uint64_t schedules = 0;
  auto run_block = [&](std::uint64_t base, std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      run_event_queue_schedule(base + i);
      ASSERT_FALSE(::testing::Test::HasFailure())
          << "event-queue diff diverged at seed " << base + i;
      ++schedules;
    }
  };
  run_block(0xE7E17001ULL, kEventQueueSchedules);
  for (const auto seed : extra_seeds()) run_block(seed, 200);
  std::printf("[diff] event-queue schedules: %llu\n",
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

/// One traffic context's client-side bookkeeping. Each instance is touched
/// only by its shard during the run; the alignment keeps concurrently-updated
/// counters off shared cache lines.
struct alignas(64) ShardCtx {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t fp = kFnvOffset;
};

// --------------------------------------------------- key-range sharding diff

/// Options for one key-range-sharded scenario (run_key_range_schedule).
struct KeyRangeOpts {
  unsigned threads = 1;
  std::uint32_t shards = 4;  ///< key-range shards inside the one DC
  std::uint32_t mailbox_capacity = sim::Simulation::kDefaultMailboxCapacity;
  bool anti_entropy = false; ///< fenced per-shard sweeps
  bool faults = false;       ///< fenced kill/revive and a degradation window
  bool resilience = false;   ///< hedging / retries / admission knobs on
  bool quiet_shard = false;  ///< the last shard owns no traffic at all
};

/// One scenario with the one DC split into `shards` key-range shards.
/// Traffic is routed the way the workload layer does it: every operation is
/// issued from home_shard(key), so replicas of a key routinely live on
/// *other* shards and the write fan-out crosses shards. The lookahead is the
/// intra-DC floor, so windows are short and the fan-out legs ride the
/// mailbox constantly. The fingerprint covers everything the run can observe
/// — the per-shard client result streams, the full oracle diff against the
/// reference model (the per-shard logs are merged by (time, seq) at window
/// barriers, i.e. in exact serial call order), hint/repair/net counters —
/// but NOT mailbox spills, which legitimately differ between the serial
/// executor (no mailboxes) and the windowed one. threads == 1 is the
/// merged-serial reference; every other thread count must reproduce its
/// fingerprint bit for bit.
ClusterRunResult run_key_range_schedule(std::uint64_t seed,
                                        const KeyRangeOpts& opts) {
  Rng setup(seed);
  sim::Simulation sim(seed);

  cluster::ClusterConfig cfg;
  cfg.dc_count = 1;
  cfg.node_count = 2 * opts.shards;  // two coordinator candidates per shard,
  cfg.rf = 3;                        // kills included
  // Intra-DC hops cross shards, so the conservative lookahead is the
  // intra-DC floor — the floors must cover it (the cluster ctor enforces
  // this).
  const SimDuration lookahead = usec(150);
  cfg.latency.same_rack.floor = lookahead;
  cfg.latency.same_dc.floor = lookahead;
  if (setup.chance(0.3)) cfg.request_timeout = 30 * kMillisecond;
  if (opts.anti_entropy) cfg.anti_entropy_period = 50 * kMillisecond;
  if (opts.resilience) {
    cluster::ResilienceConfig& rc = cfg.resilience;
    rc.hedge_reads = setup.chance(0.8);
    rc.hedge_quantile = 0.5 + setup.uniform() * 0.45;
    rc.hedge_fallback_delay = msec(1 + setup.uniform_u64(5));
    rc.read_retries = static_cast<int>(setup.uniform_u64(3));
    rc.retry_backoff = msec(1 + setup.uniform_u64(4));
    if (setup.chance(0.5)) {
      // One bucket per shard, each with 1/S of the rate and burst.
      rc.admission_rate = 500 + static_cast<double>(setup.uniform_u64(4000));
      rc.admission_burst = 20 + static_cast<double>(setup.uniform_u64(100));
      rc.admission_mode = setup.chance(0.5) ? cluster::AdmissionMode::kShed
                                            : cluster::AdmissionMode::kDelay;
    }
  }

  sim.configure_shards(opts.shards, lookahead, opts.threads,
                       opts.mailbox_capacity);
  cluster::Cluster c(sim, cfg);

  DiffSink sink;
  c.oracle().set_trace_sink(&sink);

  const std::uint64_t key_count = 60 + setup.uniform_u64(120);
  c.preload_range(key_count / 2, 256);

  // The quiet shard owns nodes but must never run an event: traffic skips
  // the keys it owns and the keys with a replica on its nodes.
  const std::uint32_t quiet = opts.shards - 1;
  auto on_quiet_shard = [&](net::NodeId n) { return n % opts.shards == quiet; };
  std::vector<cluster::Key> keys;
  for (cluster::Key k = 0; k < key_count; ++k) {
    if (opts.quiet_shard &&
        (c.home_shard(k) == quiet ||
         std::ranges::any_of(c.replicas_for(k), on_quiet_shard))) {
      continue;
    }
    keys.push_back(k);
  }
  EXPECT_FALSE(keys.empty()) << "seed " << seed;

  const SimTime horizon = kSecond;
  if (opts.faults) {
    // Kill/revive one node per key-range shard (each shard keeps a second
    // coordinator candidate alive); the fault instants are fences, so the
    // windowed executor splits mid-lookahead around them.
    for (std::uint32_t s = 0; s < opts.shards; ++s) {
      if (opts.quiet_shard && s == quiet) continue;
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
    // A degradation window: factors stay >= 1 so no link ever undercuts the
    // lookahead floor.
    const auto slow =
        static_cast<net::NodeId>(setup.uniform_u64(cfg.node_count));
    const auto deg_at = static_cast<SimTime>(1 + setup.uniform_u64(horizon));
    c.schedule_fault({deg_at, cluster::FaultOp::kDegradeNode, slow, 0,
                      2.0 + static_cast<double>(setup.uniform_u64(8))});
    c.schedule_fault({deg_at + 300 * kMillisecond,
                      cluster::FaultOp::kRestoreNode, slow, 0, 1.0});
  }

  // One traffic context per shard, touched only by that shard's events.
  std::vector<ShardCtx> ctx(sim.shard_count());
  Rng traffic(mix(kFnvOffset, seed * 16 + opts.shards));
  const int ops = 400 + static_cast<int>(traffic.uniform_u64(400));
  for (int i = 0; i < ops; ++i) {
    const SimTime at = static_cast<SimTime>(traffic.uniform_u64(horizon));
    const cluster::Key key = keys[traffic.uniform_u64(keys.size())];
    const int k = 1 + static_cast<int>(traffic.uniform_u64(
                          static_cast<std::uint64_t>(cfg.rf)));
    cluster::ReplicaRequirement req = cluster::resolve_count(k, cfg.rf);
    if (traffic.uniform() < 0.2) {
      req = cluster::resolve(cluster::Level::kLocalQuorum, cfg.rf,
                             cfg.local_rf(0));
    }
    const bool is_write = traffic.chance(0.4);
    const bool storm = traffic.chance(0.02);
    // The workload-layer routing rule: the op lives on its key's home shard.
    // Its callback and counters stay there too.
    const std::uint32_t shard = c.home_shard(key);
    sim.set_setup_shard(shard);
    ShardCtx& cx = ctx[shard];
    ++cx.issued;
    const int rf = cfg.rf;
    sim.schedule_at(at, [&c, &cx, key, req, is_write, storm, rf] {
      if (is_write) {
        c.client_write(0, key, 512, req,
                       [&cx](const cluster::WriteResult& w) {
                         ++cx.completed;
                         cx.fp = mix(cx.fp, w.ok ? 2u : 3u);
                         cx.fp = mix(cx.fp, static_cast<std::uint64_t>(
                                                w.version.timestamp));
                       });
        if (storm) {
          // Same-key CL=ONE burst: every leg fans out to replicas on other
          // shards within one short intra-DC window.
          for (int s = 0; s < 15; ++s) {
            ++cx.issued;
            c.client_write(0, key, 128, cluster::resolve_count(1, rf),
                           [&cx](const cluster::WriteResult& w) {
                             ++cx.completed;
                             cx.fp = mix(cx.fp, w.ok ? 2u : 3u);
                           });
          }
        }
      } else {
        c.client_read(0, key, req, [&cx](const cluster::ReadResult& r) {
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
  if (opts.quiet_shard) {
    EXPECT_EQ(ctx[quiet].issued, 0u) << "seed " << seed;
    for (net::NodeId n = quiet; n < cfg.node_count; n += opts.shards) {
      EXPECT_EQ(c.node(n).requests_served(), 0u)
          << "seed " << seed << ": quiet-shard node " << n << " served";
    }
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
/// Returns the serial result for scenario-specific follow-up assertions.
ClusterRunResult assert_key_range_thread_invariance(std::uint64_t seed,
                                                    KeyRangeOpts opts) {
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
  return serial;
}

TEST(RequestPathDiff, KeyRangeShardedByteIdenticalAcrossThreadCounts) {
  // A single DC split into 3 or 4 key-range shards; 1, 2, 4, and 8 worker
  // threads must all reproduce the merged-serial reference.
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

TEST(RequestPathDiff, KeyRangeShardedResilienceByteIdentical) {
  // Hedges racing cross-shard responses, retries, and admission control with
  // one bucket per shard (1/S of the rate each), with and without the fenced
  // fault script — the CI extra seeds explore fresh schedules here.
  std::uint64_t schedules = 0;
  auto run_block = [&](std::uint64_t base, std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      KeyRangeOpts opts;
      opts.resilience = true;
      opts.faults = (i % 2) == 1;
      opts.shards = (i % 3) == 2 ? 3 : 4;
      assert_key_range_thread_invariance(base + i, opts);
      ASSERT_FALSE(::testing::Test::HasFailure())
          << "key-range resilience diff diverged at seed " << base + i;
      ++schedules;
    }
  };
  run_block(0x5AA4DED0ULL, 6);
  for (const auto seed : extra_seeds()) run_block(seed, 2);
  std::printf("[diff] key-range resilience schedules: %llu\n",
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

TEST(RequestPathDiff, KeyRangeShardedTinyMailboxBackpressureIsDeterministic) {
  // mailbox_capacity == 1: nearly every cross-shard fan-out leg overflows
  // into the spill vector. Backpressure must be an observability event, not
  // a behavior change — parallel fingerprints still match the serial
  // reference (which never touches a mailbox and so never spills).
  for (std::uint64_t i = 0; i < 3; ++i) {
    const std::uint64_t seed = 0x3B0E5ULL + i;
    KeyRangeOpts opts;
    opts.mailbox_capacity = 1;
    KeyRangeOpts probe = opts;
    probe.threads = 4;
    const ClusterRunResult par = run_key_range_schedule(seed, probe);
    EXPECT_GT(par.spills, 0u)
        << "seed " << seed
        << ": capacity-1 mailboxes were expected to overflow";
    const ClusterRunResult serial =
        assert_key_range_thread_invariance(seed, opts);
    ASSERT_FALSE(::testing::Test::HasFailure())
        << "tiny-mailbox diff diverged at seed " << seed;
    EXPECT_EQ(serial.spills, 0u) << "serial mode must not touch mailboxes";
  }
}

TEST(RequestPathDiff, KeyRangeShardedIdleShardStaysIdleAndDeterministic) {
  // The last shard owns nodes but no traffic, and no touched key has a
  // replica there, so it processes zero events all run. The window loop
  // must neither stall on the idle shard nor let it perturb the merged
  // order.
  for (std::uint64_t i = 0; i < 3; ++i) {
    KeyRangeOpts opts;
    opts.quiet_shard = true;
    opts.faults = (i % 2) == 1;
    assert_key_range_thread_invariance(0xE3057ULL + i, opts);
    ASSERT_FALSE(::testing::Test::HasFailure())
        << "idle-shard diff diverged at seed " << 0xE3057ULL + i;
  }
}

}  // namespace
}  // namespace harmony::testing
