#include "common/rng.h"

#include <bit>
#include <cmath>

#include "common/check.h"

namespace harmony {

std::uint64_t Rng::uniform_u64(std::uint64_t n) {
  HARMONY_CHECK(n > 0);
  // Lemire's nearly-divisionless bounded sampling.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
  auto l = static_cast<std::uint64_t>(m);
  if (l < n) {
    const std::uint64_t t = -n % n;
    while (l < t) {
      x = next();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::exponential(double mean) {
  if (mean <= 0) return 0.0;
  double u = uniform();
  // uniform() can return exactly 0; nudge to avoid log(0).
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

namespace {

/// Box-Muller, one variate from two uniforms (u1 in (0, 1)).
double box_muller(double u1, double u2) {
  const double r = std::sqrt(-2.0 * std::log(u1));
  return r * std::cos(2.0 * M_PI * u2);
}

// ------------------------------------------------ exact fast lognormal draw
//
// lognormal_median() must return int64(median * exp(sigma * box_muller(u1,
// u2))) — the libm formula — for every draw. It computes the same value v
// without libm: a 128-entry table plus a short Taylor polynomial for each of
// -log(u1), cos(2*pi*u2) and exp, and the hardware sqrt. The error budget
// (bench/README.md, "Exact latency draws") bounds the fast v's gap to libm's
// by 5.2e-13 relative at |sigma| = 16 and 1.7e-14 at the latency tiers'
// sigma <= 0.5. So when no integer lies within kBand * v of the fast v, both
// truncate to the same integer; otherwise — and wherever the budget does not
// hold (u1 > kMaxU1, |sigma| > kMaxSigma, v non-finite or >= 2^52) — the
// draw returns the libm formula itself.

constexpr int kTableBits = 7;
constexpr int kTableSize = 1 << kTableBits;
constexpr double kBand = 0x1.0p-24;
/// -log(u1) below loses relative accuracy as u1 -> 1 (it cancels e*ln2
/// against the table's log), so the budget stops at 0.999.
constexpr double kMaxU1 = 0.999;
/// Keeps |sigma * z| <= 16 * 8.6 (|z| <= sqrt(-2 log 2^-53)), where the exp
/// scale stays a normal double and the budget holds.
constexpr double kMaxSigma = 16.0;
constexpr double kLn2 = 0x1.62e42fefa39efp-1;
/// ln2 split for exp's argument reduction: k * kLn2Hi is exact for the
/// |k| <= 2^15 that |x| <= 138 gives.
constexpr double kLn2Hi = 0x1.62e42fefa0000p-1;
constexpr double kLn2Lo = kLn2 - kLn2Hi;
/// Adding 1.5 * 2^52 rounds a double of magnitude < 2^51 to an integer,
/// which then sits in the sum's low mantissa bits.
constexpr double kRoundShift = 0x1.8p52;

struct DrawTables {
  struct LogEntry {
    double inv_c;  ///< 1 / c, c the centre of mantissa interval i
    double log_c;  ///< -log(inv_c)
  };
  struct TurnEntry {
    double cos, sin;  ///< of 2*pi*j/128
  };
  LogEntry log[kTableSize];
  double exp2[kTableSize];  ///< 2^(j/128)
  TurnEntry turn[kTableSize];
};

/// Built once, on first use (no static-initialization order to depend on).
/// The entries come from libm, but a last-bit difference in one of them only
/// moves the fast v by ~1e-16, far inside the band.
const DrawTables& draw_tables() {
  static const DrawTables tables = [] {
    DrawTables t{};
    for (int i = 0; i < kTableSize; ++i) {
      t.log[i].inv_c = 1.0 / (1.0 + (i + 0.5) / kTableSize);
      t.log[i].log_c = -std::log(t.log[i].inv_c);
      t.exp2[i] = std::exp2(static_cast<double>(i) / kTableSize);
      const double a = 2.0 * M_PI * i / kTableSize;
      t.turn[i] = {std::cos(a), std::sin(a)};
    }
    return t;
  }();
  return tables;
}

/// -log(u) for u in [2^-53, kMaxU1]: u = 2^e * m with m in [1, 2), and
/// log m = log c + log1p(m / c - 1) for the c of m's top 7 mantissa bits,
/// so the log1p argument stays within +-2^-8.
double neg_log(double u, const DrawTables& t) {
  const auto bits = std::bit_cast<std::uint64_t>(u);
  const int e = static_cast<int>(bits >> 52) - 1023;
  const auto& entry = t.log[(bits >> (52 - kTableBits)) & (kTableSize - 1)];
  const double m = std::bit_cast<double>((bits & 0x000FFFFFFFFFFFFFULL) |
                                         0x3FF0000000000000ULL);
  const double x = m * entry.inv_c - 1.0;
  const double x2 = x * x;
  const double log1p =
      x - x2 * ((0.5 - x * (1.0 / 3)) +
                x2 * ((0.25 - x * 0.2) + x2 * (1.0 / 6)));
  return -(static_cast<double>(e) * kLn2 + entry.log_c + log1p);
}

/// cos(2*pi*u) for u in [0, 1): the nearest table angle 2*pi*j/128 plus a
/// remainder |theta| <= pi/128, by the angle-sum identity.
double cos_turns(double u, const DrawTables& t) {
  const double y = u * kTableSize;  // exact
  const double j = (y + kRoundShift) - kRoundShift;
  const double theta = (y - j) * (2.0 * M_PI / kTableSize);
  const double t2 = theta * theta;
  const double cos_m1 = -t2 * (0.5 - t2 * (1.0 / 24 - t2 * (1.0 / 720)));
  const double sin =
      theta - theta * t2 * (1.0 / 6 - t2 * (1.0 / 120 - t2 * (1.0 / 5040)));
  const auto& entry =
      t.turn[static_cast<unsigned>(static_cast<int>(j)) & (kTableSize - 1)];
  return entry.cos + (entry.cos * cos_m1 - entry.sin * sin);
}

/// exp(x) for |x| <= 138: x = k * ln2 / 128 + r with |r| <= ln2 / 256, and
/// exp(x) = 2^(k / 128) * exp(r), the power from the table and an exponent
/// add.
double fast_exp(double x, const DrawTables& t) {
  const double shifted = x * (kTableSize / kLn2) + kRoundShift;
  // Same exponent as kRoundShift, so the bit patterns differ by exactly k.
  const auto k =
      static_cast<std::int64_t>(std::bit_cast<std::uint64_t>(shifted) -
                                std::bit_cast<std::uint64_t>(kRoundShift));
  const double kd = shifted - kRoundShift;
  const double r =
      (x - kd * (kLn2Hi / kTableSize)) - kd * (kLn2Lo / kTableSize);
  const double r2 = r * r;
  const double exp_r = (1.0 + r) + r2 * ((0.5 + r * (1.0 / 6)) +
                                         r2 * (1.0 / 24 + r * (1.0 / 120)));
  const auto scale = static_cast<std::uint64_t>(k >> kTableBits) << 52;
  return std::bit_cast<double>(
             std::bit_cast<std::uint64_t>(t.exp2[k & (kTableSize - 1)]) +
             scale) *
         exp_r;
}

}  // namespace

double Rng::normal() {
  double u1 = uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  return box_muller(u1, uniform());
}

std::int64_t Rng::lognormal_median(double median, double sigma) {
  HARMONY_CHECK(median > 0);
  double u1 = uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform();
  if (u1 <= kMaxU1 && std::fabs(sigma) <= kMaxSigma) {
    const DrawTables& t = draw_tables();
    const double z = std::sqrt(2.0 * neg_log(u1, t)) * cos_turns(u2, t);
    const double v = median * fast_exp(sigma * z, t);
    if (v < 0x1.0p52) {  // also false for NaN
      const auto whole = static_cast<std::int64_t>(v);
      const double frac = v - static_cast<double>(whole);  // exact
      const double band = v * kBand;
      if (frac > band && 1.0 - frac > band) return whole;
    }
  }
  return static_cast<std::int64_t>(median *
                                   std::exp(sigma * box_muller(u1, u2)));
}

std::size_t Rng::weighted_index(const double* weights, std::size_t n) {
  HARMONY_CHECK(n > 0);
  double total = 0;
  for (std::size_t i = 0; i < n; ++i) total += weights[i];
  HARMONY_CHECK_MSG(total > 0, "weighted_index requires a positive weight sum");
  double x = uniform() * total;
  for (std::size_t i = 0; i < n; ++i) {
    x -= weights[i];
    if (x < 0) return i;
  }
  return n - 1;  // floating-point slack lands on the last bucket
}

}  // namespace harmony
