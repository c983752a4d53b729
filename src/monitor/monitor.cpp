#include "monitor/monitor.h"

#include <algorithm>

#include "common/check.h"
#include "common/distributions.h"

namespace harmony::monitor {

Monitor::Monitor(MonitorConfig cfg)
    : cfg_(cfg),
      read_rate_(cfg.rate_window),
      write_rate_(cfg.rate_window),
      rtt_local_(cfg.ewma_half_life) {
  local_samples_.reserve(cfg_.rtt_reservoir);
  remote_samples_.reserve(cfg_.rtt_reservoir);
}

void Monitor::attach(cluster::Cluster& c, net::DcId client_home_dc) {
  c.set_observer(this);
  rf_ = c.config().rf;
  local_rf_ = c.config().local_rf(client_home_dc);
  prop_delay_.assign(static_cast<std::size_t>(rf_), Ewma(cfg_.ewma_half_life));
}

void Monitor::record_read_issued(SimTime now, std::uint64_t key) {
  read_rate_.record(now);
  ++win_reads_;
  if (key_buckets_.empty()) key_buckets_.assign(kEntropyBuckets, 0);
  ++key_buckets_[mix64(key) % kEntropyBuckets];
  if (win_last_arrival_ >= 0 && now > win_last_arrival_) {
    win_gaps_.add(static_cast<double>(now - win_last_arrival_));
  }
  win_last_arrival_ = std::max(win_last_arrival_, now);
}

void Monitor::record_write_issued(SimTime now, std::uint64_t key,
                                  std::uint32_t value_size) {
  write_rate_.record(now);
  ++win_writes_;
  win_value_bytes_ += value_size;
  if (key_buckets_.empty()) key_buckets_.assign(kEntropyBuckets, 0);
  ++key_buckets_[mix64(key) % kEntropyBuckets];
  if (win_last_arrival_ >= 0 && now > win_last_arrival_) {
    win_gaps_.add(static_cast<double>(now - win_last_arrival_));
  }
  win_last_arrival_ = std::max(win_last_arrival_, now);
}

void Monitor::record_read_complete(SimTime now, SimDuration /*latency*/) {
  last_event_ = std::max(last_event_, now);
}

void Monitor::record_write_complete(SimTime now, SimDuration /*latency*/) {
  last_event_ = std::max(last_event_, now);
}

void Monitor::on_write_propagated(cluster::Key /*key*/, SimTime write_start,
                                  const cluster::DelayList& replica_delays) {
  if (replica_delays.empty()) return;
  cluster::DelayList sorted = replica_delays;
  std::sort(sorted.begin(), sorted.end());
  const SimTime now = write_start + sorted.back();
  // Writes that lost a replica mid-flight report fewer delays; align those
  // samples to the lowest order statistics (the ones they actually measure).
  for (std::size_t i = 0; i < sorted.size() && i < prop_delay_.size(); ++i) {
    prop_delay_[i].observe(now, static_cast<double>(sorted[i]));
  }
  last_event_ = std::max(last_event_, now);
}

void Monitor::on_replica_read_rtt(net::NodeId /*replica*/, SimDuration rtt,
                                  bool cross_dc) {
  if (!cross_dc) rtt_local_.observe(last_event_, static_cast<double>(rtt));
  // Reservoir sampling (algorithm R) so the bootstrap sees the distribution,
  // not just the mean.
  auto& samples = cross_dc ? remote_samples_ : local_samples_;
  auto& seen = cross_dc ? remote_seen_ : local_seen_;
  ++seen;
  if (samples.size() < cfg_.rtt_reservoir) {
    samples.push_back(static_cast<double>(rtt));
  } else {
    const std::uint64_t j = reservoir_rng_.uniform_u64(seen);
    if (j < samples.size()) samples[j] = static_cast<double>(rtt);
  }
}

SystemState Monitor::snapshot(SimTime now) {
  SystemState s;
  s.now = now;
  s.read_rate = read_rate_.rate(now);
  s.write_rate = write_rate_.rate(now);
  s.prop_delays_us.reserve(prop_delay_.size());
  for (const auto& e : prop_delay_) {
    if (!e.empty()) s.prop_delays_us.push_back(e.value());
  }
  // Ewma per order statistic can cross under bursty sampling; the model
  // needs a sorted profile.
  std::sort(s.prop_delays_us.begin(), s.prop_delays_us.end());
  s.replica_rtt_local_us = rtt_local_.empty() ? 0.0 : rtt_local_.value();

  // Per-level latency estimates for Bismar's relative-cost model.
  s.est_read_latency_by_k_us.resize(static_cast<std::size_t>(rf_));
  s.est_write_latency_by_k_us.resize(static_cast<std::size_t>(rf_));
  for (int k = 1; k <= rf_; ++k) {
    s.est_read_latency_by_k_us[k - 1] = estimate_read_latency_us(k, reservoir_rng_);
    // Write at k acks waits for the k-th propagation order statistic, plus
    // the same client/coordinator hop a read pays.
    const double hop = s.replica_rtt_local_us;
    double ack_wait;
    if (!s.prop_delays_us.empty()) {
      const auto idx = std::min<std::size_t>(static_cast<std::size_t>(k) - 1,
                                             s.prop_delays_us.size() - 1);
      ack_wait = s.prop_delays_us[idx];
    } else {
      ack_wait = s.est_read_latency_by_k_us[k - 1];
    }
    s.est_write_latency_by_k_us[k - 1] = ack_wait + hop;
  }

  // Behavior-model window features, then reset the window accumulators.
  const std::uint64_t win_ops = win_reads_ + win_writes_;
  s.write_share = win_ops ? static_cast<double>(win_writes_) /
                                static_cast<double>(win_ops)
                          : 0.0;
  s.key_entropy = key_buckets_.empty() ? 0.0 : shannon_entropy(key_buckets_);
  s.burstiness = win_gaps_.cv();
  s.mean_value_size =
      win_writes_ ? win_value_bytes_ / static_cast<double>(win_writes_) : 0.0;
  if (win_ops >= 2 && !key_buckets_.empty()) {
    // Unbiased pair-collision estimate: Σ c(c−1) / (n(n−1)).
    double pairs = 0;
    for (const auto c : key_buckets_) {
      pairs += static_cast<double>(c) * static_cast<double>(c - (c > 0));
    }
    const auto n = static_cast<double>(win_ops);
    s.key_collision = pairs / (n * (n - 1.0));
    last_collision_ = s.key_collision;
  } else {
    s.key_collision = last_collision_;
  }
  if (!key_buckets_.empty()) {
    std::fill(key_buckets_.begin(), key_buckets_.end(), 0);
  }
  win_reads_ = win_writes_ = 0;
  win_value_bytes_ = 0;
  win_gaps_.reset();

  return s;
}

double Monitor::estimate_read_latency_us(int k, Rng& rng) const {
  HARMONY_CHECK(k >= 1);
  // Closest-first contact order: the first local_rf_ contacts are local, the
  // rest cross-DC. Expected latency = E[max over contacted replicas' RTTs],
  // estimated by bootstrap from the reservoirs.
  const int local_contacts = std::min(k, local_rf_);
  const int remote_contacts = k - local_contacts;
  auto draw = [&rng](const std::vector<double>& samples, double fallback) {
    if (samples.empty()) return fallback;
    return samples[rng.uniform_u64(samples.size())];
  };
  const double local_fb = rtt_local_.empty() ? 500.0 : rtt_local_.value();
  // A remote contact has no samples only before any cross-DC RTT arrived.
  const double remote_fb = std::max(local_fb * 10.0, 2000.0);
  constexpr int kBootstrap = 48;
  double total = 0;
  for (int b = 0; b < kBootstrap; ++b) {
    double worst = 0;
    for (int i = 0; i < local_contacts; ++i) {
      worst = std::max(worst, draw(local_samples_, local_fb));
    }
    for (int i = 0; i < remote_contacts; ++i) {
      worst = std::max(worst, draw(remote_samples_, remote_fb));
    }
    total += worst;
  }
  return total / kBootstrap;
}

}  // namespace harmony::monitor
