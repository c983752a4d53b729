#include "core/behavior.h"

#include <algorithm>
#include <cstdio>

#include "common/check.h"
#include "core/harmony.h"
#include "core/static_policy.h"

namespace harmony::core {

namespace {
/// The silhouette search over application-state counts.
constexpr int kMinStates = 2;
constexpr int kMaxStates = 6;
}  // namespace

// ------------------------------------------------------------ StateProfile

StateProfile StateProfile::from_features(const ml::FeatureVector& raw) {
  HARMONY_CHECK(raw.size() == ml::kTimelineFeatureCount);
  StateProfile p;
  p.read_rate = raw[0];
  p.write_rate = raw[1];
  p.write_share = raw[2];
  p.key_entropy = raw[3];
  p.burstiness = raw[4];
  p.mean_value_size = raw[5];
  return p;
}

std::string StateProfile::describe() const {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "r=%.0f/s w=%.0f/s wshare=%.2f entropy=%.2fb cv=%.2f sz=%.0fB",
                read_rate, write_rate, write_share, key_entropy, burstiness,
                mean_value_size);
  return buf;
}

// ------------------------------------------------------------ rules

std::vector<ConsistencyRule> generic_rules() {
  std::vector<ConsistencyRule> rules;

  // Read-mostly states tolerate eventual consistency: stale data is rare
  // because writes are rare (the social-network archetype from §III-C).
  rules.push_back({"read-mostly->eventual",
                   [](const StateProfile& s) { return s.write_share < 0.02; },
                   static_counts(1, 1)});

  // Hot contended writes (low key entropy = traffic concentrated on few
  // keys) are where stale reads do damage: Harmony with a tight tolerance
  // (the webshop flash-sale archetype).
  rules.push_back({"hot-writes->harmony(5%)",
                   [](const StateProfile& s) {
                     return s.write_share >= 0.15 && s.key_entropy < 6.5;
                   },
                   harmony_policy(0.05)});

  // Very write-heavy states: pay for quorum so read repair keeps up.
  rules.push_back({"write-heavy->quorum",
                   [](const StateProfile& s) { return s.write_share > 0.45; },
                   static_level(cluster::Level::kQuorum)});

  // Geographical policy (the paper lists these alongside Harmony and the
  // static levels): busy but read-leaning states serve from the local DC's
  // quorum — fresh within the region without paying WAN latency.
  rules.push_back({"geo-busy->local-quorum",
                   [](const StateProfile& s) {
                     return s.write_share < 0.10 &&
                            s.read_rate + s.write_rate > 1500;
                   },
                   static_level(cluster::Level::kLocalQuorum,
                                cluster::Level::kLocalQuorum)});

  // Everything else: Harmony with a moderate tolerance.
  rules.push_back({"default->harmony(20%)",
                   [](const StateProfile&) { return true; },
                   harmony_policy(0.20)});
  return rules;
}

// ------------------------------------------------------------ ApplicationModel

const StateProfile& ApplicationModel::profile(std::size_t state) const {
  HARMONY_CHECK(state < profiles_.size());
  return profiles_[state];
}

const std::string& ApplicationModel::rule_label(std::size_t state) const {
  HARMONY_CHECK(state < rule_labels_.size());
  return rule_labels_[state];
}

const policy::PolicyFactory& ApplicationModel::policy_for(
    std::size_t state) const {
  HARMONY_CHECK(state < policies_.size());
  return policies_[state];
}

std::size_t ApplicationModel::classify(
    const ml::FeatureVector& raw_features) const {
  return static_cast<std::size_t>(
      classifier_.predict(normalizer_.transform(raw_features)));
}

// ------------------------------------------------------------ BehaviorModeler

BehaviorModeler::BehaviorModeler(BehaviorModelOptions options)
    : opt_(std::move(options)) {}

void BehaviorModeler::add_rule(ConsistencyRule rule) {
  custom_rules_.push_back(std::move(rule));
}

std::vector<ml::AccessRecord> BehaviorModeler::to_records(
    const workload::Trace& trace) {
  std::vector<ml::AccessRecord> records;
  records.reserve(trace.records.size());
  for (const auto& r : trace.records) {
    ml::AccessRecord a;
    a.time = r.time;
    a.is_write = r.op != workload::OpType::kRead;
    a.key = r.key;
    a.value_size = r.value_size;
    records.push_back(a);
  }
  return records;
}

ApplicationModel BehaviorModeler::fit(const workload::Trace& trace) const {
  const auto records = to_records(trace);
  const ml::Timeline timeline = ml::build_timeline(records, opt_.timeline);
  HARMONY_CHECK_MSG(timeline.windows.size() >= 4,
                    "trace too short to model (need >= 4 usable windows)");

  const ml::FeatureMatrix raw = timeline.matrix();
  ApplicationModel model;
  model.normalizer_.fit(raw);
  const ml::FeatureMatrix normalized = model.normalizer_.transform(raw);

  const int k_max = std::min<int>(
      kMaxStates, static_cast<int>(timeline.windows.size()) - 1);
  const ml::KSelection selection =
      ml::select_k(normalized, kMinStates, std::max(kMinStates, k_max),
                   ml::KMeansOptions{});
  model.silhouette_ = selection.best_score;
  model.classifier_ =
      ml::NearestCentroidClassifier(selection.best_result.centroids);

  // Denormalized (raw-unit) centroids: mean of member windows per cluster.
  const int k = selection.best_k;
  ml::FeatureMatrix raw_centroids(
      static_cast<std::size_t>(k),
      ml::FeatureVector(ml::kTimelineFeatureCount, 0.0));
  std::vector<std::size_t> counts(static_cast<std::size_t>(k), 0);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const auto c = static_cast<std::size_t>(selection.best_result.labels[i]);
    ++counts[c];
    for (std::size_t d = 0; d < ml::kTimelineFeatureCount; ++d) {
      raw_centroids[c][d] += raw[i][d];
    }
  }
  model.weights_.assign(static_cast<std::size_t>(k), 0.0);
  for (std::size_t c = 0; c < raw_centroids.size(); ++c) {
    if (counts[c] > 0) {
      for (auto& v : raw_centroids[c]) v /= static_cast<double>(counts[c]);
    }
    model.weights_[c] =
        static_cast<double>(counts[c]) / static_cast<double>(raw.size());
  }

  // Attach a policy to every state: custom rules first, then generic.
  std::vector<ConsistencyRule> rules = custom_rules_;
  for (auto& r : generic_rules()) rules.push_back(std::move(r));
  for (std::size_t c = 0; c < raw_centroids.size(); ++c) {
    const StateProfile profile = StateProfile::from_features(raw_centroids[c]);
    model.profiles_.push_back(profile);
    bool matched = false;
    for (const auto& rule : rules) {
      if (rule.applies(profile)) {
        model.rule_labels_.push_back(rule.label);
        model.policies_.push_back(rule.make_policy);
        matched = true;
        break;
      }
    }
    HARMONY_CHECK_MSG(matched, "no rule matched a state (generic set has a "
                               "catch-all; custom sets must too)");
  }
  return model;
}

// ------------------------------------------------------------ runtime policy

BehaviorAdaptivePolicy::BehaviorAdaptivePolicy(
    std::shared_ptr<const ApplicationModel> model,
    const policy::PolicyInit& init)
    : model_(std::move(model)) {
  HARMONY_CHECK(model_ != nullptr);
  HARMONY_CHECK(model_->state_count() > 0);
  sub_policies_.reserve(model_->state_count());
  for (std::size_t s = 0; s < model_->state_count(); ++s) {
    sub_policies_.push_back(model_->policy_for(s)(init));
  }
}

cluster::ReplicaRequirement BehaviorAdaptivePolicy::read_requirement() const {
  return sub_policies_[current_]->read_requirement();
}

cluster::ReplicaRequirement BehaviorAdaptivePolicy::write_requirement() const {
  return sub_policies_[current_]->write_requirement();
}

void BehaviorAdaptivePolicy::tick(const monitor::SystemState& state) {
  ml::FeatureVector live(ml::kTimelineFeatureCount);
  live[0] = state.read_rate;
  live[1] = state.write_rate;
  live[2] = state.write_share;
  live[3] = state.key_entropy;
  live[4] = state.burstiness;
  live[5] = state.mean_value_size;
  const std::size_t s = model_->classify(live);
  if (s != current_) {
    current_ = s;
    ++state_switches_;
  }
  sub_policies_[current_]->tick(state);
}

policy::PolicyFactory behavior_policy(
    std::shared_ptr<const ApplicationModel> model) {
  return [model](const policy::PolicyInit& init) {
    return std::make_unique<BehaviorAdaptivePolicy>(model, init);
  };
}

}  // namespace harmony::core
