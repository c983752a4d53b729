// Customized consistency via application behavior modeling (paper §III-C).
//
// Offline pipeline ("this is an offline process that consists of several
// steps"):
//   1. collect predefined metrics per time period from access traces
//      (ml::build_timeline),
//   2. identify application states with machine learning (k-means++, k chosen
//      by silhouette),
//   3. associate each state with a consistency policy through generic
//      predefined rules plus administrator-provided custom rules.
// Online: a nearest-centroid classifier identifies the current state each
// monitoring window and the associated policy takes over.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ml/classifier.h"
#include "ml/features.h"
#include "ml/kmeans.h"
#include "ml/silhouette.h"
#include "ml/timeline.h"
#include "workload/policy.h"
#include "workload/trace.h"

namespace harmony::core {

/// A state's access signature in engineering units (denormalized centroid).
struct StateProfile {
  double read_rate = 0;      ///< ops/s
  double write_rate = 0;     ///< ops/s
  double write_share = 0;    ///< writes / ops
  double key_entropy = 0;    ///< bits (low = concentrated/hot keys)
  double burstiness = 0;     ///< CV of inter-arrivals
  double mean_value_size = 0;

  static StateProfile from_features(const ml::FeatureVector& raw);
  std::string describe() const;
};

/// Rule mapping a state profile to a consistency policy. Rules are evaluated
/// in order; the first match wins ("a set of both generic predefined rules
/// and customized rules integrated by the application's administrator").
struct ConsistencyRule {
  std::string label;
  std::function<bool(const StateProfile&)> applies;
  policy::PolicyFactory make_policy;
};

/// The built-in rule set. In order: read-mostly -> static eventual;
/// contended hot writes -> Harmony with a tight tolerance; write-heavy ->
/// quorum; everything else -> Harmony with a moderate tolerance.
std::vector<ConsistencyRule> generic_rules();

/// Output of the offline modeling process; immutable once built.
class ApplicationModel {
 public:
  std::size_t state_count() const { return profiles_.size(); }
  const StateProfile& profile(std::size_t state) const;
  const std::string& rule_label(std::size_t state) const;
  const policy::PolicyFactory& policy_for(std::size_t state) const;
  double silhouette() const { return silhouette_; }

  /// Classify a raw (unnormalized) feature vector into a state.
  std::size_t classify(const ml::FeatureVector& raw_features) const;

  /// Fraction of training windows per state.
  const std::vector<double>& state_weights() const { return weights_; }

 private:
  friend class BehaviorModeler;
  ml::ZScoreNormalizer normalizer_;
  ml::NearestCentroidClassifier classifier_;
  std::vector<StateProfile> profiles_;
  std::vector<std::string> rule_labels_;
  std::vector<policy::PolicyFactory> policies_;
  std::vector<double> weights_;
  double silhouette_ = 0;
};

/// The modeler picks between 2 and 6 states by silhouette score, fitting
/// k-means with its default seed.
struct BehaviorModelOptions {
  ml::TimelineOptions timeline{};
};

class BehaviorModeler {
 public:
  explicit BehaviorModeler(BehaviorModelOptions options = {});

  /// Prepend a custom (administrator) rule; custom rules outrank generic.
  void add_rule(ConsistencyRule rule);

  /// Run the offline pipeline on a past-access trace.
  ApplicationModel fit(const workload::Trace& trace) const;

  static std::vector<ml::AccessRecord> to_records(const workload::Trace& trace);

 private:
  BehaviorModelOptions opt_;
  std::vector<ConsistencyRule> custom_rules_;
};

/// Runtime policy driving the per-state policies from live monitoring
/// snapshots. Wraps one instantiated sub-policy per state and forwards
/// requirements from the currently classified state's policy.
class BehaviorAdaptivePolicy final : public policy::ConsistencyPolicy {
 public:
  BehaviorAdaptivePolicy(std::shared_ptr<const ApplicationModel> model,
                         const policy::PolicyInit& init);

  cluster::ReplicaRequirement read_requirement() const override;
  cluster::ReplicaRequirement write_requirement() const override;
  void tick(const monitor::SystemState& state) override;
  std::string name() const override { return "behavior-model"; }
  std::uint64_t switches() const override { return state_switches_; }

  std::size_t current_state() const { return current_; }

 private:
  std::shared_ptr<const ApplicationModel> model_;
  std::vector<std::unique_ptr<policy::ConsistencyPolicy>> sub_policies_;
  std::size_t current_ = 0;
  std::uint64_t state_switches_ = 0;
};

policy::PolicyFactory behavior_policy(
    std::shared_ptr<const ApplicationModel> model);

}  // namespace harmony::core
