#include "src/power/utilization.h"

#include <algorithm>

#include "src/util/check.h"

namespace odpower {

UtilizationProbe::UtilizationProbe(Machine* machine, odsim::SimTime now)
    : machine_(machine), last_time_(now), window_start_(now) {
  OD_CHECK(machine != nullptr);
  int components = machine->component_count();
  baseline_state_.reserve(static_cast<size_t>(components));
  snapshot_state_.reserve(static_cast<size_t>(components));
  component_offset_.reserve(static_cast<size_t>(components));
  for (int c = 0; c < components; ++c) {
    const Component& component = machine->component(c);
    baseline_state_.push_back(component.state());
    snapshot_state_.push_back(component.state());
    component_offset_.push_back(static_cast<int>(feature_index_.size()));
    for (int s = 0; s < component.state_count(); ++s) {
      if (s == component.state()) {
        feature_index_.push_back(-1);  // Baseline: folded into the intercept.
      } else {
        feature_index_.push_back(static_cast<int>(features_.size()));
        features_.push_back(Feature{c, s});
      }
    }
  }
  window_seconds_.assign(features_.size(), 0.0);
  total_seconds_.assign(features_.size(), 0.0);
  machine->AddObserver(this);
}

void UtilizationProbe::Accrue(odsim::SimTime now) {
  double dt = (now - last_time_).seconds();
  if (dt > 0.0) {
    for (size_t c = 0; c < snapshot_state_.size(); ++c) {
      int slot = feature_index_[static_cast<size_t>(
          component_offset_[c] + snapshot_state_[c])];
      if (slot >= 0) {
        window_seconds_[static_cast<size_t>(slot)] += dt;
        total_seconds_[static_cast<size_t>(slot)] += dt;
      }
    }
    total_observed_seconds_ += dt;
    last_time_ = now;
  }
  // Re-snapshot after accrual: the notification fires after the state
  // change, so the elapsed interval ran at the old states.
  for (size_t c = 0; c < snapshot_state_.size(); ++c) {
    snapshot_state_[c] = machine_->component(static_cast<int>(c)).state();
  }
}

void UtilizationProbe::OnMachinePowerChanged(odsim::SimTime now) {
  OD_CHECK(machine_->component_count() ==
           static_cast<int>(snapshot_state_.size()));
  Accrue(now);
}

double UtilizationProbe::DrainWindow(odsim::SimTime now,
                                     std::span<double> phi) {
  OD_CHECK(static_cast<int>(phi.size()) == dim());
  Accrue(now);
  double window = (now - window_start_).seconds();
  phi[0] = 1.0;
  for (size_t i = 0; i < window_seconds_.size(); ++i) {
    phi[i + 1] = window > 0.0 ? window_seconds_[i] / window : 0.0;
  }
  window_start_ = now;
  std::fill(window_seconds_.begin(), window_seconds_.end(), 0.0);
  return window;
}

void UtilizationProbe::SnapshotFeatures(std::span<double> phi) const {
  OD_CHECK(static_cast<int>(phi.size()) == dim());
  std::fill(phi.begin(), phi.end(), 0.0);
  phi[0] = 1.0;
  for (size_t c = 0; c < baseline_state_.size(); ++c) {
    int slot = feature_index_[static_cast<size_t>(
        component_offset_[c] + machine_->component(static_cast<int>(c)).state())];
    if (slot >= 0) {
      phi[static_cast<size_t>(slot) + 1] = 1.0;
    }
  }
}

std::string UtilizationProbe::FeatureName(int index) const {
  OD_CHECK(index >= 0 && index < dim());
  if (index == 0) {
    return "bias";
  }
  const Feature& feature = features_[static_cast<size_t>(index - 1)];
  return machine_->component(feature.component).name() + "[" +
         std::to_string(feature.state) + "]";
}

double UtilizationProbe::FeatureSeconds(int index) const {
  OD_CHECK(index >= 0 && index < dim());
  if (index == 0) {
    return total_observed_seconds_;
  }
  return total_seconds_[static_cast<size_t>(index - 1)];
}

double UtilizationProbe::TrueInterceptWatts(void) const {
  double watts = 0.0;
  for (size_t c = 0; c < baseline_state_.size(); ++c) {
    watts += machine_->component(static_cast<int>(c))
                 .state_power(baseline_state_[c]);
  }
  return watts;
}

double UtilizationProbe::TrueIncrementWatts(int index) const {
  OD_CHECK(index >= 0 && index < dim());
  if (index == 0) {
    return TrueInterceptWatts();
  }
  const Feature& feature = features_[static_cast<size_t>(index - 1)];
  const Component& component = machine_->component(feature.component);
  return component.state_power(feature.state) -
         component.state_power(baseline_state_[static_cast<size_t>(
             feature.component)]);
}

}  // namespace odpower
