// Per-component utilization features for the self-constructive power model.
//
// Sesame-style online model construction regresses the battery interface
// against *component activity*, not against any calibrated power table.  The
// UtilizationProbe supplies the activity side: it observes a Machine and
// integrates, per component, the time spent in each discrete state (CPU
// busy/halt slices, WaveLAN transmit/receive/idle/standby, disk and display
// modes).  A window drain converts the residency into the regression
// feature vector
//
//   phi = [ 1, occ(c0,s1), occ(c0,s2), ..., occ(cN,sK) ]
//
// where each occupancy is the fraction of the window the component spent in
// that state, every component's *baseline* state (its state when the probe
// was constructed — the machine's resting state in practice) is omitted,
// and the leading 1 is the intercept.  Omitting one state per component is
// what makes the regression identifiable: per-component occupancies sum to
// one, so a full one-hot encoding is rank-deficient and any constant could
// slosh between components.  With the baseline folded into the intercept,
// the learned coefficients are power *increments over resting* and the
// intercept is the resting (background) draw.
//
// The probe reads only which state each component is in — never
// Component::power(), never the accounting — so the feature stream carries
// no calibrated wattage.  TrueIncrementWatts()/TrueInterceptWatts() DO read
// the state table, but exist solely for evaluation (coefficient-recovery
// error in tests and the learned_model_sweep experiment); the estimation
// path must not call them.

#ifndef SRC_POWER_UTILIZATION_H_
#define SRC_POWER_UTILIZATION_H_

#include <span>
#include <string>
#include <vector>

#include "src/power/machine.h"
#include "src/sim/time.h"

namespace odpower {

class UtilizationProbe final : public MachineObserver {
 public:
  // Attaches to `machine` (must outlive the probe) and opens the first
  // window at `now`.  Component baselines are the states held at this
  // moment, so construct the probe once the hardware has settled.
  UtilizationProbe(Machine* machine, odsim::SimTime now);

  UtilizationProbe(const UtilizationProbe&) = delete;
  UtilizationProbe& operator=(const UtilizationProbe&) = delete;

  // Feature-vector length: 1 (intercept) + one slot per non-baseline
  // component state.
  int dim() const { return static_cast<int>(features_.size()) + 1; }

  // Closes the window at `now`, writes its feature vector into `phi`
  // (length dim(); intercept first, occupancies as fractions of the window)
  // and returns the window length in seconds.  A zero-length window gives
  // the intercept with zero occupancies.
  double DrainWindow(odsim::SimTime now, std::span<double> phi);

  // Writes the instantaneous feature vector into `phi` (length dim()): 1.0
  // for each component's *current* state (0 for its baseline), intercept
  // first.  A gauge reading is a snapshot of machine power at the sampling
  // instant, so the regression must be trained against the snapshot
  // states; window occupancies are time-averages of exactly these
  // indicators, so the same linear model then predicts window energy.
  void SnapshotFeatures(std::span<double> phi) const;

  // Human-readable feature name: "bias" or "<component>[<state>]".
  std::string FeatureName(int index) const;

  // Cumulative seconds feature `index` has been active since construction
  // (the intercept reports total observed seconds).  Used to judge how well
  // excited a coefficient is.
  double FeatureSeconds(int index) const;

  // -- Evaluation-only truth access (reads the calibration table) -----------

  // True power increment of feature `index` over its component's baseline
  // state, from the component state table.  Index 0 (intercept) returns
  // TrueInterceptWatts().
  double TrueIncrementWatts(int index) const;
  // Sum of all components' baseline-state draws.
  double TrueInterceptWatts() const;

  // MachineObserver:
  void OnMachinePowerChanged(odsim::SimTime now) override;

 private:
  struct Feature {
    int component = 0;
    int state = 0;
  };

  void Accrue(odsim::SimTime now);

  Machine* machine_;
  odsim::SimTime last_time_;
  odsim::SimTime window_start_;
  std::vector<int> baseline_state_;      // Per component.
  std::vector<int> snapshot_state_;      // States over the open interval.
  std::vector<Feature> features_;        // Index i -> feature i+1.
  std::vector<int> feature_index_;       // (component, state) -> feature slot.
  std::vector<int> component_offset_;    // Into feature_index_.
  std::vector<double> window_seconds_;   // Per feature, current window.
  std::vector<double> total_seconds_;    // Per feature, since construction.
  double total_observed_seconds_ = 0.0;
};

}  // namespace odpower

#endif  // SRC_POWER_UTILIZATION_H_
