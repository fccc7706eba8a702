#include "src/apps/goal_scenario.h"

#include <memory>

#include "src/apps/bursty.h"
#include "src/apps/composite.h"
#include "src/apps/experiments.h"
#include "src/net/bandwidth_monitor.h"
#include "src/powerscope/online_monitor.h"
#include "src/powerscope/smart_battery.h"

namespace odapps {
namespace {

// The composite application starts once every this often (Section 5.2).
constexpr odsim::SimDuration kCompositePeriod = odsim::SimDuration::Seconds(25);

}  // namespace

GoalScenarioResult RunGoalScenario(const GoalScenarioOptions& options) {
  TestBed bed(TestBed::Options{
      .seed = options.seed, .hw_pm = true, .trace = options.trace});
  if (options.invert_priorities) {
    bed.speech().set_priority(3);
    bed.video().set_priority(2);
    bed.map().set_priority(1);
    bed.web().set_priority(0);
  }
  if (options.rpc_loss_probability > 0.0) {
    odnet::RpcConfig rpc;
    rpc.loss_probability = options.rpc_loss_probability;
    bed.viceroy().rpc().set_config(rpc);
  }
  // Under a disturbance plan the degraded transport and the viceroy's
  // outage clamp ride along: a dead link clamps fidelity until health
  // returns.  No bandwidth *expectations* are registered — the goal director
  // owns routine fidelity decisions here.
  const bool disturbed = !options.fault_plan.empty();
  std::optional<DegradedClient> degraded;
  std::unique_ptr<odnet::BandwidthMonitor> bw_monitor;
  if (disturbed) {
    degraded.emplace(bed, options.seed);
    bw_monitor =
        std::make_unique<odnet::BandwidthMonitor>(&bed.sim(), &bed.link());
    bw_monitor->set_health_callback(
        [&bed](odsim::SimTime, const odnet::BandwidthEstimate& estimate) {
          bed.viceroy().NotifyLinkHealth(estimate);
        });
  }
  Settle(bed);

  odsim::SimTime start = bed.sim().Now();
  bed.laptop().accounting().Reset(start);
  if (bed.tracer() != nullptr) {
    bed.tracer()->Restart(start);
  }
  odpower::EnergySupply supply(&bed.laptop().accounting(), options.initial_joules);
  std::unique_ptr<odscope::PowerMonitor> monitor;
  odenergy::GoalDirectorConfig director_config = options.director;
  if (options.use_smart_battery) {
    monitor = std::make_unique<odscope::SmartBattery>(
        &bed.sim(), &bed.laptop().machine(), odscope::SmartBatteryConfig{},
        options.seed ^ 0xf00dULL);
    // A coarse, quantized gauge warrants a small safety margin.
    if (director_config.residual_safety_fraction == 0.0) {
      director_config.residual_safety_fraction = 0.04;
    }
  } else {
    monitor = std::make_unique<odscope::OnlineMonitor>(
        &bed.sim(), &bed.laptop().machine(), odscope::OnlineMonitorConfig{},
        options.seed ^ 0xf00dULL);
    if (disturbed && director_config.stale_sample_limit == 0) {
      // The multimeter is a noisy continuous source; bit-identical repeats
      // mean a wedged feed.  1.2 s at 10 Hz.
      director_config.stale_sample_limit = 12;
    }
  }
  odenergy::GoalDirector director(&bed.viceroy(), &supply, monitor.get(),
                                  start + options.goal, director_config);

  // Self-constructive power model: probe baselines are the settled states
  // (the probe is constructed after Settle()), and the estimator sees only
  // the delivered gauge stream via the director.
  std::unique_ptr<odenergy::LearnedEstimator> learned;
  if (options.learned_model) {
    learned = std::make_unique<odenergy::LearnedEstimator>(
        &bed.laptop().machine(), start, options.learned_config);
    director.AttachLearnedEstimator(learned.get());
  }

  // Workload.
  CompositeApp composite(&bed.sim(), &bed.speech(), &bed.web(), &bed.map());
  std::unique_ptr<BurstyWorkload> bursty;
  std::function<void()> stop_workload;
  if (options.workload_factory) {
    stop_workload = options.workload_factory(bed);
  } else if (options.bursty) {
    bursty = std::make_unique<BurstyWorkload>(&bed.sim(), &bed.video(),
                                              &bed.speech(), &bed.web(),
                                              &bed.map(), &bed.rng());
    bursty->Start();
  } else {
    composite.StartPeriodic(kCompositePeriod);
    bed.video().PlayLooping(StandardVideoClips()[0]);
  }

  if (options.extend_at.has_value()) {
    bed.sim().Schedule(*options.extend_at, [&director, &options] {
      director.ExtendGoal(director.goal() + options.extend_by);
    });
  }

  // Optional 1 Hz probe (chaos-soak invariant checks).
  if (options.tick_probe) {
    bed.sim().Every(odsim::SimDuration::Seconds(1),
                    [&] { options.tick_probe(bed, supply); });
  }

  if (bw_monitor != nullptr) {
    bw_monitor->Start();
  }
  if (degraded.has_value()) {
    degraded->Arm(options.fault_plan, monitor.get());
  }
  director.Start(/*stop_sim_on_completion=*/true);
  // Safety valve: infeasible configurations should end, not hang.
  odsim::SimTime hard_stop =
      start + options.goal + options.extend_by + options.max_overrun;
  bed.sim().RunUntil(hard_stop);

  odsim::SimTime end = bed.sim().Now();
  director.Stop();
  if (bw_monitor != nullptr) {
    bw_monitor->Stop();
  }
  composite.Stop();
  bed.video().StopLooping();
  if (bursty != nullptr) {
    bursty->Stop();
  }
  if (stop_workload) {
    stop_workload();
  }

  GoalScenarioResult result;
  result.goal_met = director.outcome() == odenergy::GoalOutcome::kGoalMet;
  result.residual_joules = supply.ResidualJoules(end);
  result.elapsed_seconds = (end - start).seconds();
  result.timeline = director.timeline();
  for (odyssey::AdaptiveApplication* app : bed.viceroy().applications()) {
    result.adaptations[app->name()] = bed.viceroy().AdaptationCount(app);
    result.fidelity_traces[app->name()] = director.FidelityLog(app);
    result.final_fidelity[app->name()] = app->current_fidelity();
  }
  result.total_adaptations = bed.viceroy().TotalAdaptations();
  if (director.infeasibility_detected().has_value()) {
    result.infeasibility_detected_seconds =
        (*director.infeasibility_detected() - start).seconds();
  }
  result.outcome = director.outcome();
  result.estimated_residual_joules = director.EstimatedResidualJoules();
  result.final_health = director.health();
  const odenergy::TelemetryGuard& telemetry = director.telemetry();
  result.safe_mode_seconds = telemetry.SafeModeSeconds(end);
  result.safe_mode_entries = telemetry.safe_mode_entries();
  result.invalid_samples = telemetry.invalid_samples();
  result.telemetry_gaps = telemetry.telemetry_gaps();
  result.outage_clamps = bed.viceroy().outage_clamps();
  result.accounted_joules = bed.laptop().accounting().TotalJoules(end);
  if (learned != nullptr) {
    result.learned_joules = learned->learned_joules();
    result.learned_converged = learned->converged_once();
    result.learned_confidence = learned->model().confidence();
    result.learned_primary_active = director.learned_primary_active();
    result.coefficient_recovery_error =
        learned->CoefficientRecoveryError(/*min_excitation_seconds=*/30.0,
                                          /*min_true_watts=*/0.05);
  }
  if (const auto& drift = director.drift_sentinel(); drift.has_value()) {
    result.drift_entries = drift->entries();
    result.drift_seconds = drift->Seconds(end);
    result.drift_correction_joules = drift->correction_joules();
    if (drift->first_detected().has_value()) {
      result.first_drift_detected_seconds =
          (*drift->first_detected() - start).seconds();
    }
  }
  if (bed.tracer() != nullptr) {
    result.trace = std::make_shared<const odtrace::PowerTrace>(
        bed.tracer()->Snapshot(end));
  }
  return result;
}

double MeasurePinnedLifetime(double initial_joules, bool lowest_fidelity,
                             uint64_t seed,
                             const odfault::FaultPlan& fault_plan) {
  TestBed bed(TestBed::Options{.seed = seed, .hw_pm = true});
  if (lowest_fidelity) {
    bed.speech().SetFidelity(0);
    bed.video().SetFidelity(0);
    bed.map().SetFidelity(0);
    bed.web().SetFidelity(0);
  }
  // Telemetry kinds hit a monitor nothing reads: the pinned run has no
  // director.
  std::optional<DegradedClient> degraded;
  if (!fault_plan.empty()) {
    degraded.emplace(bed, seed);
  }
  Settle(bed);
  if (degraded.has_value()) {
    degraded->Arm(fault_plan);
  }

  odsim::SimTime start = bed.sim().Now();
  bed.laptop().accounting().Reset(start);
  odpower::EnergySupply supply(&bed.laptop().accounting(), initial_joules);

  CompositeApp composite(&bed.sim(), &bed.speech(), &bed.web(), &bed.map());
  composite.StartPeriodic(kCompositePeriod);
  bed.video().PlayLooping(StandardVideoClips()[0]);

  // Poll for exhaustion at one-second granularity.
  while (!supply.Exhausted(bed.sim().Now())) {
    bed.sim().RunUntil(bed.sim().Now() + odsim::SimDuration::Seconds(1));
  }
  double lifetime = (bed.sim().Now() - start).seconds();
  composite.Stop();
  bed.video().StopLooping();
  return lifetime;
}

}  // namespace odapps
