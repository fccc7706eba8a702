#include "src/apps/goal_scenario.h"

#include <memory>

#include "src/apps/bursty.h"
#include "src/apps/composite.h"
#include "src/apps/experiments.h"
#include "src/fault/fault_injector.h"
#include "src/net/bandwidth_monitor.h"
#include "src/odyssey/warden.h"
#include "src/powerscope/online_monitor.h"
#include "src/powerscope/smart_battery.h"
#include "src/util/check.h"

namespace odapps {
namespace {

// A fault injector aimed at the bed's link, RPC client, power manager and
// warden servers, with telemetry kinds hitting `monitor`.
std::unique_ptr<odfault::FaultInjector> MakeInjector(
    TestBed& bed, odscope::PowerMonitor* monitor) {
  odfault::FaultTargets targets;
  targets.link = &bed.link();
  targets.rpc = &bed.viceroy().rpc();
  targets.pm = &bed.laptop().power_manager();
  for (const char* data_type : {"video", "speech", "map", "web"}) {
    odyssey::Warden* warden = bed.viceroy().FindWarden(data_type);
    if (warden != nullptr) {
      targets.servers.push_back(warden->server());
    }
  }
  targets.monitor = monitor;
  return std::make_unique<odfault::FaultInjector>(&bed.sim(), targets);
}

}  // namespace

GoalScenarioResult RunGoalScenario(const GoalScenarioOptions& options) {
  TestBed bed(TestBed::Options{
      .seed = options.seed, .hw_pm = true, .link = {}, .trace = options.trace});
  if (options.invert_priorities) {
    bed.speech().set_priority(3);
    bed.video().set_priority(2);
    bed.map().set_priority(1);
    bed.web().set_priority(0);
  }
  const bool disturbed = !options.fault_plan.empty();
  if (options.rpc_loss_probability > 0.0 || disturbed) {
    odnet::RpcConfig rpc;
    rpc.loss_probability = options.rpc_loss_probability;
    if (disturbed) {
      // Bounded retransmission and a per-call deadline: liveness under
      // outages (same wiring as the fault scenario).
      rpc.retry_timeout = options.retry_timeout;
      rpc.max_retries = options.max_retries;
      rpc.deadline = options.rpc_deadline;
    }
    bed.viceroy().rpc().set_config(rpc);
  }

  // Under a disturbance plan the viceroy's outage clamp rides along: a dead
  // link clamps fidelity until health returns.  No bandwidth *expectations*
  // are registered — the goal director owns routine fidelity decisions here.
  std::unique_ptr<odnet::BandwidthMonitor> bw_monitor;
  if (disturbed) {
    bed.viceroy().set_recovery_hysteresis(options.recovery_hysteresis);
    bw_monitor = std::make_unique<odnet::BandwidthMonitor>(
        &bed.sim(), &bed.link(), odnet::BandwidthMonitorConfig{});
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

  std::unique_ptr<odfault::FaultInjector> injector;
  if (disturbed) {
    injector = MakeInjector(bed, monitor.get());
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
    composite.StartPeriodic(options.composite_period);
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
  if (injector != nullptr) {
    injector->Arm(options.fault_plan);
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
  TestBed bed(TestBed::Options{.seed = seed, .hw_pm = true, .link = {}});
  if (lowest_fidelity) {
    bed.speech().SetFidelity(0);
    bed.video().SetFidelity(0);
    bed.map().SetFidelity(0);
    bed.web().SetFidelity(0);
  }
  // Injection target for telemetry kinds: a monitor nothing reads (the
  // pinned run has no director).  Never started, so it costs nothing.
  odscope::OnlineMonitor idle_monitor(&bed.sim(), &bed.laptop().machine(),
                                      odscope::OnlineMonitorConfig{},
                                      seed ^ 0xf00dULL);
  std::unique_ptr<odfault::FaultInjector> injector;
  if (!fault_plan.empty()) {
    odnet::RpcConfig rpc;
    rpc.retry_timeout = odsim::SimDuration::Millis(500);
    rpc.max_retries = 5;
    rpc.deadline = odsim::SimDuration::Seconds(10);
    bed.viceroy().rpc().set_config(rpc);
    injector = MakeInjector(bed, &idle_monitor);
  }
  Settle(bed);
  if (injector != nullptr) {
    injector->Arm(fault_plan);
  }

  odsim::SimTime start = bed.sim().Now();
  bed.laptop().accounting().Reset(start);
  odpower::EnergySupply supply(&bed.laptop().accounting(), initial_joules);

  CompositeApp composite(&bed.sim(), &bed.speech(), &bed.web(), &bed.map());
  composite.StartPeriodic(odsim::SimDuration::Seconds(25));
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
