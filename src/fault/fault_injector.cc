#include "src/fault/fault_injector.h"

#include <algorithm>
#include <utility>

#include "src/util/check.h"
#include "src/util/logging.h"

namespace odfault {

FaultInjector::FaultInjector(odsim::Simulator* sim, FaultTargets targets)
    : sim_(sim), targets_(std::move(targets)) {
  OD_CHECK(sim != nullptr);
}

void FaultInjector::Arm(const FaultPlan& plan) {
  OD_CHECK_MSG(!armed_, "FaultInjector::Arm called twice");
  armed_ = true;
  for (const FaultEvent& event : plan.events) {
    switch (event.kind) {
      case FaultKind::kBandwidth:
      case FaultKind::kOutage:
        OD_CHECK_MSG(targets_.link != nullptr, "fault plan needs a link target");
        break;
      case FaultKind::kLossBurst:
        OD_CHECK_MSG(targets_.rpc != nullptr, "fault plan needs an rpc target");
        break;
      case FaultKind::kServerStall:
        OD_CHECK_MSG(!targets_.servers.empty(),
                     "fault plan needs server targets");
        break;
      case FaultKind::kDiskLatency:
        OD_CHECK_MSG(targets_.pm != nullptr,
                     "fault plan needs a power-manager target");
        break;
      case FaultKind::kSampleDropout:
      case FaultKind::kStaleTelemetry:
      case FaultKind::kNanTelemetry:
      case FaultKind::kGaugeDrift:
      case FaultKind::kGaugeRamp:
        OD_CHECK_MSG(targets_.monitor != nullptr &&
                         targets_.monitor->telemetry_faults() != nullptr,
                     "fault plan needs a power-monitor target with "
                     "telemetry-fault support");
        break;
    }
    sim_->Schedule(event.at, [this, event] { Begin(event); });
    sim_->Schedule(event.at + event.duration, [this, event] { End(event); });
  }
}

int FaultInjector::active_windows() const {
  int total = 0;
  for (int count : active_) {
    total += count;
  }
  return total;
}

void FaultInjector::Begin(const FaultEvent& event) {
  int& count = active_[Index(event.kind)];
  bool first = count == 0;
  ++count;
  ++windows_begun_;
  OD_LOG_DEBUG("fault begin t=%.1fs %s mag=%g", sim_->Now().seconds(),
               FaultKindName(event.kind), event.magnitude);
  switch (event.kind) {
    case FaultKind::kBandwidth:
      if (first) {
        nominal_bandwidth_bps_ = targets_.link->bandwidth_bps();
      }
      targets_.link->set_bandwidth_bps(nominal_bandwidth_bps_ * event.magnitude);
      break;
    case FaultKind::kOutage:
      targets_.link->SetOutage(true);
      break;
    case FaultKind::kLossBurst: {
      odnet::RpcConfig config = targets_.rpc->config();
      if (first) {
        nominal_loss_probability_ = config.loss_probability;
      }
      config.loss_probability = event.magnitude;
      targets_.rpc->set_config(config);
      break;
    }
    case FaultKind::kServerStall:
      for (odserve::SharedService* server : targets_.servers) {
        server->SetStalled(true);
      }
      break;
    case FaultKind::kDiskLatency:
      if (first) {
        nominal_disk_scale_ = targets_.pm->disk_latency_scale();
      }
      targets_.pm->set_disk_latency_scale(event.magnitude);
      break;
    case FaultKind::kSampleDropout:
      targets_.monitor->telemetry_faults()->set_dropout(true);
      break;
    case FaultKind::kStaleTelemetry:
      targets_.monitor->telemetry_faults()->set_stale(true);
      break;
    case FaultKind::kNanTelemetry:
      targets_.monitor->telemetry_faults()->set_nan(true);
      break;
    case FaultKind::kGaugeDrift:
      if (GaugeWindowsActive() == 1) {
        nominal_gauge_scale_ = targets_.monitor->telemetry_faults()->gauge_scale();
      }
      targets_.monitor->telemetry_faults()->set_gauge_scale(event.magnitude);
      break;
    case FaultKind::kGaugeRamp: {
      if (GaugeWindowsActive() == 1) {
        nominal_gauge_scale_ = targets_.monitor->telemetry_faults()->gauge_scale();
      }
      // The scale starts at nominal and creeps toward the magnitude; the
      // first tick runs immediately (zero offset from nominal).
      RampTick(event, sim_->Now());
      break;
    }
  }
}

int FaultInjector::GaugeWindowsActive() const {
  // Step drift and ramp drift share the gauge-scale knob; the nominal is
  // captured when the first window of either kind opens and restored when
  // the last closes.
  return active_[Index(FaultKind::kGaugeDrift)] +
         active_[Index(FaultKind::kGaugeRamp)];
}

void FaultInjector::RampTick(const FaultEvent& event, odsim::SimTime begin) {
  if (active_[Index(FaultKind::kGaugeRamp)] == 0) {
    return;  // The window closed; End() already restored the nominal.
  }
  double elapsed = (sim_->Now() - begin).seconds();
  double fraction =
      std::min(1.0, elapsed / std::max(1e-9, event.duration.seconds()));
  double scale =
      nominal_gauge_scale_ + (event.magnitude - nominal_gauge_scale_) * fraction;
  targets_.monitor->telemetry_faults()->set_gauge_scale(scale);
  if (fraction < 1.0) {
    sim_->Schedule(odsim::SimDuration::Seconds(1),
                   [this, event, begin] { RampTick(event, begin); });
  }
}

void FaultInjector::End(const FaultEvent& event) {
  int& count = active_[Index(event.kind)];
  OD_CHECK(count > 0);
  --count;
  bool last = count == 0;
  OD_LOG_DEBUG("fault end t=%.1fs %s", sim_->Now().seconds(),
               FaultKindName(event.kind));
  switch (event.kind) {
    case FaultKind::kBandwidth:
      if (last) {
        targets_.link->set_bandwidth_bps(nominal_bandwidth_bps_);
      }
      break;
    case FaultKind::kOutage:
      if (last) {
        targets_.link->SetOutage(false);
      }
      break;
    case FaultKind::kLossBurst:
      if (last) {
        odnet::RpcConfig config = targets_.rpc->config();
        config.loss_probability = nominal_loss_probability_;
        targets_.rpc->set_config(config);
      }
      break;
    case FaultKind::kServerStall:
      if (last) {
        for (odserve::SharedService* server : targets_.servers) {
          server->SetStalled(false);
        }
      }
      break;
    case FaultKind::kDiskLatency:
      if (last) {
        targets_.pm->set_disk_latency_scale(nominal_disk_scale_);
      }
      break;
    case FaultKind::kSampleDropout:
      if (last) {
        targets_.monitor->telemetry_faults()->set_dropout(false);
      }
      break;
    case FaultKind::kStaleTelemetry:
      if (last) {
        targets_.monitor->telemetry_faults()->set_stale(false);
      }
      break;
    case FaultKind::kNanTelemetry:
      if (last) {
        targets_.monitor->telemetry_faults()->set_nan(false);
      }
      break;
    case FaultKind::kGaugeDrift:
    case FaultKind::kGaugeRamp:
      if (GaugeWindowsActive() == 0) {
        targets_.monitor->telemetry_faults()->set_gauge_scale(nominal_gauge_scale_);
      }
      break;
  }
}

}  // namespace odfault
