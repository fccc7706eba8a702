#include "src/net/bandwidth_monitor.h"

#include "src/util/check.h"

namespace odnet {
namespace {

// Estimation period, and the sliding window throughput is averaged over.
constexpr odsim::SimDuration kPeriod = odsim::SimDuration::Seconds(1);
constexpr odsim::SimDuration kWindow = odsim::SimDuration::Seconds(5);

}  // namespace

BandwidthMonitor::BandwidthMonitor(odsim::Simulator* sim, Link* link)
    : sim_(sim), link_(link) {
  OD_CHECK(sim != nullptr);
  OD_CHECK(link != nullptr);
}

void BandwidthMonitor::Start() {
  OD_CHECK(!running_);
  running_ = true;
  observations_.clear();
  observations_.push_back(Observation{sim_->Now(), link_->total_bytes(),
                                      link_->total_busy_seconds()});
  next_ = sim_->Every(kPeriod, [this] { Tick(); });
}

void BandwidthMonitor::Stop() {
  running_ = false;
  next_.Cancel();
}

void BandwidthMonitor::Prune(odsim::SimTime now) const {
  // Keep one observation at or before the window start so diffs span it.
  while (observations_.size() > 1 &&
         observations_[1].time + kWindow <= now) {
    observations_.pop_front();
  }
}

BandwidthEstimate BandwidthMonitor::Estimate() const {
  BandwidthEstimate estimate;
  if (link_->outage()) {
    estimate.outage = true;
    return estimate;  // bps = 0: a dead channel has no bandwidth.
  }
  if (!link_->busy() && link_->queued_transfers() > 0) {
    // Transfers are parked but the pump is not running: the channel is
    // wedged even though the link does not report an outage.  (A long
    // in-flight transfer is NOT stale — the channel is merely busy.)
    estimate.stale = true;
    return estimate;
  }
  if (observations_.size() < 2) {
    estimate.bps = link_->bandwidth_bps();
    return estimate;
  }
  const Observation& oldest = observations_.front();
  const Observation& newest = observations_.back();
  size_t bytes = newest.bytes - oldest.bytes;
  double busy = newest.busy_seconds - oldest.busy_seconds;
  if (bytes == 0 || busy <= 0.0) {
    // An idle network is not a slow network: report channel capacity.
    estimate.bps = link_->bandwidth_bps();
    return estimate;
  }
  estimate.bps = static_cast<double>(bytes) * 8.0 / busy;
  return estimate;
}

void BandwidthMonitor::Tick() {
  odsim::SimTime now = sim_->Now();
  observations_.push_back(
      Observation{now, link_->total_bytes(), link_->total_busy_seconds()});
  Prune(now);
  if (callback_ || health_callback_) {
    BandwidthEstimate estimate = Estimate();
    if (callback_) {
      callback_(now, estimate.bps);
    }
    if (health_callback_) {
      health_callback_(now, estimate);
    }
  }
}

}  // namespace odnet
