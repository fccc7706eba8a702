#include "src/net/link.h"

#include <utility>

#include "src/util/check.h"

namespace odnet {
namespace {

// Fixed per-transfer setup latency (media access + driver).
constexpr odsim::SimDuration kSetupLatency = odsim::SimDuration::Millis(5);
// CPU time of one interrupt batch (LinkConfig::interrupt_batch_bytes).
constexpr odsim::SimDuration kInterruptCpuPerBatch =
    odsim::SimDuration::Millis(3);

}  // namespace

Link::Link(odsim::Simulator* sim, odpower::PowerManager* pm, const LinkConfig& config)
    : sim_(sim), pm_(pm), config_(config) {
  OD_CHECK(sim != nullptr);
  OD_CHECK(pm != nullptr);
  OD_CHECK(config.bandwidth_bps > 0.0);
  interrupt_pid_ = sim_->processes().RegisterProcess("Interrupts-WaveLAN");
  interrupt_proc_ = sim_->processes().RegisterProcedure("_wavelan_intr");
}

void Link::set_bandwidth_bps(double bps) {
  OD_CHECK(bps > 0.0);
  config_.bandwidth_bps = bps;
}

void Link::SetOutage(bool outage) {
  if (outage_ == outage) {
    return;
  }
  outage_ = outage;
  if (!outage_ && !active_) {
    StartNext();  // Drain whatever queued while the channel was dead.
  }
}

odsim::SimDuration Link::TransferTime(size_t bytes) const {
  double seconds = static_cast<double>(bytes) * 8.0 / config_.bandwidth_bps;
  return kSetupLatency + odsim::SimDuration::Seconds(seconds);
}

void Link::Transfer(Direction direction, size_t bytes, odsim::EventFn on_done) {
  queue_.push_back(Pending{direction, bytes, std::move(on_done)});
  if (!active_) {
    StartNext();
  }
}

void Link::StartNext() {
  if (queue_.empty() || outage_) {
    // During an outage queued transfers stay parked; SetOutage(false)
    // restarts the pump.
    active_ = false;
    return;
  }
  active_ = true;
  Pending next = queue_.pop_front();

  pm_->BeginNetworkUse();
  pm_->wavelan()->Set(next.direction == Direction::kSend
                          ? odpower::WaveLanState::kTransmit
                          : odpower::WaveLanState::kReceive);

  // Interrupt-handler CPU load, spread across the transfer.
  size_t batches = next.bytes / config_.interrupt_batch_bytes;
  odsim::SimDuration duration = TransferTime(next.bytes);
  for (size_t i = 0; i < batches; ++i) {
    odsim::SimDuration at = duration * (static_cast<double>(i + 1) /
                                        static_cast<double>(batches + 1));
    sim_->Schedule(at, [this] {
      sim_->SubmitWork(interrupt_pid_, interrupt_proc_,
                       kInterruptCpuPerBatch, nullptr);
    });
  }

  active_bytes_ = next.bytes;
  active_duration_ = duration;
  active_done_ = std::move(next.on_done);
  sim_->Schedule(duration, [this] { FinishTransfer(); });
}

void Link::FinishTransfer() {
  total_bytes_ += active_bytes_;
  total_busy_seconds_ += active_duration_.seconds();
  pm_->wavelan()->Set(odpower::WaveLanState::kIdle);
  pm_->EndNetworkUse();
  // Moved out first: the callback may queue the next transfer, and
  // StartNext below overwrites the slot.
  odsim::EventFn on_done = std::move(active_done_);
  active_done_ = nullptr;
  if (on_done) {
    on_done();
  }
  StartNext();
}

}  // namespace odnet
