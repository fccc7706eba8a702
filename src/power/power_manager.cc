#include "src/power/power_manager.h"

#include <utility>

#include "src/util/check.h"

namespace odpower {

PowerManager::PowerManager(odsim::Simulator* sim, Display* display, WaveLan* wavelan,
                           Disk* disk)
    : sim_(sim), display_(display), wavelan_(wavelan), disk_(disk) {
  OD_CHECK(sim != nullptr);
  OD_CHECK(display != nullptr);
  OD_CHECK(wavelan != nullptr);
  OD_CHECK(disk != nullptr);
}

WaveLanState PowerManager::NetworkRestingState() const {
  return hw_pm_enabled_ ? WaveLanState::kStandby : WaveLanState::kIdle;
}

void PowerManager::SetHardwarePmEnabled(bool enabled) {
  hw_pm_enabled_ = enabled;
  if (!network_in_use()) {
    wavelan_->Set(NetworkRestingState());
  }
  if (!disk_busy_) {
    if (enabled) {
      ArmDiskTimer();
    } else {
      disk_timer_.Cancel();
      disk_->Set(DiskState::kIdle);
    }
  }
}

void PowerManager::set_disk_standby_timeout(odsim::SimDuration timeout) {
  OD_CHECK(timeout > odsim::SimDuration::Zero());
  disk_standby_timeout_ = timeout;
}

void PowerManager::set_disk_latency_scale(double scale) {
  OD_CHECK(scale > 0.0);
  disk_latency_scale_ = scale;
}

void PowerManager::ArmDiskTimer() {
  disk_timer_.Cancel();
  if (!hw_pm_enabled_) {
    return;
  }
  disk_timer_ = sim_->Schedule(disk_standby_timeout_, [this] {
    if (!disk_busy_ && disk_->disk_state() == DiskState::kIdle) {
      disk_->Set(DiskState::kStandby);
    }
  });
}

void PowerManager::AccessDisk(odsim::SimDuration duration, odsim::EventFn on_done) {
  if (disk_busy_) {
    disk_queue_.push_back(DiskRequest{duration, std::move(on_done)});
    return;
  }
  disk_busy_ = true;
  disk_timer_.Cancel();

  auto perform = [this, duration, on_done = std::move(on_done)]() mutable {
    disk_->Set(DiskState::kAccess);
    sim_->Schedule(duration * disk_latency_scale_,
                   [this, on_done = std::move(on_done)]() mutable {
      disk_->Set(DiskState::kIdle);
      disk_busy_ = false;
      if (on_done) {
        on_done();
      }
      if (!disk_queue_.empty()) {
        DiskRequest next = disk_queue_.pop_front();
        AccessDisk(next.duration, std::move(next.on_done));
      } else {
        ArmDiskTimer();
      }
    });
  };

  if (disk_->disk_state() == DiskState::kStandby) {
    disk_->Set(DiskState::kSpinup);
    sim_->Schedule(disk_->spinup_time(), std::move(perform));
  } else {
    perform();
  }
}

void PowerManager::BeginNetworkUse() {
  if (network_use_count_ == 0 &&
      wavelan_->wavelan_state() == WaveLanState::kStandby) {
    wavelan_->Set(WaveLanState::kIdle);
  }
  ++network_use_count_;
}

void PowerManager::EndNetworkUse() {
  OD_CHECK(network_use_count_ > 0);
  --network_use_count_;
  if (network_use_count_ == 0) {
    RestNetwork();
  }
}

void PowerManager::RestNetwork() { wavelan_->Set(NetworkRestingState()); }

}  // namespace odpower
