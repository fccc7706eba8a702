// Hardware power manager.
//
// Implements the hardware power-management techniques of Section 3.1:
//   - disk enters standby after 10 s of inactivity (spin-up on next access);
//   - the wireless interface rests in standby, waking only for RPCs and
//     bulk transfers (the paper's modified network package);
//   - the display is set by applications (off during speech, bright while
//     video/maps/web are visible).
// With power management disabled (the paper's "Baseline" bars) the disk and
// interface rest in their idle states instead.

#ifndef SRC_POWER_POWER_MANAGER_H_
#define SRC_POWER_POWER_MANAGER_H_

#include "src/power/disk.h"
#include "src/power/display.h"
#include "src/power/wavelan.h"
#include "src/sim/simulator.h"
#include "src/util/fifo.h"

namespace odpower {

class PowerManager {
 public:
  PowerManager(odsim::Simulator* sim, Display* display, WaveLan* wavelan, Disk* disk);

  PowerManager(const PowerManager&) = delete;
  PowerManager& operator=(const PowerManager&) = delete;

  // Enables/disables hardware power management.  Takes effect immediately:
  // resting devices move to the new resting state.
  void SetHardwarePmEnabled(bool enabled);

  // How long the disk must be inactive before spinning down (default 10 s).
  void set_disk_standby_timeout(odsim::SimDuration timeout);

  // Multiplies the transfer duration of disk accesses performed while set
  // (fault injection: a degraded spindle or bus contention spike).  Applies
  // when an access starts, so queued requests feel a spike that begins
  // while they wait.
  void set_disk_latency_scale(double scale);
  double disk_latency_scale() const { return disk_latency_scale_; }

  // -- Disk ------------------------------------------------------------------

  // Performs a disk access of the given transfer duration, spinning up first
  // if necessary.  Concurrent requests queue FIFO.  `on_done` fires when the
  // access completes.
  void AccessDisk(odsim::SimDuration duration, odsim::EventFn on_done);

  // -- Network ---------------------------------------------------------------

  // The link layer brackets every RPC/bulk transfer with these.  Nested
  // Begin/End pairs are counted.  Between uses, the interface rests in
  // standby (PM on) or idle (PM off).
  void BeginNetworkUse();
  void EndNetworkUse();
  bool network_in_use() const { return network_use_count_ > 0; }

  // -- Display ---------------------------------------------------------------

  void SetDisplay(DisplayState state) { display_->Set(state); }
  WaveLan* wavelan() { return wavelan_; }

 private:
  WaveLanState NetworkRestingState() const;
  void ArmDiskTimer();
  void RestNetwork();

  odsim::Simulator* sim_;
  Display* display_;
  WaveLan* wavelan_;
  Disk* disk_;

  bool hw_pm_enabled_ = false;
  odsim::SimDuration disk_standby_timeout_ = odsim::SimDuration::Seconds(10);
  double disk_latency_scale_ = 1.0;
  odsim::EventHandle disk_timer_;
  bool disk_busy_ = false;
  struct DiskRequest {
    odsim::SimDuration duration;
    odsim::EventFn on_done;
  };
  odutil::Fifo<DiskRequest> disk_queue_;
  int network_use_count_ = 0;
};

}  // namespace odpower

#endif  // SRC_POWER_POWER_MANAGER_H_
