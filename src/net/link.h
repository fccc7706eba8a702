// WaveLAN link model.
//
// A single shared 2 Mb/s wireless channel.  Transfers are serviced FIFO at
// full channel rate; each transfer drives the interface power state
// (transmit or receive) and injects periodic interrupt-handler CPU work
// attributed to the "Interrupts-WaveLAN" pseudo-process, mirroring how the
// paper's profiles aggregate samples taken during network interrupts.

#ifndef SRC_NET_LINK_H_
#define SRC_NET_LINK_H_

#include <cstddef>

#include "src/power/power_manager.h"
#include "src/sim/simulator.h"
#include "src/util/fifo.h"

namespace odnet {

enum class Direction {
  kSend,
  kReceive,
};

struct LinkConfig {
  // Channel rate in bits per second (2 Mb/s WaveLAN).
  double bandwidth_bps = 2.0e6;
  // Interrupt-handler work: one batch, costing 3 ms of CPU time attributed
  // to Interrupts-WaveLAN, per this many bytes transferred.
  size_t interrupt_batch_bytes = 16 * 1024;
};

class Link {
 public:
  Link(odsim::Simulator* sim, odpower::PowerManager* pm, const LinkConfig& config);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  // Queues a transfer; `on_done` fires when the last byte moves.  The
  // interface is held out of standby for the duration.
  void Transfer(Direction direction, size_t bytes, odsim::EventFn on_done);

  bool busy() const { return active_; }

  // In-flight plus queued transfers.  Streaming sources use this to shed
  // load (drop frames) rather than queue without bound.
  int queued_transfers() const {
    return static_cast<int>(queue_.size()) + (active_ ? 1 : 0);
  }

  // Duration the channel needs for `bytes` (excluding queueing).
  odsim::SimDuration TransferTime(size_t bytes) const;

  // Current channel rate; changeable mid-run to model signal degradation
  // (affects transfers started after the change).
  double bandwidth_bps() const { return config_.bandwidth_bps; }
  void set_bandwidth_bps(double bps);

  // Full outage: the channel is dead.  A transfer already on the air
  // completes (its final bytes were committed), but queued and new transfers
  // wait; they drain in order when the outage clears.  Sources that poll
  // queued_transfers() keep shedding load meanwhile, and the RPC layer's
  // per-call deadline bounds callers that cannot shed.
  void SetOutage(bool outage);
  bool outage() const { return outage_; }

  // Cumulative counters for bandwidth estimation.
  size_t total_bytes() const { return total_bytes_; }
  double total_busy_seconds() const { return total_busy_seconds_; }

 private:
  struct Pending {
    Direction direction;
    size_t bytes;
    odsim::EventFn on_done;
  };

  void StartNext();
  void FinishTransfer();

  odsim::Simulator* sim_;
  odpower::PowerManager* pm_;
  LinkConfig config_;
  odutil::Fifo<Pending> queue_;
  // The transfer on the air (one at a time): its completion event captures
  // only `this` and reads these.
  bool active_ = false;
  size_t active_bytes_ = 0;
  odsim::SimDuration active_duration_;
  odsim::EventFn active_done_;
  bool outage_ = false;
  size_t total_bytes_ = 0;
  double total_busy_seconds_ = 0.0;
  odsim::ProcessId interrupt_pid_;
  odsim::ProcedureId interrupt_proc_;
};

}  // namespace odnet

#endif  // SRC_NET_LINK_H_
