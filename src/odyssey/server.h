// Remote servers: a thin session facade over the shared service layer.
//
// The paper's servers are 200 MHz Pentium Pro desktops "likely to be
// operating from a power outlet rather than a battery": their energy is
// free from the client's perspective, but their compute time is not —
// requests queue.  Historically each warden owned one dedicated server; at
// fleet scale many devices share a handful of distillation servers, so the
// queueing model now lives in odserve::SharedService and RemoteServer is
// one client *session* against such a service.  The single-owner
// constructor keeps the historical dedicated-server behavior (and its
// exact event sequence); the attaching constructor joins an existing
// shared service, which is how a fleet of viceroys contends for one
// distiller.

#ifndef SRC_ODYSSEY_SERVER_H_
#define SRC_ODYSSEY_SERVER_H_

#include <memory>
#include <string>

#include "src/serve/shared_service.h"
#include "src/sim/simulator.h"

namespace odyssey {

class RemoteServer {
 public:
  // Dedicated server: owns a private SharedService with a single session.
  // `speed_factor` scales submitted work (a 2x-faster server halves it).
  RemoteServer(odsim::Simulator* sim, std::string name, double speed_factor = 1.0);

  // Session facade: attaches to an existing shared service as one more
  // client session.
  explicit RemoteServer(odserve::SharedService* service);

  RemoteServer(const RemoteServer&) = delete;
  RemoteServer& operator=(const RemoteServer&) = delete;

  // Queues `work` of server computation; FIFO service.  `on_done` fires
  // when this request's work completes.
  void Submit(odsim::SimDuration work, odsim::EventFn on_done);

  // Keyed submission: eligible for the shared service's distilled-content
  // cache, same-key batching, and admission control.  The completion
  // carries how the request was satisfied (served, cache hit, rejected).
  void SubmitKeyed(const std::string& key, odsim::SimDuration work,
                   odserve::SharedService::ServeFn on_done);

  // Compute stall: the server stops dequeuing.  The request already being
  // serviced finishes (its completion was scheduled), but queued and new
  // requests wait and drain in submission order when the stall clears.
  // Models a wedged or thrashing server, as distinct from a dead link.
  // On a shared service this wedges every session — one stalled distiller
  // degrades the whole fleet.
  void SetStalled(bool stalled);
  bool stalled() const { return service_->stalled(); }

  const std::string& name() const { return service_->name(); }
  // Service-level totals: on a dedicated server these are this client's
  // numbers; on a shared service they aggregate every session.
  int queue_depth() const { return service_->queue_depth(); }
  double total_busy_seconds() const { return service_->total_busy_seconds(); }
  int completed_requests() const { return service_->completed_requests(); }

  odserve::SharedService* service() { return service_; }
  int session() const { return session_; }

 private:
  std::unique_ptr<odserve::SharedService> owned_;  // Dedicated servers only.
  odserve::SharedService* service_;
  int session_;
};

}  // namespace odyssey

#endif  // SRC_ODYSSEY_SERVER_H_
