// Wardens: type-specific code components (Figure 3).
//
// A warden encapsulates everything Odyssey needs to know about one data
// type: how to fetch objects from servers at a requested fidelity, and how
// much data a given fidelity implies.  Type-specific wardens (video, speech,
// map, web) subclass this and live next to their applications; the base
// class provides the shared fetch-over-RPC path.

#ifndef SRC_ODYSSEY_WARDEN_H_
#define SRC_ODYSSEY_WARDEN_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <string>

#include "src/net/rpc.h"
#include "src/serve/shared_service.h"
#include "src/sim/simulator.h"
#include "src/util/slot_pool.h"

namespace odyssey {

class Viceroy;

class Warden {
 public:
  explicit Warden(std::string data_type);
  virtual ~Warden();

  Warden(const Warden&) = delete;
  Warden& operator=(const Warden&) = delete;

  const std::string& data_type() const { return data_type_; }

  // How a fetch ended: the RPC outcome plus, for completed calls, how the
  // service satisfied it (dedicated/batched compute vs the
  // distilled-content cache).
  struct FetchOutcome {
    odnet::RpcStatus status = odnet::RpcStatus::kOk;
    odserve::ServeOutcome serve = odserve::ServeOutcome::kServed;
  };
  using OutcomeFn = std::function<void(const FetchOutcome&)>;

  // Fetches an object: sends a `request_bytes` annotated request, lets this
  // type's server spend `server_time` producing the representation
  // (filtering, transcoding, distillation), then receives `reply_bytes`.
  // Concurrent fetches queue at the server.  `key` names the distilled
  // content — object id plus fidelity level — so a shared service can
  // batch identical in-flight work and serve repeats from its cache; it
  // may be empty on a service that does neither.  The completion carries
  // the typed outcome so the caller can degrade deliberately — reuse a
  // cached object, render a placeholder — instead of pretending the fetch
  // succeeded.  Failed fetches are counted; admission rejects
  // (RpcStatus::kRejected) are counted apart and reported to the viceroy,
  // whose overload clamp degrades the client rather than letting it hammer
  // a full queue.
  void Fetch(const std::string& key, size_t request_bytes, size_t reply_bytes,
             odsim::SimDuration server_time, OutcomeFn on_done);

  // Fetches that ended without a reply (retries exhausted or deadline).
  int failed_fetches() const { return failed_fetches_; }
  // Fetches refused by admission control.
  int rejected_fetches() const { return rejected_fetches_; }
  // Fetches served from the distilled-content cache.
  int cache_hits() const { return cache_hits_; }

  Viceroy* viceroy() { return viceroy_; }

  // This data type's server, set at registration: a dedicated service the
  // warden owns, or a service shared with other devices.
  odserve::SharedService* service() { return service_; }

 private:
  friend class Viceroy;

  // One fetch's state, pooled per warden.  The RPC's compute step,
  // the service's completion and the RPC's status completion capture only
  // `{this, FetchRef}`; the record carries the key and the serve outcome
  // between them.  Released when the RPC settles, so a completion from a
  // stalled service that arrives after the fetch ended (deadline) finds a
  // stale handle and does nothing.
  struct FetchState {
    std::string key;
    odsim::SimDuration server_time;
    odserve::ServeOutcome serve = odserve::ServeOutcome::kServed;
    std::function<void(bool served)> rpc_done;  // The RPC's compute completion.
    OutcomeFn on_done;
  };
  using FetchRef = odutil::SlotPool<FetchState>::Handle;

  void SubmitFetch(FetchRef ref, std::function<void(bool served)> rpc_done);
  void OnServed(FetchRef ref, odserve::ServeOutcome outcome);
  void FinishFetch(FetchRef ref, odnet::RpcStatus status);

  std::string data_type_;
  Viceroy* viceroy_ = nullptr;  // Set at registration.
  std::unique_ptr<odserve::SharedService> owned_service_;  // Dedicated only.
  odserve::SharedService* service_ = nullptr;
  int session_ = -1;
  int failed_fetches_ = 0;
  int rejected_fetches_ = 0;
  int cache_hits_ = 0;
  odutil::SlotPool<FetchState> fetches_;
};

}  // namespace odyssey

#endif  // SRC_ODYSSEY_WARDEN_H_
