// Shared simulated service layer.
//
// The paper's testbed gives every warden a dedicated server, so a single
// client never contends with anyone.  A production deployment is the
// opposite: thousands of devices share a handful of distillation servers.
// SharedService is that server model — one FIFO compute queue multiplexing
// many client *sessions* inside one odsim::Simulator event loop, with three
// production-scale mechanisms layered on top:
//
//   - admission control: a bounded queue; a submit that would exceed it is
//     rejected immediately, and the typed reject flows back through
//     odnet::RpcStatus so viceroys degrade deliberately instead of piling
//     retries onto an overloaded server;
//   - request batching: keyed submits for work already queued or in
//     service join that request instead of enqueueing duplicate compute
//     (the same map tile distilled once, delivered to every waiter);
//   - a distilled-content cache: completed keyed work is remembered under
//     its content key (object id + fidelity); a later submit for the same
//     key is served from cache instead of re-distilled, with deterministic
//     LRU eviction at capacity.
//
// A service with the default config (unbounded queue, batching off, cache
// off) behaves event-for-event like the historical per-warden RemoteServer:
// a fleet of one through the odyssey::RemoteServer facade reproduces the
// single-client goldens byte-identically.
//
// Determinism: requests are served strictly in arrival order (a global
// submission sequence), including across a stall clear that lands at the
// same timestamp as new submits — queued work drains ahead of anything
// submitted later, regardless of event-queue interleaving.

#ifndef SRC_SERVE_SHARED_SERVICE_H_
#define SRC_SERVE_SHARED_SERVICE_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/sim/simulator.h"

namespace odserve {

// How a keyed submit was ultimately satisfied (or not).
enum class ServeOutcome {
  kServed,    // Dedicated or batched compute produced the content.
  kCacheHit,  // Served from the distilled-content cache; no compute.
  kRejected,  // Admission control refused the request (queue full).
};

struct ServiceConfig {
  // Scales submitted work (a 2x-faster server halves it).
  double speed_factor = 1.0;
  // Admission bound on queue depth (waiting + in service).  A keyed submit
  // arriving when queue_depth() >= max_queue is rejected.  0 = unbounded
  // (no admission control; every request is accepted).
  int max_queue = 0;
  // Coalesce a keyed submit with already-queued or in-service work for the
  // same key: one unit of compute, every waiter completed.
  bool batch_same_key = false;
  // Distilled-content cache capacity in entries; 0 disables the cache.
  size_t cache_capacity = 0;
};

class SharedService {
 public:
  SharedService(odsim::Simulator* sim, std::string name,
                ServiceConfig config = {});

  SharedService(const SharedService&) = delete;
  SharedService& operator=(const SharedService&) = delete;

  // Registers a client session and returns its id, which every submit
  // must name.  Sessions do not partition the queue, and the service keeps
  // no per-session state beyond their count.
  int OpenSession(std::string client_name);

  // -- Submission ------------------------------------------------------------

  // Unkeyed FIFO compute, the historical RemoteServer contract: never
  // rejected, never batched, never cached.  `on_done` fires when this
  // request's work completes.  Only valid on a service without admission
  // control (an unkeyed submit has no reject channel).
  void Submit(int session, odsim::SimDuration work, odsim::EventFn on_done);

  using ServeFn = std::function<void(ServeOutcome)>;

  // Keyed submit: eligible for the cache, for batching, and for admission
  // rejection.  The completion callback may fire synchronously (cache hit,
  // reject) or later (served).  `key` identifies the distilled content —
  // object id plus fidelity — so equal keys are equal bytes.
  void SubmitKeyed(int session, const std::string& key, odsim::SimDuration work,
                   ServeFn on_done);

  // -- Stall (fault injection) -----------------------------------------------

  // Compute stall: the service stops dequeuing.  The request already in
  // service finishes (its completion was scheduled), but queued and new
  // requests wait and drain in submission order when the stall clears.
  // Cache hits still serve while stalled: the content front-end is not the
  // wedged distiller pipeline.
  void SetStalled(bool stalled);
  bool stalled() const { return stalled_; }

  // -- Introspection ---------------------------------------------------------

  const std::string& name() const { return name_; }
  int queue_depth() const {
    return static_cast<int>(queue_.size()) + (busy_ ? 1 : 0);
  }
  double total_busy_seconds() const { return total_busy_seconds_; }
  int completed_requests() const { return completed_; }
  int rejected_requests() const { return rejected_; }
  int cache_hits() const { return cache_hits_; }
  int cache_evictions() const { return cache_evictions_; }
  int batch_joins() const { return batch_joins_; }
  size_t cache_size() const { return cache_index_.size(); }

  // Queue-wait statistics over served requests (time from submit to service
  // start; batched joiners measure from their own submit).  Cache hits and
  // rejects never queue and are excluded.
  double MeanWaitSeconds() const;
  // Nearest-rank percentile, deterministic.  p in [0, 100].
  double WaitPercentileSeconds(double p) const;

 private:
  struct Waiter {
    odsim::SimTime submitted;
    ServeFn on_done;
  };
  struct Request {
    odsim::SimDuration work;          // Already scaled by speed_factor.
    odsim::SimTime submitted;
    bool keyed = false;
    std::string key;
    odsim::EventFn on_done;           // Unkeyed completion.
    ServeFn on_served;                // Keyed completion.
    std::vector<Waiter> joined;       // Batched same-key waiters.
  };

  void StartNext();
  void CacheInsert(const std::string& key);
  bool CacheLookup(const std::string& key);
  Request* FindBatchTarget(const std::string& key);
  void RecordWait(odsim::SimTime submitted, odsim::SimTime started);

  odsim::Simulator* sim_;
  std::string name_;
  ServiceConfig config_;
  int session_count_ = 0;

  std::deque<Request> queue_;  // Arrival order; front is served next.
  // Batch targets: each queued keyed request by key, kept while
  // batch_same_key is on.  Batching queues at most one request per key (a
  // second submit joins the first), so this finds exactly the request a
  // front-to-back scan would.  The views point at the requests' own keys;
  // deque elements stay put under push_back/pop_front.
  std::unordered_map<std::string_view, Request*> queued_by_key_;
  bool busy_ = false;
  bool in_service_keyed_ = false;
  std::string in_service_key_;
  Request in_service_;  // Valid while busy_: joiners attach here.
  bool stalled_ = false;

  double total_busy_seconds_ = 0.0;
  int completed_ = 0;
  int rejected_ = 0;
  int cache_hits_ = 0;
  int cache_evictions_ = 0;
  int batch_joins_ = 0;
  std::vector<double> waits_;

  // LRU cache: list front = most recently used; map points into the list.
  std::list<std::string> cache_lru_;
  std::unordered_map<std::string, std::list<std::string>::iterator> cache_index_;
};

}  // namespace odserve

#endif  // SRC_SERVE_SHARED_SERVICE_H_
