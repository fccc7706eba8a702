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
//   - request batching: submits of a key whose work is already queued or in
//     service join that request instead of enqueueing duplicate compute
//     (the same map tile distilled once, delivered to every waiter);
//   - a distilled-content cache: completed work is remembered under
//     its content key (object id + fidelity); a later submit for the same
//     key is served from cache instead of re-distilled, with deterministic
//     LRU eviction at capacity.
//
// A service with the default config (unbounded queue, batching off, cache
// off) is the paper's dedicated per-warden server: a testbed warden owns
// one, and its fetches reproduce the single-client goldens
// byte-identically.
//
// Determinism: requests are served strictly in arrival order (a global
// submission sequence), including across a stall clear that lands at the
// same timestamp as new submits — queued work drains ahead of anything
// submitted later, regardless of event-queue interleaving.

#ifndef SRC_SERVE_SHARED_SERVICE_H_
#define SRC_SERVE_SHARED_SERVICE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sim/simulator.h"
#include "src/util/fifo.h"

namespace odserve {

// How a submit was ultimately satisfied (or not).
enum class ServeOutcome {
  kServed,    // Dedicated or batched compute produced the content.
  kCacheHit,  // Served from the distilled-content cache; no compute.
  kRejected,  // Admission control refused the request (queue full).
};

struct ServiceConfig {
  // Scales submitted work (a 2x-faster server halves it).
  double speed_factor = 1.0;
  // Admission bound on queue depth (waiting + in service).  A submit
  // arriving when queue_depth() >= max_queue is rejected.  0 = unbounded
  // (no admission control; every request is accepted).
  int max_queue = 0;
  // Coalesce a submit with already-queued or in-service work for the
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

  using ServeFn = std::function<void(ServeOutcome)>;

  // Queues `work` of compute under `key`, which names the distilled
  // content (object id plus fidelity, so equal keys are equal bytes) and
  // may be empty.  The request is eligible for the cache, for batching and
  // for admission rejection, as the config enables them.  `on_done` fires
  // synchronously on a cache hit or a reject, and later when served.
  void SubmitKeyed(int session, const std::string& key, odsim::SimDuration work,
                   ServeFn on_done);

  // SubmitKeyed with an empty key and a completion that ignores the
  // outcome.  Only valid on a service that neither bounds its queue, nor
  // batches, nor caches, so the request is never rejected, batched or
  // cached.
  void Submit(int session, odsim::SimDuration work, odsim::EventFn on_done);

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
    std::string key;
    ServeFn on_done;
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

  odutil::Fifo<Request> queue_;  // Arrival order; front is served next.
  uint64_t dequeued_ = 0;  // Requests that have left queue_ for service.
  // Batch targets: each queued request's position in arrival order (its
  // index in queue_ plus dequeued_) by key, kept while batch_same_key is
  // on.  Batching queues at most one request per key (a second submit
  // joins the first), so this finds exactly the request a front-to-back
  // scan would.
  std::unordered_map<std::string, uint64_t> queued_by_key_;
  bool busy_ = false;
  Request in_service_;  // Valid while busy_.
  // True while in_service_ computes and a same-key submit may join it.
  // Cleared when its work completes, before any completion runs: a
  // completion that resubmits must never join the request just served.
  bool in_service_joinable_ = false;
  bool stalled_ = false;

  double total_busy_seconds_ = 0.0;
  int completed_ = 0;
  int rejected_ = 0;
  int cache_hits_ = 0;
  int cache_evictions_ = 0;
  int batch_joins_ = 0;
  // Every queue wait, in no particular order: percentile queries reorder
  // it in place.  wait_sum_ adds the waits in arrival order.
  mutable std::vector<double> waits_;
  double wait_sum_ = 0.0;

  // LRU cache: list front = most recently used; map points into the list.
  std::list<std::string> cache_lru_;
  std::unordered_map<std::string, std::list<std::string>::iterator> cache_index_;
};

}  // namespace odserve

#endif  // SRC_SERVE_SHARED_SERVICE_H_
