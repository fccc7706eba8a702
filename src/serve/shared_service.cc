#include "src/serve/shared_service.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/util/check.h"

namespace odserve {

SharedService::SharedService(odsim::Simulator* sim, std::string name,
                             ServiceConfig config)
    : sim_(sim), name_(std::move(name)), config_(config) {
  OD_CHECK(sim != nullptr);
  OD_CHECK(config.speed_factor > 0.0);
  OD_CHECK(config.max_queue >= 0);
}

int SharedService::OpenSession(std::string /*client_name*/) {
  return session_count_++;
}

void SharedService::SubmitKeyed(int session, const std::string& key,
                                odsim::SimDuration work, ServeFn on_done) {
  OD_CHECK(work >= odsim::SimDuration::Zero());
  OD_CHECK(session >= 0 && session < session_count_);
  // Cache first: distilled content that already exists is served without
  // touching the compute queue (and regardless of a stalled distiller).
  if (config_.cache_capacity > 0 && CacheLookup(key)) {
    ++cache_hits_;
    ++completed_;
    if (on_done) {
      on_done(ServeOutcome::kCacheHit);
    }
    return;
  }
  // Batch: identical work already queued or in service absorbs this
  // request; one unit of compute completes every waiter.
  if (config_.batch_same_key) {
    if (Request* target = FindBatchTarget(key)) {
      ++batch_joins_;
      target->joined.push_back(Waiter{sim_->Now(), std::move(on_done)});
      return;
    }
  }
  // Admission: a full queue refuses new compute outright.
  if (config_.max_queue > 0 && queue_depth() >= config_.max_queue) {
    ++rejected_;
    if (on_done) {
      on_done(ServeOutcome::kRejected);
    }
    return;
  }
  Request request;
  request.work = work * (1.0 / config_.speed_factor);
  request.submitted = sim_->Now();
  request.key = key;
  request.on_done = std::move(on_done);
  if (config_.batch_same_key) {
    bool inserted =
        queued_by_key_.emplace(key, dequeued_ + queue_.size()).second;
    OD_CHECK(inserted);
  }
  queue_.push_back(std::move(request));
  if (!busy_) {
    StartNext();
  }
}

void SharedService::Submit(int session, odsim::SimDuration work,
                           odsim::EventFn on_done) {
  // No reject channel, and a completion that cannot tell a cache hit from
  // compute: only a service that never rejects, batches or caches.
  OD_CHECK_MSG(config_.max_queue == 0,
               "outcome-blind Submit on a service with admission control");
  OD_CHECK_MSG(!config_.batch_same_key,
               "outcome-blind Submit on a batching service");
  OD_CHECK_MSG(config_.cache_capacity == 0,
               "outcome-blind Submit on a caching service");
  SubmitKeyed(session, std::string(), work,
              [on_done = std::move(on_done)](ServeOutcome) {
                if (on_done) {
                  on_done();
                }
              });
}

void SharedService::SetStalled(bool stalled) {
  if (stalled_ == stalled) {
    return;
  }
  stalled_ = stalled;
  if (!stalled_ && !busy_) {
    StartNext();  // Drain, in submission order, whatever queued while wedged.
  }
}

SharedService::Request* SharedService::FindBatchTarget(const std::string& key) {
  if (in_service_joinable_ && in_service_.key == key) {
    return &in_service_;
  }
  auto it = queued_by_key_.find(key);
  return it == queued_by_key_.end() ? nullptr
                                    : &queue_[it->second - dequeued_];
}

void SharedService::StartNext() {
  if (queue_.empty() || stalled_) {
    busy_ = false;
    return;
  }
  busy_ = true;
  in_service_ = queue_.pop_front();
  ++dequeued_;
  if (config_.batch_same_key) {
    queued_by_key_.erase(in_service_.key);
  }
  in_service_joinable_ = true;
  total_busy_seconds_ += in_service_.work.seconds();
  RecordWait(in_service_.submitted, sim_->Now());
  sim_->Schedule(in_service_.work, [this] {
    // Claim the finished request before completions run: a completion
    // callback may submit new work (or try to join a batch), and it must
    // not attach to a request that has already been served.  busy_ stays
    // true until the trailing StartNext so a resubmitting callback queues
    // behind the dequeue loop instead of starting service mid-event.
    Request done = std::move(in_service_);
    in_service_joinable_ = false;
    ++completed_;
    if (config_.cache_capacity > 0) {
      CacheInsert(done.key);
    }
    odsim::SimTime now = sim_->Now();
    for (const Waiter& waiter : done.joined) {
      RecordWait(waiter.submitted, now);
      ++completed_;
    }
    if (done.on_done) {
      done.on_done(ServeOutcome::kServed);
    }
    for (Waiter& waiter : done.joined) {
      if (waiter.on_done) {
        waiter.on_done(ServeOutcome::kServed);
      }
    }
    StartNext();
  });
}

bool SharedService::CacheLookup(const std::string& key) {
  auto it = cache_index_.find(key);
  if (it == cache_index_.end()) {
    return false;
  }
  cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
  return true;
}

void SharedService::CacheInsert(const std::string& key) {
  auto it = cache_index_.find(key);
  if (it != cache_index_.end()) {
    // Re-distilled content (e.g. a retransmitted request recomputed before
    // the first insert): refresh recency only.
    cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
    return;
  }
  cache_lru_.push_front(key);
  cache_index_[key] = cache_lru_.begin();
  if (cache_index_.size() > config_.cache_capacity) {
    cache_index_.erase(cache_lru_.back());
    cache_lru_.pop_back();
    ++cache_evictions_;
  }
}

void SharedService::RecordWait(odsim::SimTime submitted, odsim::SimTime started) {
  const double wait = (started - submitted).seconds();
  waits_.push_back(wait);
  wait_sum_ += wait;
}

double SharedService::MeanWaitSeconds() const {
  if (waits_.empty()) {
    return 0.0;
  }
  return wait_sum_ / static_cast<double>(waits_.size());
}

double SharedService::WaitPercentileSeconds(double p) const {
  OD_CHECK(p >= 0.0 && p <= 100.0);
  if (waits_.empty()) {
    return 0.0;
  }
  // Nearest-rank: the smallest value with at least p% of mass at or below.
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(waits_.size())));
  if (rank > 0) {
    --rank;
  }
  rank = std::min(rank, waits_.size() - 1);
  // Only the element at `rank` needs its sorted position, and nothing
  // else reads the log's order.
  auto nth = waits_.begin() + static_cast<std::ptrdiff_t>(rank);
  std::nth_element(waits_.begin(), nth, waits_.end());
  return *nth;
}

}  // namespace odserve
