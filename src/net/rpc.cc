#include "src/net/rpc.h"

#include <algorithm>
#include <utility>

#include "src/util/check.h"

namespace odnet {
namespace {

// Retransmission backoff: each wait doubles, up to a cap, and is scaled
// by a uniform jitter factor in [1 - kRetryJitter, 1 + kRetryJitter].
constexpr double kBackoffFactor = 2.0;
constexpr odsim::SimDuration kMaxRetryTimeout = odsim::SimDuration::Seconds(16);
constexpr double kRetryJitter = 0.1;

}  // namespace

RpcClient::RpcClient(odsim::Simulator* sim, Link* link, odpower::PowerManager* pm,
                     uint64_t loss_seed)
    : sim_(sim), link_(link), pm_(pm), rng_(loss_seed) {
  OD_CHECK(sim != nullptr);
  OD_CHECK(link != nullptr);
  OD_CHECK(pm != nullptr);
}

void RpcClient::set_config(const RpcConfig& config) {
  OD_CHECK(config.loss_probability >= 0.0 && config.loss_probability < 1.0);
  OD_CHECK(config.max_retries >= 0);
  OD_CHECK(config.retry_timeout > odsim::SimDuration::Zero());
  OD_CHECK(config.retry_timeout <= kMaxRetryTimeout);
  config_ = config;
}

void RpcClient::Call(size_t request_bytes, size_t reply_bytes,
                     odsim::SimDuration server_time, odsim::EventFn on_reply) {
  CallRef ref = Begin(request_bytes, reply_bytes,
                      [this, server_time](ComputeDone done) {
                        sim_->Schedule(server_time,
                                       [done] { done(/*served=*/true); });
                      });
  calls_[ref].on_reply = std::move(on_reply);
  Attempt(ref);
}

void RpcClient::Call(size_t request_bytes, size_t reply_bytes,
                     OutcomeComputeFn compute, StatusFn on_complete) {
  CallRef ref = Begin(request_bytes, reply_bytes, std::move(compute));
  calls_[ref].on_complete = std::move(on_complete);
  Attempt(ref);
}

RpcClient::CallRef RpcClient::Begin(size_t request_bytes, size_t reply_bytes,
                                    OutcomeComputeFn compute) {
  // Hold the interface out of standby across the whole exchange: the client
  // must listen for the reply while the server computes.
  pm_->BeginNetworkUse();
  CallRef ref = calls_.Acquire();
  CallState& call = calls_[ref];
  call.request_bytes = request_bytes;
  call.reply_bytes = reply_bytes;
  call.compute = std::move(compute);
  call.attempt = 1;
  call.retry_timer = odsim::EventHandle();
  call.deadline_timer = odsim::EventHandle();
  if (config_.deadline > odsim::SimDuration::Zero()) {
    call.deadline_timer = sim_->Schedule(config_.deadline, [this, ref] {
      if (calls_.Find(ref) == nullptr) {
        return;
      }
      ++deadlines_exceeded_;
      Settle(ref, RpcStatus::kDeadlineExceeded);
    });
  }
  return ref;
}

void RpcClient::Settle(CallRef ref, RpcStatus status) {
  CallState& call = calls_[ref];
  call.deadline_timer.Cancel();
  call.retry_timer.Cancel();
  // Settle runs only from an event (a transfer completion or a timer),
  // never from inside the call's compute, so dropping it here cannot
  // destroy a running closure.
  call.compute = nullptr;
  StatusFn done = std::move(call.on_complete);
  odsim::EventFn reply = std::move(call.on_reply);
  call.on_complete = nullptr;
  call.on_reply = nullptr;
  calls_.Release(ref);
  pm_->EndNetworkUse();
  if (done) {
    done(status);
  }
  if (reply) {
    reply();
  }
}

odsim::SimDuration RpcClient::BackoffDelay(int retry_index) {
  // retry_index is 0-based: the first retransmission waits retry_timeout.
  double scale = 1.0;
  for (int i = 0; i < retry_index; ++i) {
    scale *= kBackoffFactor;
  }
  odsim::SimDuration base =
      std::min(config_.retry_timeout * scale, kMaxRetryTimeout);
  return base * rng_.Uniform(1.0 - kRetryJitter, 1.0 + kRetryJitter);
}

void RpcClient::Attempt(CallRef ref) {
  CallState& call = calls_[ref];
  call.request_lost = rng_.Bernoulli(config_.loss_probability);
  link_->Transfer(Direction::kSend, call.request_bytes,
                  [this, ref] { OnRequestSent(ref); });
}

void RpcClient::OnRequestSent(CallRef ref) {
  CallState* call = calls_.Find(ref);
  if (call == nullptr) {
    return;  // Deadline fired while the request sat in the queue.
  }
  if (call->request_lost) {
    // The server never saw the request; the client times out.
    ++request_losses_;
    Retry(ref);
    return;
  }
  call->compute(ComputeDone(this, ref));
}

void RpcClient::OnComputed(CallRef ref, bool served) {
  CallState* call = calls_.Find(ref);
  if (call == nullptr) {
    return;
  }
  if (!served) {
    // Admission reject: the server answers with a small typed refusal.
    // Not retried — the refusal is deliberate, and the reject reply
    // shares the loss-free fate of being short (the client treats a lost
    // refusal as the refusal it is only after its deadline; modeling that
    // adds nothing here).
    ++rejected_;
    link_->Transfer(Direction::kReceive, kRejectReplyBytes, [this, ref] {
      if (calls_.Find(ref) == nullptr) {
        return;
      }
      Settle(ref, RpcStatus::kRejected);
    });
    return;
  }
  call->reply_lost = rng_.Bernoulli(config_.loss_probability);
  link_->Transfer(Direction::kReceive, call->reply_bytes,
                  [this, ref] { OnReplyReceived(ref); });
}

void RpcClient::OnReplyReceived(CallRef ref) {
  CallState* call = calls_.Find(ref);
  if (call == nullptr) {
    return;
  }
  if (call->reply_lost) {
    ++reply_losses_;
    Retry(ref);
    return;
  }
  Settle(ref, RpcStatus::kOk);
}

void RpcClient::Retry(CallRef ref) {
  // Shared by the request-lost and reply-lost paths.  The timer re-checks
  // the handle: the deadline may fire before the backoff ends.
  CallState& call = calls_[ref];
  if (call.attempt > config_.max_retries) {
    ++retries_exhausted_;
    Settle(ref, RpcStatus::kRetriesExhausted);
    return;
  }
  ++retransmissions_;
  odsim::SimDuration delay = BackoffDelay(call.attempt - 1);
  call.retry_timer = sim_->Schedule(delay, [this, ref] {
    CallState* live = calls_.Find(ref);
    if (live == nullptr) {
      return;
    }
    ++live->attempt;
    Attempt(ref);
  });
}

}  // namespace odnet
