// Remote procedure calls over the WaveLAN link.
//
// A call transmits the request, waits for the remote server to compute (the
// client CPU is idle but the interface stays awake listening), then receives
// the reply.  This is the communication pattern of Odyssey's wardens and of
// remote/hybrid speech recognition.
//
// Failure injection: wireless links lose packets.  With a nonzero loss
// probability each message (request or reply) can be lost; the client times
// out and retransmits, paying the full energy cost of every attempt.
// Retransmission backs off exponentially with seeded jitter (a fixed retry
// period synchronizes badly with bursty loss), the attempt count is capped,
// and an optional per-call deadline bounds the worst case even when the
// channel is in full outage and transfers never complete.  Every call
// settles exactly once with a typed RpcStatus saying why it ended.

#ifndef SRC_NET_RPC_H_
#define SRC_NET_RPC_H_

#include <cstddef>
#include <cstdint>
#include <functional>

#include "src/net/link.h"
#include "src/power/power_manager.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "src/util/slot_pool.h"

namespace odnet {

// Why a call finished.  kOk is a received reply; the failures are typed so
// wardens can degrade deliberately (serve a cached object, shed the fetch)
// instead of treating every completion alike.
enum class RpcStatus {
  kOk,
  kRetriesExhausted,   // max_retries spent without a reply.
  kDeadlineExceeded,   // Per-call deadline elapsed (e.g. link outage).
  kRejected,           // Server admission control refused the request.
};

struct RpcConfig {
  // Probability that any one message (request or reply) is lost.
  double loss_probability = 0.0;
  // Backoff before the first retransmission, at most 16 s; attempt k waits
  // min(retry_timeout * 2^(k-1), 16 s), scaled by a jitter factor drawn
  // uniformly from [0.9, 1.1] out of the client's seeded stream.
  odsim::SimDuration retry_timeout = odsim::SimDuration::Seconds(2);
  // Retransmissions before the client gives up (kRetriesExhausted); the
  // original transmission is not a retry, so a call costs at most
  // max_retries + 1 attempts.
  int max_retries = 7;
  // Per-call wall-clock budget measured from call start; Zero() disables.
  // The deadline fires even when a transfer is wedged in an outage queue —
  // it is the liveness bound that keeps wardens from waiting forever.
  odsim::SimDuration deadline = odsim::SimDuration::Zero();
};

class RpcClient {
 private:
  struct CallState;
  using CallRef = odutil::SlotPool<CallState>::Handle;

 public:
  // Completes a compute with `served`: true for content produced (the full
  // reply follows), false for an admission reject (the server answered
  // with a small typed refusal instead of computing).  `{client, call}`:
  // 16 trivially copyable bytes, so a std::function, or a closure that
  // captures one, holds it without allocating.  Inert once the call has
  // settled.
  class ComputeDone {
   public:
    ComputeDone() = default;
    void operator()(bool served) const { client_->OnComputed(ref_, served); }

   private:
    friend class RpcClient;
    ComputeDone(RpcClient* client, CallRef ref) : client_(client), ref_(ref) {}

    RpcClient* client_ = nullptr;
    CallRef ref_;
  };

  RpcClient(odsim::Simulator* sim, Link* link, odpower::PowerManager* pm,
            uint64_t loss_seed = 0x59c0ffeeULL);

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  // The server-side computation between request and reply, invoked once
  // the request has arrived (again on every retransmitted request that
  // arrives).  It completes through its ComputeDone.
  using OutcomeComputeFn = std::function<void(ComputeDone done)>;

  // Completion with the call's typed outcome.
  using StatusFn = std::function<void(RpcStatus status)>;

  // Issues a request/response exchange whose server-side work is `compute`
  // (e.g. a submit to a queued odserve::SharedService).  `on_complete`
  // fires once, when the reply has been received or the call gave up.  A
  // reject transmits a `kRejectReplyBytes` refusal back to the client and
  // settles the call with RpcStatus::kRejected immediately — no
  // retransmission: the server deliberately refused, and retrying into an
  // overloaded queue only deepens it.  Backpressure belongs to the caller
  // (the viceroy's overload clamp), not the transport.
  void Call(size_t request_bytes, size_t reply_bytes, OutcomeComputeFn compute,
            StatusFn on_complete);

  // Call with a fixed server processing time that never refuses, and a
  // completion that ignores the outcome.
  void Call(size_t request_bytes, size_t reply_bytes, odsim::SimDuration server_time,
            odsim::EventFn on_reply);

  // Size of the refusal message an admission reject sends back.
  static constexpr size_t kRejectReplyBytes = 64;

  void set_config(const RpcConfig& config);
  const RpcConfig& config() const { return config_; }

  // -- Diagnostics and test hooks --------------------------------------------

  // Total retransmitted messages so far.
  int retransmissions() const { return retransmissions_; }
  // Loss accounting, split by which half of the exchange the channel ate.
  int request_losses() const { return request_losses_; }
  int reply_losses() const { return reply_losses_; }
  // Calls that ended without a reply, by failure type.
  int retries_exhausted() const { return retries_exhausted_; }
  int deadlines_exceeded() const { return deadlines_exceeded_; }
  // Calls the server refused at admission.
  int rejected() const { return rejected_; }

 private:
  // One call's state, pooled per client.  Every continuation of the call —
  // request sent, compute done, reply or refusal received, retry and
  // deadline timers — captures only `{this, CallRef}`, so a call allocates
  // nothing once the pool has grown to the client's peak concurrency.
  // Settle releases the record, so late continuations (a transfer that
  // finally drains after an outage, a reply racing the deadline) see a
  // stale handle and do nothing.
  struct CallState {
    size_t request_bytes = 0;
    size_t reply_bytes = 0;
    OutcomeComputeFn compute;
    // The completion: `on_complete` for a compute call, `on_reply` for a
    // fixed-time one (held here rather than wrapped in a StatusFn, whose
    // inline buffer it would not fit).
    StatusFn on_complete;
    odsim::EventFn on_reply;
    int attempt = 1;  // 1-based; attempt - 1 retries have been spent.
    // The current attempt's loss draws, made when each message is sent.
    bool request_lost = false;
    bool reply_lost = false;
    odsim::EventHandle deadline_timer;
    odsim::EventHandle retry_timer;
  };

  // Opens a call's record and arms its deadline; Attempt then sends it.
  CallRef Begin(size_t request_bytes, size_t reply_bytes,
                OutcomeComputeFn compute);
  void Attempt(CallRef ref);
  void OnRequestSent(CallRef ref);
  void OnComputed(CallRef ref, bool served);
  void OnReplyReceived(CallRef ref);
  void Retry(CallRef ref);
  void Settle(CallRef ref, RpcStatus status);
  odsim::SimDuration BackoffDelay(int retry_index);

  odsim::Simulator* sim_;
  Link* link_;
  odpower::PowerManager* pm_;
  RpcConfig config_;
  odutil::Rng rng_;
  odutil::SlotPool<CallState> calls_;
  int retransmissions_ = 0;
  int request_losses_ = 0;
  int reply_losses_ = 0;
  int retries_exhausted_ = 0;
  int deadlines_exceeded_ = 0;
  int rejected_ = 0;
};

}  // namespace odnet

#endif  // SRC_NET_RPC_H_
