#include "src/odyssey/warden.h"

#include <utility>

#include "src/odyssey/viceroy.h"
#include "src/util/check.h"

namespace odyssey {

Warden::Warden(std::string data_type) : data_type_(std::move(data_type)) {}

Warden::~Warden() = default;

void Warden::Fetch(const std::string& key, size_t request_bytes,
                   size_t reply_bytes, odsim::SimDuration server_time,
                   OutcomeFn on_done) {
  OD_CHECK_MSG(viceroy_ != nullptr, "warden used before registration");
  FetchRef ref = fetches_.Acquire();
  FetchState& fetch = fetches_[ref];
  fetch.key = key;
  fetch.server_time = server_time;
  fetch.serve = odserve::ServeOutcome::kServed;
  fetch.on_done = std::move(on_done);
  viceroy_->rpc().Call(
      request_bytes, reply_bytes,
      [this, ref](odnet::RpcClient::ComputeDone done) {
        SubmitFetch(ref, done);
      },
      [this, ref](odnet::RpcStatus status) { FinishFetch(ref, status); });
}

void Warden::SubmitFetch(FetchRef ref, odnet::RpcClient::ComputeDone rpc_done) {
  // The RPC computes only while its call is unsettled, and the record is
  // released only when it settles, so the record is live here.
  FetchState& fetch = fetches_[ref];
  fetch.rpc_done = rpc_done;
  service_->SubmitKeyed(session_, fetch.key, fetch.server_time,
                        [this, ref](odserve::ServeOutcome outcome) {
                          OnServed(ref, outcome);
                        });
}

void Warden::OnServed(FetchRef ref, odserve::ServeOutcome outcome) {
  FetchState* fetch = fetches_.Find(ref);
  if (fetch == nullptr) {
    return;  // The call settled (deadline) before the service answered.
  }
  fetch->serve = outcome;
  fetch->rpc_done(outcome != odserve::ServeOutcome::kRejected);
}

void Warden::FinishFetch(FetchRef ref, odnet::RpcStatus status) {
  FetchState& fetch = fetches_[ref];
  const odserve::ServeOutcome serve = fetch.serve;
  OutcomeFn on_done = std::move(fetch.on_done);
  fetch.on_done = nullptr;
  fetches_.Release(ref);
  if (status == odnet::RpcStatus::kRejected) {
    ++rejected_fetches_;
    viceroy_->NotifyAdmissionReject();
  } else if (status != odnet::RpcStatus::kOk) {
    ++failed_fetches_;
  } else {
    if (serve == odserve::ServeOutcome::kCacheHit) {
      ++cache_hits_;
    }
    viceroy_->NotifyFetchOk();
  }
  if (on_done) {
    on_done(FetchOutcome{status, serve});
  }
}

}  // namespace odyssey
