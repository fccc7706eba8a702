#include "src/odyssey/warden.h"

#include <utility>

#include "src/odyssey/viceroy.h"
#include "src/util/check.h"

namespace odyssey {

Warden::Warden(std::string data_type) : data_type_(std::move(data_type)) {}

Warden::~Warden() = default;

void Warden::Fetch(size_t request_bytes, size_t reply_bytes,
                   odsim::SimDuration server_time, odsim::EventFn on_done) {
  FetchWithStatus(request_bytes, reply_bytes, server_time,
                  [on_done = std::move(on_done)](odnet::RpcStatus) {
                    if (on_done) {
                      on_done();
                    }
                  });
}

void Warden::FetchKeyed(const std::string& key, size_t request_bytes,
                        size_t reply_bytes, odsim::SimDuration server_time,
                        OutcomeFn on_done) {
  OD_CHECK_MSG(viceroy_ != nullptr, "warden used before registration");
  FetchRef ref = fetches_.Acquire();
  FetchState& fetch = fetches_[ref];
  fetch.key = key;
  fetch.server_time = server_time;
  fetch.serve = odserve::ServeOutcome::kServed;
  fetch.on_done = std::move(on_done);
  viceroy_->rpc().CallWithOutcome(
      request_bytes, reply_bytes,
      [this, ref](std::function<void(bool)> done) {
        SubmitFetch(ref, std::move(done));
      },
      [this, ref](odnet::RpcStatus status) { FinishFetch(ref, status); });
}

void Warden::SubmitFetch(FetchRef ref, std::function<void(bool)> rpc_done) {
  // The RPC computes only while its call is unsettled, and the record is
  // released only when it settles, so the record is live here.
  FetchState& fetch = fetches_[ref];
  fetch.rpc_done = std::move(rpc_done);
  server_->SubmitKeyed(fetch.key, fetch.server_time,
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
  std::function<void(bool)> rpc_done = std::move(fetch->rpc_done);
  fetch->rpc_done = nullptr;
  rpc_done(outcome != odserve::ServeOutcome::kRejected);
}

void Warden::FinishFetch(FetchRef ref, odnet::RpcStatus status) {
  FetchState& fetch = fetches_[ref];
  const odserve::ServeOutcome serve = fetch.serve;
  OutcomeFn on_done = std::move(fetch.on_done);
  fetch.on_done = nullptr;
  fetch.rpc_done = nullptr;
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

void Warden::FetchWithStatus(size_t request_bytes, size_t reply_bytes,
                             odsim::SimDuration server_time,
                             odnet::RpcClient::StatusFn on_done) {
  OD_CHECK_MSG(viceroy_ != nullptr, "warden used before registration");
  RemoteServer* server = server_.get();
  viceroy_->rpc().CallWithStatus(
      request_bytes, reply_bytes,
      [server, server_time](odsim::EventFn done) {
        server->Submit(server_time, std::move(done));
      },
      [this, on_done = std::move(on_done)](odnet::RpcStatus status) {
        if (status != odnet::RpcStatus::kOk) {
          ++failed_fetches_;
        }
        if (on_done) {
          on_done(status);
        }
      });
}

}  // namespace odyssey
