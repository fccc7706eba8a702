#include "src/odyssey/server.h"

#include <utility>

#include "src/util/check.h"

namespace odyssey {

RemoteServer::RemoteServer(odsim::Simulator* sim, std::string name,
                           double speed_factor) {
  OD_CHECK(sim != nullptr);
  OD_CHECK(speed_factor > 0.0);
  odserve::ServiceConfig config;
  config.speed_factor = speed_factor;
  owned_ = std::make_unique<odserve::SharedService>(sim, std::move(name), config);
  service_ = owned_.get();
  session_ = service_->OpenSession("client");
}

RemoteServer::RemoteServer(odserve::SharedService* service)
    : service_(service) {
  OD_CHECK(service != nullptr);
  session_ = service_->OpenSession("client");
}

void RemoteServer::Submit(odsim::SimDuration work, odsim::EventFn on_done) {
  service_->Submit(session_, work, std::move(on_done));
}

void RemoteServer::SubmitKeyed(const std::string& key, odsim::SimDuration work,
                               odserve::SharedService::ServeFn on_done) {
  service_->SubmitKeyed(session_, key, work, std::move(on_done));
}

void RemoteServer::SetStalled(bool stalled) { service_->SetStalled(stalled); }

}  // namespace odyssey
