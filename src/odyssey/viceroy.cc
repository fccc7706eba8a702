#include "src/odyssey/viceroy.h"

#include <algorithm>
#include <utility>

#include "src/odyssey/warden.h"
#include "src/serve/shared_service.h"
#include "src/util/check.h"
#include "src/util/logging.h"

namespace odyssey {
namespace {

// Consecutive healthy link reports (or successful fetches) before a clamp
// lifts, and consecutive admission rejects that engage the overload clamp.
constexpr int kRecoveryHysteresis = 3;
constexpr int kOverloadThreshold = 3;

}  // namespace

Viceroy::Viceroy(odsim::Simulator* sim, odnet::Link* link, odpower::PowerManager* pm)
    : sim_(sim), link_(link), pm_(pm), rpc_(sim, link, pm) {
  OD_CHECK(sim != nullptr);
  OD_CHECK(link != nullptr);
  OD_CHECK(pm != nullptr);
}

Viceroy::~Viceroy() = default;

void Viceroy::RegisterApplication(AdaptiveApplication* app) {
  OD_CHECK(app != nullptr);
  OD_CHECK(std::find(apps_.begin(), apps_.end(), app) == apps_.end());
  apps_.push_back(app);
}

void Viceroy::UnregisterApplication(AdaptiveApplication* app) {
  apps_.erase(std::remove(apps_.begin(), apps_.end(), app), apps_.end());
  std::erase_if(expectations_,
                [app](const Expectation& e) { return e.app == app; });
  clamp_.Forget(app);
  overload_clamp_.Forget(app);
}

Warden* Viceroy::RegisterWarden(std::unique_ptr<Warden> warden) {
  OD_CHECK(warden != nullptr);
  warden->owned_service_ = std::make_unique<odserve::SharedService>(
      sim_, warden->data_type() + "-server");
  odserve::SharedService* service = warden->owned_service_.get();
  return RegisterWarden(std::move(warden), service);
}

Warden* Viceroy::RegisterWarden(std::unique_ptr<Warden> warden,
                                odserve::SharedService* service) {
  OD_CHECK(warden != nullptr);
  OD_CHECK(service != nullptr);
  OD_CHECK(FindWarden(warden->data_type()) == nullptr);
  warden->viceroy_ = this;
  warden->service_ = service;
  warden->session_ = service->OpenSession(warden->data_type());
  wardens_.push_back(std::move(warden));
  return wardens_.back().get();
}

Warden* Viceroy::FindWarden(const std::string& data_type) {
  for (const auto& w : wardens_) {
    if (w->data_type() == data_type) {
      return w.get();
    }
  }
  return nullptr;
}

void Viceroy::IssueUpcall(AdaptiveApplication* app, int level) {
  OD_CHECK(app != nullptr);
  OD_CHECK(app->fidelity_spec().valid(level));
  if (app->current_fidelity() == level) {
    return;
  }
  OD_LOG_DEBUG("upcall t=%.1fs %s -> %s", sim_->Now().seconds(),
               app->name().c_str(), app->fidelity_spec().name(level).c_str());
  app->SetFidelity(level);
  ++adaptation_counts_[app];
}

int Viceroy::AdaptationCount(const AdaptiveApplication* app) const {
  auto it = adaptation_counts_.find(app);
  return it == adaptation_counts_.end() ? 0 : it->second;
}

int Viceroy::TotalAdaptations() const {
  int total = 0;
  for (const auto& [app, count] : adaptation_counts_) {
    total += count;
  }
  return total;
}


void Viceroy::RegisterExpectation(AdaptiveApplication* app, ResourceId resource,
                                  double low, double high) {
  OD_CHECK(app != nullptr);
  OD_CHECK(low <= high);
  ClearExpectation(app, resource);
  expectations_.push_back(Expectation{app, resource, low, high});
}

void Viceroy::ClearExpectation(AdaptiveApplication* app, ResourceId resource) {
  std::erase_if(expectations_, [app, resource](const Expectation& e) {
    return e.app == app && e.resource == resource;
  });
}

void Viceroy::NotifyResourceLevel(ResourceId resource, double value) {
  if (clamp_.engaged() || overload_clamp_.engaged()) {
    // A clamp owns fidelity until its authority releases it; a stream of
    // zero-bandwidth estimates must not pile extra downgrade upcalls on top
    // (or let an energy expectation raise fidelity into a dead channel or
    // a saturated server).
    return;
  }
  // Collect the violated expectations first: upcalls may re-register.
  std::vector<std::pair<AdaptiveApplication*, int>> upcalls;
  for (const Expectation& e : expectations_) {
    if (e.resource != resource) {
      continue;
    }
    if (value < e.low && !e.app->AtLowestFidelity()) {
      upcalls.emplace_back(e.app, e.app->current_fidelity() - 1);
    } else if (value > e.high && !e.app->AtHighestFidelity()) {
      upcalls.emplace_back(e.app, e.app->current_fidelity() + 1);
    }
  }
  for (auto& [app, level] : upcalls) {
    IssueUpcall(app, level);
  }
}

void Viceroy::NotifyAdmissionReject() {
  overload_ok_streak_ = 0;
  if (overload_clamp_.engaged()) {
    return;
  }
  if (++consecutive_rejects_ < kOverloadThreshold) {
    return;
  }
  consecutive_rejects_ = 0;
  OD_LOG_DEBUG("server overloaded t=%.1fs: clamping %zu apps to lowest",
               sim_->Now().seconds(), apps_.size());
  overload_clamp_.Engage();
}

void Viceroy::NotifyFetchOk() {
  consecutive_rejects_ = 0;
  if (!overload_clamp_.engaged()) {
    return;
  }
  if (++overload_ok_streak_ < kRecoveryHysteresis) {
    return;
  }
  overload_ok_streak_ = 0;
  OD_LOG_DEBUG("server recovered t=%.1fs: restoring apps", sim_->Now().seconds());
  overload_clamp_.Release();
}

void Viceroy::NotifyLinkHealth(const odnet::BandwidthEstimate& estimate) {
  if (!estimate.healthy()) {
    healthy_streak_ = 0;
    if (!clamp_.engaged()) {
      OD_LOG_DEBUG("link unhealthy t=%.1fs: clamping %zu apps to lowest",
                   sim_->Now().seconds(), apps_.size());
      clamp_.Engage();
    }
    return;
  }
  if (!clamp_.engaged()) {
    return;
  }
  if (++healthy_streak_ < kRecoveryHysteresis) {
    return;
  }
  healthy_streak_ = 0;
  OD_LOG_DEBUG("link recovered t=%.1fs: restoring apps", sim_->Now().seconds());
  clamp_.Release();
}

}  // namespace odyssey
