#include "src/apps/web_browser.h"

#include <memory>
#include <utility>

#include "src/util/check.h"

namespace odapps {

WebBrowser::WebBrowser(odyssey::Viceroy* viceroy, DisplayArbiter* arbiter,
                       odutil::Rng* rng, int priority)
    : viceroy_(viceroy),
      arbiter_(arbiter),
      rng_(rng),
      priority_(priority),
      spec_({"JPEG-5", "JPEG-25", "JPEG-50", "JPEG-75", "Original"}),
      fidelity_(spec_.highest()) {
  OD_CHECK(viceroy != nullptr);
  OD_CHECK(arbiter != nullptr);
  OD_CHECK(rng != nullptr);
  odsim::Simulator* sim = viceroy_->sim();
  warden_ = static_cast<WebWarden*>(viceroy_->FindWarden("web"));
  if (warden_ == nullptr) {
    warden_ = static_cast<WebWarden*>(
        viceroy_->RegisterWarden(std::make_unique<WebWarden>(sim)));
  }
  netscape_pid_ = sim->processes().RegisterProcess("Netscape");
  layout_proc_ = sim->processes().RegisterProcedure("_LayoutDocument");
  proxy_pid_ = sim->processes().RegisterProcess("Proxy");
  proxy_proc_ = sim->processes().RegisterProcedure("_ProxyRelay");
  xserver_pid_ = sim->processes().RegisterProcess("X Server");
  draw_proc_ = sim->processes().RegisterProcedure("_XPutImage");
  viceroy_->RegisterApplication(this);
}

WebBrowser::~WebBrowser() { viceroy_->UnregisterApplication(this); }

void WebBrowser::SetFidelity(int level) {
  OD_CHECK(spec_.valid(level));
  fidelity_ = level;
}

size_t WebBrowser::BytesAtFidelity(const WebImage& image, WebFidelity fidelity) {
  auto scaled = [&](double scale) {
    return static_cast<size_t>(static_cast<double>(image.gif_bytes) * scale);
  };
  switch (fidelity) {
    case WebFidelity::kJpeg5:
      return scaled(kWebCal.jpeg5_scale);
    case WebFidelity::kJpeg25:
      return scaled(kWebCal.jpeg25_scale);
    case WebFidelity::kJpeg50:
      return scaled(kWebCal.jpeg50_scale);
    case WebFidelity::kJpeg75:
      return scaled(kWebCal.jpeg75_scale);
    case WebFidelity::kOriginal:
      return image.gif_bytes;
  }
  OD_CHECK(false);
  return 0;
}

void WebBrowser::BrowsePage(const WebImage& image, odsim::EventFn on_done) {
  OD_CHECK(!busy_);
  busy_ = true;
  arbiter_->Acquire();

  size_t bytes = kWebCal.html_bytes + BytesAtFidelity(image, web_fidelity());
  // The distillation server only transcodes when fidelity is lowered.
  double distill = 0.0;
  if (web_fidelity() != WebFidelity::kOriginal) {
    double mb = static_cast<double>(image.gif_bytes) / 1.0e6;
    distill = kWebCal.distill_seconds_per_mb * mb * rng_->Uniform(0.85, 1.15);
  }
  odsim::Simulator* sim = viceroy_->sim();

  warden_->Fetch(
      "", kWebCal.request_bytes, bytes, odsim::SimDuration::Seconds(distill),
      [this, bytes, sim, on_done = std::move(on_done)](
          const odyssey::Warden::FetchOutcome& outcome) mutable {
        size_t rendered_bytes = bytes;
        if (outcome.status != odnet::RpcStatus::kOk) {
          // The image never arrived; lay out the text-only page so the
          // browsing loop keeps moving instead of wedging on a dead link.
          ++pages_degraded_;
          rendered_bytes = kWebCal.html_bytes;
        }
        double mb = static_cast<double>(rendered_bytes) / 1.0e6;
        double render =
            kWebCal.render_cpu_seconds_per_mb * mb * rng_->Uniform(0.97, 1.03);
        // The proxy relays, Netscape lays out, the X server paints.
        sim->SubmitWork(
            proxy_pid_, proxy_proc_, odsim::SimDuration::Seconds(render * 0.2),
            [this, sim, render, on_done = std::move(on_done)]() mutable {
              sim->SubmitWork(
                  netscape_pid_, layout_proc_,
                  odsim::SimDuration::Seconds(render * 0.5),
                  [this, sim, render, on_done = std::move(on_done)]() mutable {
                    sim->SubmitWork(
                        xserver_pid_, draw_proc_,
                        odsim::SimDuration::Seconds(render * 0.3),
                        [this, sim, on_done = std::move(on_done)]() mutable {
                          double think = think_seconds_;
                          auto finish = [this, on_done =
                                                   std::move(on_done)]() mutable {
                            arbiter_->Release();
                            busy_ = false;
                            if (on_done) {
                              on_done();
                            }
                          };
                          if (think <= 0.0) {
                            finish();
                            return;
                          }
                          sim->Schedule(odsim::SimDuration::Seconds(think),
                                        std::move(finish));
                        });
                  });
            });
      });
}

}  // namespace odapps
