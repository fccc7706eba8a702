// Adaptive Web browser (Section 3.6) — unmodified Netscape plus a client
// proxy that interacts with Odyssey, and a distillation server that
// transcodes images to lower fidelity with lossy JPEG compression.
//
// Fidelity levels follow the paper's sweep: original GIF, then JPEG quality
// 75, 50, 25, 5.  Control of fidelity is at the client: the proxy annotates
// each request with the desired level.

#ifndef SRC_APPS_WEB_BROWSER_H_
#define SRC_APPS_WEB_BROWSER_H_

#include <string>

#include "src/apps/calibration.h"
#include "src/apps/data_objects.h"
#include "src/apps/display_arbiter.h"
#include "src/apps/wardens.h"
#include "src/odyssey/application.h"
#include "src/odyssey/viceroy.h"
#include "src/util/rng.h"

namespace odapps {

// Fidelity ladder, lowest first.
enum class WebFidelity : int {
  kJpeg5 = 0,
  kJpeg25 = 1,
  kJpeg50 = 2,
  kJpeg75 = 3,
  kOriginal = 4,
};

class WebBrowser : public odyssey::AdaptiveApplication {
 public:
  WebBrowser(odyssey::Viceroy* viceroy, DisplayArbiter* arbiter, odutil::Rng* rng,
             int priority = 3);
  ~WebBrowser() override;

  // -- AdaptiveApplication ---------------------------------------------------
  const std::string& name() const override { return name_; }
  int priority() const override { return priority_; }

  // Lets experiments reorder adaptation (the priority-ablation bench); the
  // paper plans dynamic user-controlled priorities as future work.
  void set_priority(int priority) { priority_ = priority; }
  const odyssey::FidelitySpec& fidelity_spec() const override { return spec_; }
  int current_fidelity() const override { return fidelity_; }
  void SetFidelity(int level) override;

  WebFidelity web_fidelity() const { return static_cast<WebFidelity>(fidelity_); }

  void set_think_seconds(double seconds) { think_seconds_ = seconds; }

  // Fetches and displays one page (an image plus HTML), then think time.
  // If the image fetch fails (retries exhausted, deadline in an outage),
  // the browser degrades to a text-only layout rather than stall: the page
  // still completes and think time still elapses.
  void BrowsePage(const WebImage& image, odsim::EventFn on_done);

  bool busy() const { return busy_; }

  // Pages that rendered without their image because the fetch failed.
  int pages_degraded() const { return pages_degraded_; }

  // Distilled size of an image at a fidelity level.
  static size_t BytesAtFidelity(const WebImage& image, WebFidelity fidelity);

 private:
  odyssey::Viceroy* viceroy_;
  DisplayArbiter* arbiter_;
  odutil::Rng* rng_;
  std::string name_ = "Web";
  int priority_;
  odyssey::FidelitySpec spec_;
  int fidelity_;
  double think_seconds_ = kWebCal.think_seconds;
  bool busy_ = false;
  int pages_degraded_ = 0;

  WebWarden* warden_;
  odsim::ProcessId netscape_pid_;
  odsim::ProcedureId layout_proc_;
  odsim::ProcessId proxy_pid_;
  odsim::ProcedureId proxy_proc_;
  odsim::ProcessId xserver_pid_;
  odsim::ProcedureId draw_proc_;
};

}  // namespace odapps

#endif  // SRC_APPS_WEB_BROWSER_H_
