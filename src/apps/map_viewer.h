// Adaptive map viewer (Section 3.5) — Anvil.
//
// Fetches maps from a remote server via Odyssey and displays them.  Fidelity
// is lowered by filtering (omit minor roads, then secondary roads too) and
// by cropping to a geographic subset; the client annotates each request and
// the server performs the reduction before transmission.  Viewing includes
// user think time, during which the display stays lit.

#ifndef SRC_APPS_MAP_VIEWER_H_
#define SRC_APPS_MAP_VIEWER_H_

#include <string>

#include "src/apps/calibration.h"
#include "src/apps/data_objects.h"
#include "src/apps/display_arbiter.h"
#include "src/apps/wardens.h"
#include "src/display/zoned.h"
#include "src/odyssey/application.h"
#include "src/odyssey/viceroy.h"
#include "src/util/rng.h"

namespace odapps {

// Fidelity ladder, lowest first.
enum class MapFidelity : int {
  kCroppedSecondary = 0,  // Cropped plus minor+secondary filtering.
  kCropped = 1,
  kSecondaryFilter = 2,   // Minor and secondary roads omitted.
  kMinorFilter = 3,       // Minor roads omitted.
  kFull = 4,
};

class MapViewer : public odyssey::AdaptiveApplication {
 public:
  MapViewer(odyssey::Viceroy* viceroy, DisplayArbiter* arbiter, odutil::Rng* rng,
            int priority = 2);
  ~MapViewer() override;

  // -- AdaptiveApplication ---------------------------------------------------
  const std::string& name() const override { return name_; }
  int priority() const override { return priority_; }

  // Lets experiments reorder adaptation (the priority-ablation bench); the
  // paper plans dynamic user-controlled priorities as future work.
  void set_priority(int priority) { priority_ = priority; }
  const odyssey::FidelitySpec& fidelity_spec() const override { return spec_; }
  int current_fidelity() const override { return fidelity_; }
  void SetFidelity(int level) override;

  MapFidelity map_fidelity() const { return static_cast<MapFidelity>(fidelity_); }

  // Think-time override for the sensitivity analysis (seconds).
  void set_think_seconds(double seconds) { think_seconds_ = seconds; }

  // Fetches, renders, and views one map (including think time).  If the
  // fetch fails (retries exhausted, deadline in an outage), the viewer
  // redraws the most recently fetched map — stale data beats no data for
  // navigation — and still completes.
  void ViewMap(const MapObject& map, odsim::EventFn on_done);

  bool busy() const { return busy_; }

  // Views served from the stale cached map because the fetch failed.
  int maps_degraded() const { return maps_degraded_; }

  // Transfer size for a map at a fidelity level.
  static size_t BytesAtFidelity(const MapObject& map, MapFidelity fidelity);

  // Window geometry for zoned backlighting: cropped fidelities occupy a
  // smaller screen region.
  oddisplay::Rect window() const;
  void set_zoned_controller(oddisplay::ZonedBacklightController* controller);

 private:
  void UpdateZones();

  odyssey::Viceroy* viceroy_;
  DisplayArbiter* arbiter_;
  odutil::Rng* rng_;
  std::string name_ = "Map";
  int priority_;
  odyssey::FidelitySpec spec_;
  int fidelity_;
  double think_seconds_ = kMapCal.think_seconds;
  bool busy_ = false;
  int maps_degraded_ = 0;
  size_t cached_map_bytes_ = 0;  // Last successfully fetched map.

  MapWarden* warden_;
  odsim::ProcessId anvil_pid_;
  odsim::ProcedureId render_proc_;
  odsim::ProcessId xserver_pid_;
  odsim::ProcedureId draw_proc_;
  oddisplay::ZonedBacklightController* zoned_ = nullptr;
};

}  // namespace odapps

#endif  // SRC_APPS_MAP_VIEWER_H_
