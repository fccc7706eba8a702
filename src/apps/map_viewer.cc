#include "src/apps/map_viewer.h"

#include <memory>
#include <utility>

#include "src/util/check.h"

namespace odapps {

MapViewer::MapViewer(odyssey::Viceroy* viceroy, DisplayArbiter* arbiter,
                     odutil::Rng* rng, int priority)
    : viceroy_(viceroy),
      arbiter_(arbiter),
      rng_(rng),
      priority_(priority),
      spec_({"Cropped + secondary filter", "Cropped", "Secondary road filter",
             "Minor road filter", "Full"}),
      fidelity_(spec_.highest()) {
  OD_CHECK(viceroy != nullptr);
  OD_CHECK(arbiter != nullptr);
  OD_CHECK(rng != nullptr);
  odsim::Simulator* sim = viceroy_->sim();
  warden_ = static_cast<MapWarden*>(viceroy_->FindWarden("map"));
  if (warden_ == nullptr) {
    warden_ = static_cast<MapWarden*>(
        viceroy_->RegisterWarden(std::make_unique<MapWarden>(sim)));
  }
  anvil_pid_ = sim->processes().RegisterProcess("Anvil");
  render_proc_ = sim->processes().RegisterProcedure("_BuildMapLayers");
  xserver_pid_ = sim->processes().RegisterProcess("X Server");
  draw_proc_ = sim->processes().RegisterProcedure("_XDrawSegments");
  viceroy_->RegisterApplication(this);
}

MapViewer::~MapViewer() { viceroy_->UnregisterApplication(this); }

void MapViewer::SetFidelity(int level) {
  OD_CHECK(spec_.valid(level));
  fidelity_ = level;
  UpdateZones();
}

size_t MapViewer::BytesAtFidelity(const MapObject& map, MapFidelity fidelity) {
  switch (fidelity) {
    case MapFidelity::kCroppedSecondary:
      return map.cropped_secondary_bytes;
    case MapFidelity::kCropped:
      return map.cropped_bytes;
    case MapFidelity::kSecondaryFilter:
      return map.secondary_filter_bytes;
    case MapFidelity::kMinorFilter:
      return map.minor_filter_bytes;
    case MapFidelity::kFull:
      return map.full_bytes;
  }
  OD_CHECK(false);
  return 0;
}

oddisplay::Rect MapViewer::window() const {
  bool cropped = map_fidelity() == MapFidelity::kCropped ||
                 map_fidelity() == MapFidelity::kCroppedSecondary;
  return cropped ? MapWindowCropped() : MapWindowFull();
}

void MapViewer::set_zoned_controller(
    oddisplay::ZonedBacklightController* controller) {
  zoned_ = controller;
  UpdateZones();
}

void MapViewer::UpdateZones() {
  if (zoned_ != nullptr) {
    zoned_->SetWindows({window()});
  }
}

void MapViewer::ViewMap(const MapObject& map, odsim::EventFn on_done) {
  OD_CHECK(!busy_);
  busy_ = true;
  arbiter_->Acquire();
  UpdateZones();

  size_t bytes = BytesAtFidelity(map, map_fidelity());
  double server = kMapCal.server_seconds * rng_->Uniform(0.85, 1.15);
  odsim::Simulator* sim = viceroy_->sim();

  warden_->Fetch(
      "", kMapCal.request_bytes, bytes, odsim::SimDuration::Seconds(server),
      [this, bytes, sim, on_done = std::move(on_done)](
          const odyssey::Warden::FetchOutcome& outcome) mutable {
        size_t rendered_bytes = bytes;
        if (outcome.status != odnet::RpcStatus::kOk) {
          // Fetch failed: redraw the cached map (possibly nothing, early in
          // a session) rather than wait on a dead channel.
          ++maps_degraded_;
          rendered_bytes = cached_map_bytes_;
        } else {
          cached_map_bytes_ = bytes;
        }
        // Render: Anvil builds the layers, the X server draws them; both
        // costs scale with the amount of map data.
        double mb = static_cast<double>(rendered_bytes) / 1.0e6;
        double render = kMapCal.render_cpu_seconds_per_mb * mb *
                        rng_->Uniform(0.97, 1.03);
        odsim::EventFn finish = [this, sim,
                                 on_done = std::move(on_done)]() mutable {
          // User think time: the map stays visible.
          double think = think_seconds_;
          if (think <= 0.0) {
            arbiter_->Release();
            busy_ = false;
            if (on_done) {
              on_done();
            }
            return;
          }
          sim->Schedule(odsim::SimDuration::Seconds(think),
                        [this, on_done = std::move(on_done)]() mutable {
                          arbiter_->Release();
                          busy_ = false;
                          if (on_done) {
                            on_done();
                          }
                        });
        };
        if (rendered_bytes == 0) {
          // A failed fetch before anything was cached: there is nothing to
          // render, and zero-duration CPU work is not submittable.
          finish();
          return;
        }
        sim->SubmitWork(
            anvil_pid_, render_proc_, odsim::SimDuration::Seconds(render * 0.6),
            [this, sim, render, finish = std::move(finish)]() mutable {
              sim->SubmitWork(xserver_pid_, draw_proc_,
                              odsim::SimDuration::Seconds(render * 0.4),
                              std::move(finish));
            });
      });
}

}  // namespace odapps
