#include "src/display/zoned.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/util/check.h"

namespace oddisplay {

ZoneLayout::ZoneLayout(int cols, int rows) : cols_(cols), rows_(rows) {
  OD_CHECK(cols >= 1);
  OD_CHECK(rows >= 1);
}

Rect ZoneLayout::ZoneRect(int index) const {
  OD_CHECK(index >= 0 && index < zone_count());
  int col = index % cols_;
  int row = index / cols_;
  double w = 1.0 / cols_;
  double h = 1.0 / rows_;
  return Rect{col * w, row * h, w, h};
}

int ZoneLayout::LitZoneCount(const std::vector<Rect>& windows) const {
  int lit = 0;
  for (int i = 0; i < zone_count(); ++i) {
    Rect zone = ZoneRect(i);
    for (const Rect& window : windows) {
      if (!window.empty() && zone.Intersects(window)) {
        ++lit;
        break;
      }
    }
  }
  return lit;
}

double ZoneLayout::LitFraction(const std::vector<Rect>& windows) const {
  return static_cast<double>(LitZoneCount(windows)) /
         static_cast<double>(zone_count());
}

Rect SnapToZones(const Rect& window, const ZoneLayout& layout) {
  Rect snapped = window;
  snapped.w = std::min(snapped.w, 1.0);
  snapped.h = std::min(snapped.h, 1.0);

  auto snap_axis = [](double size, double pos, int cells) {
    double cell = 1.0 / cells;
    // Zones the window must span given its size; align its start to the
    // zone boundary that keeps it inside the screen and minimizes overlap.
    int needed = static_cast<int>(std::ceil(size / cell - 1e-9));
    double lo = 0.0;
    double best = pos;
    double best_distance = 2.0;
    for (int start = 0; start + needed <= cells; ++start) {
      lo = start * cell;
      double hi = (start + needed) * cell - size;
      double candidate = std::clamp(pos, lo, hi);
      double distance = std::abs(candidate - pos);
      if (distance < best_distance) {
        best_distance = distance;
        best = candidate;
      }
    }
    return best;
  };

  snapped.x = snap_axis(snapped.w, snapped.x, layout.cols_);
  snapped.y = snap_axis(snapped.h, snapped.y, layout.rows_);
  return snapped;
}

ZonedBacklightController::ZonedBacklightController(odpower::Display* display,
                                                   const ZoneLayout& layout)
    : display_(display), layout_(layout) {
  OD_CHECK(display != nullptr);
}

void ZonedBacklightController::SetWindows(std::vector<Rect> windows) {
  windows_ = std::move(windows);
  lit_zones_ = layout_.LitZoneCount(windows_);
  display_->SetZonedLitFraction(layout_.LitFraction(windows_));
}

void ZonedBacklightController::Disable() {
  lit_zones_ = 0;
  display_->ClearZoning();
}

}  // namespace oddisplay
