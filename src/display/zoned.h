// Zoned backlighting (Section 4).
//
// A zoned display divides the backlight into a grid of independently
// controlled zones (Figure 17 shows the 4-zone 2x2 and 8-zone 4x2 layouts).
// Zones intersecting a visible window are lit bright; the rest are dark.
// Each zone's draw is proportional to its area, so the effective display
// power is bright * lit_fraction, which the controller pushes into the
// Display component.

#ifndef SRC_DISPLAY_ZONED_H_
#define SRC_DISPLAY_ZONED_H_

#include <vector>

#include "src/display/geometry.h"
#include "src/power/display.h"

namespace oddisplay {

class ZoneLayout {
 public:
  ZoneLayout(int cols, int rows);

  // The paper's two candidate designs.
  static ZoneLayout FourZone() { return ZoneLayout(2, 2); }
  static ZoneLayout EightZone() { return ZoneLayout(4, 2); }

  int zone_count() const { return cols_ * rows_; }

  Rect ZoneRect(int index) const;

  // Number of zones intersecting at least one window.
  int LitZoneCount(const std::vector<Rect>& windows) const;

  double LitFraction(const std::vector<Rect>& windows) const;

 private:
  friend Rect SnapToZones(const Rect& window, const ZoneLayout& layout);

  int cols_;
  int rows_;
};

// The "snap-to" feature the paper envisions for window managers: moves a
// window (preserving its size) so that it straddles the fewest possible
// zones, returning the adjusted rectangle.  Windows larger than the screen
// are clamped to it.
Rect SnapToZones(const Rect& window, const ZoneLayout& layout);

// Drives a Display component from the set of visible windows.
class ZonedBacklightController {
 public:
  ZonedBacklightController(odpower::Display* display, const ZoneLayout& layout);

  // Replaces the visible window set and reapplies zoning.
  void SetWindows(std::vector<Rect> windows);

  // Stops zoning; the display reverts to conventional full-bright behaviour.
  void Disable();

  int lit_zones() const { return lit_zones_; }

 private:
  odpower::Display* display_;
  ZoneLayout layout_;
  std::vector<Rect> windows_;
  int lit_zones_ = 0;
};

}  // namespace oddisplay

#endif  // SRC_DISPLAY_ZONED_H_
