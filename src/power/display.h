// Display power model, including zoned backlighting (Section 4).
//
// The stock display has three states: bright, dim, off.  A zoned display
// divides the backlight into a grid whose zones can be lit independently;
// when zoning is engaged, the bright-state draw becomes
//   bright_power * lit_fraction,
// i.e. zones intersecting a window at full brightness (draw proportional to
// zone area) and the rest of the screen dark — the projection model behind
// Figure 18.

#ifndef SRC_POWER_DISPLAY_H_
#define SRC_POWER_DISPLAY_H_

#include "src/power/component.h"

namespace odpower {

enum class DisplayState : int {
  kBright = 0,
  kDim = 1,
  kOff = 2,
};

class Display : public Component {
 public:
  Display(double bright_watts, double dim_watts);

  void Set(DisplayState state) { SetState(static_cast<int>(state)); }
  DisplayState display_state() const { return static_cast<DisplayState>(state()); }

  // Engages zoned backlighting with the given fraction of screen area lit
  // bright (the rest dim).  Only affects the kBright state.
  void SetZonedLitFraction(double lit_fraction);

  // Returns to a conventional single-zone backlight.
  void ClearZoning();

  bool zoned() const { return zoned_; }

  double power() const override;

 private:
  bool zoned_ = false;
  double lit_fraction_ = 1.0;
};

}  // namespace odpower

#endif  // SRC_POWER_DISPLAY_H_
