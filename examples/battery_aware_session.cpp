// Running the composite workload against a non-ideal battery (Peukert rate
// effect + internal resistance) versus an ideal energy store: how much
// usable lifetime battery chemistry takes back, and how the draw level
// changes the answer.
//
//   $ ./build/examples/battery_aware_session

#include <cstdio>

#include "src/apps/composite.h"
#include "src/apps/experiments.h"
#include "src/apps/testbed.h"
#include "src/power/battery.h"

namespace {

double Lifetime(bool lowest_fidelity, bool non_ideal) {
  odapps::TestBed bed(odapps::TestBed::Options{.seed = 3, .hw_pm = true});
  if (lowest_fidelity) {
    bed.speech().SetFidelity(0);
    bed.video().SetFidelity(0);
    bed.map().SetFidelity(0);
    bed.web().SetFidelity(0);
  }
  odapps::Settle(bed);
  bed.laptop().accounting().Reset(bed.sim().Now());

  odpower::BatteryConfig config;
  config.nominal_joules = 13500.0;
  config.rated_watts = 10.0;
  if (!non_ideal) {
    config.peukert_exponent = 1.0;
    config.resistance_fraction = 0.0;
  }
  odpower::Battery battery(&bed.sim(), &bed.laptop().accounting(), config);

  odapps::CompositeApp composite(&bed.sim(), &bed.speech(), &bed.web(), &bed.map());
  composite.StartPeriodic(odsim::SimDuration::Seconds(25));
  bed.video().PlayLooping(odapps::StandardVideoClips()[0]);

  odsim::SimTime start = bed.sim().Now();
  while (!battery.Exhausted(bed.sim().Now())) {
    bed.sim().RunUntil(bed.sim().Now() + odsim::SimDuration::Seconds(5));
  }
  composite.Stop();
  bed.video().StopLooping();
  battery.Stop();
  return (bed.sim().Now() - start).seconds();
}

}  // namespace

int main() {
  std::printf("Composite workload + background video on 13,500 J:\n\n");
  std::printf("%-18s %-14s %-14s %s\n", "fidelity", "ideal supply",
              "real battery", "chemistry tax");
  for (bool lowest : {false, true}) {
    double ideal = Lifetime(lowest, false);
    double real = Lifetime(lowest, true);
    std::printf("%-18s %6.1f min     %6.1f min     %4.1f%%\n",
                lowest ? "lowest" : "highest", ideal / 60.0, real / 60.0,
                100.0 * (1.0 - real / ideal));
  }
  std::printf(
      "\nHigh draw loses more to Peukert's law and internal resistance, so\n"
      "fidelity adaptation pays twice on a real battery: less work, and the\n"
      "remaining work is extracted more efficiently.\n");
  return 0;
}
