// End-to-end network adaptation (the initial Odyssey prototype's loop,
// Section 2.2): the bandwidth monitor feeds the viceroy, applications
// register expectation windows, and fidelity follows the wireless link as
// it degrades and recovers — "a client playing full-color video data from a
// server could switch to black and white video when bandwidth drops".

#include <gtest/gtest.h>

#include "src/apps/testbed.h"
#include "src/net/bandwidth_monitor.h"

namespace odapps {
namespace {

struct Rig {
  Rig() : monitor(&bed.sim(), &bed.link()) {
    monitor.set_callback([this](odsim::SimTime, double bps) {
      bed.viceroy().NotifyResourceLevel(odyssey::ResourceId::kNetworkBandwidth,
                                        bps);
    });
  }
  TestBed bed;
  odnet::BandwidthMonitor monitor;
};

TEST(BandwidthAdaptationTest, VideoDegradesWhenLinkDegrades) {
  Rig rig;
  // The video expects at least 1.3 Mb/s to sustain its baseline track.
  rig.bed.viceroy().RegisterExpectation(&rig.bed.video(),
                                        odyssey::ResourceId::kNetworkBandwidth,
                                        1.3e6, 2.5e6);
  rig.monitor.Start();
  rig.bed.video().PlayLooping(StandardVideoClips()[0]);
  rig.bed.sim().RunUntil(odsim::SimTime::Seconds(20));
  EXPECT_EQ(rig.bed.video().current_fidelity(),
            rig.bed.video().fidelity_spec().highest());

  // The user walks away from the base station: the channel halves.
  rig.bed.link().set_bandwidth_bps(0.9e6);
  rig.bed.sim().RunUntil(odsim::SimTime::Seconds(60));
  EXPECT_LT(rig.bed.video().current_fidelity(),
            rig.bed.video().fidelity_spec().highest());

  rig.bed.video().StopLooping();
}

TEST(BandwidthAdaptationTest, VideoRecoversWhenLinkRecovers) {
  Rig rig;
  rig.bed.viceroy().RegisterExpectation(&rig.bed.video(),
                                        odyssey::ResourceId::kNetworkBandwidth,
                                        1.3e6, 2.5e6);
  rig.monitor.Start();
  rig.bed.video().SetFidelity(1);  // Start degraded (Premiere-C, half size).
  rig.bed.video().PlayLooping(StandardVideoClips()[0]);

  // A degraded track underuses a healthy 2 Mb/s channel, so the observed
  // throughput equals the offered load; the estimator must not mistake an
  // underused link for a slow one.  Give it a faster channel to confirm
  // upgrades fire when capacity is demonstrably above the window.
  rig.bed.link().set_bandwidth_bps(4.0e6);
  rig.bed.sim().RunUntil(odsim::SimTime::Seconds(120));
  EXPECT_GT(rig.bed.video().current_fidelity(), 1);

  rig.bed.video().StopLooping();
}

TEST(BandwidthAdaptationTest, StableLinkCausesNoFlapping) {
  Rig rig;
  rig.bed.viceroy().RegisterExpectation(&rig.bed.video(),
                                        odyssey::ResourceId::kNetworkBandwidth,
                                        1.3e6, 2.5e6);
  rig.monitor.Start();
  rig.bed.video().PlayLooping(StandardVideoClips()[0]);
  rig.bed.sim().RunUntil(odsim::SimTime::Seconds(120));
  // The healthy channel stays inside the expectation window: no upcalls.
  EXPECT_EQ(rig.bed.viceroy().AdaptationCount(&rig.bed.video()), 0);
  rig.bed.video().StopLooping();
}

}  // namespace
}  // namespace odapps
