#include "src/apps/map_viewer.h"

#include <gtest/gtest.h>

#include "src/apps/testbed.h"

namespace odapps {
namespace {

TEST(MapViewerTest, LadderHasFiveLevels) {
  TestBed bed;
  EXPECT_EQ(bed.map().fidelity_spec().count(), 5);
  EXPECT_EQ(bed.map().map_fidelity(), MapFidelity::kFull);
}

TEST(MapViewerTest, BytesAtEachFidelity) {
  const MapObject& map = StandardMaps()[0];
  EXPECT_EQ(MapViewer::BytesAtFidelity(map, MapFidelity::kFull), map.full_bytes);
  EXPECT_EQ(MapViewer::BytesAtFidelity(map, MapFidelity::kMinorFilter),
            map.minor_filter_bytes);
  EXPECT_EQ(MapViewer::BytesAtFidelity(map, MapFidelity::kSecondaryFilter),
            map.secondary_filter_bytes);
  EXPECT_EQ(MapViewer::BytesAtFidelity(map, MapFidelity::kCropped),
            map.cropped_bytes);
  EXPECT_EQ(MapViewer::BytesAtFidelity(map, MapFidelity::kCroppedSecondary),
            map.cropped_secondary_bytes);
}

TEST(MapViewerTest, ViewIncludesThinkTime) {
  TestBed bed;
  bed.map().set_think_seconds(5.0);
  auto m = bed.Measure([&](odsim::EventFn done) {
    bed.map().ViewMap(StandardMaps()[1], std::move(done));
  });
  EXPECT_GT(m.seconds, 5.0);
}

TEST(MapViewerTest, ZeroThinkTimeSupported) {
  TestBed bed;
  bed.map().set_think_seconds(0.0);
  bool done = false;
  bed.map().ViewMap(StandardMaps()[1], [&] { done = true; });
  bed.sim().RunUntil(odsim::SimTime::Seconds(60));
  EXPECT_TRUE(done);
}

TEST(MapViewerTest, ThinkTimeExtendsEnergyLinearly) {
  // Figure 11: E_t = E_0 + t * P_B.
  double joules[3];
  double thinks[3] = {0.0, 10.0, 20.0};
  for (int i = 0; i < 3; ++i) {
    TestBed bed(TestBed::Options{.seed = 7, .hw_pm = true});
    bed.map().set_think_seconds(thinks[i]);
    bed.sim().RunUntil(odsim::SimTime::Seconds(15));
    auto m = bed.Measure([&](odsim::EventFn done) {
      bed.map().ViewMap(StandardMaps()[0], std::move(done));
    });
    joules[i] = m.joules;
  }
  double slope1 = (joules[1] - joules[0]) / 10.0;
  double slope2 = (joules[2] - joules[1]) / 10.0;
  EXPECT_NEAR(slope1, slope2, 0.2);
  // Think-time slope is the bright-display resting power (~6.5 W).
  EXPECT_GT(slope1, 5.5);
  EXPECT_LT(slope1, 7.5);
}

TEST(MapViewerTest, DisplayHeldThroughThinkTime) {
  TestBed bed(TestBed::Options{.seed = 1, .hw_pm = true});
  bed.map().set_think_seconds(5.0);
  bool done = false;
  bed.map().ViewMap(StandardMaps()[1], [&] { done = true; });
  // Mid think time (map small enough to fetch in <4 s): display bright.
  bed.sim().RunUntil(odsim::SimTime::Seconds(6));
  EXPECT_FALSE(done);
  EXPECT_EQ(bed.laptop().display().display_state(), odpower::DisplayState::kBright);
  bed.sim().RunUntil(odsim::SimTime::Seconds(60));
  EXPECT_TRUE(done);
  EXPECT_EQ(bed.laptop().display().display_state(), odpower::DisplayState::kOff);
}

TEST(MapViewerTest, EnergyTracksTransferSize) {
  // The fidelity ladder is not strictly energy-monotonic (the paper notes
  // cropping is less effective than filtering for these samples), but energy
  // must track the bytes actually transferred.
  const MapObject& map = StandardMaps()[0];
  std::vector<std::pair<size_t, double>> by_bytes;
  for (int level = 0; level < 5; ++level) {
    TestBed bed(TestBed::Options{.seed = 7, .hw_pm = true});
    bed.map().SetFidelity(level);
    bed.sim().RunUntil(odsim::SimTime::Seconds(15));
    auto m = bed.Measure([&](odsim::EventFn done) {
      bed.map().ViewMap(map, std::move(done));
    });
    by_bytes.emplace_back(
        MapViewer::BytesAtFidelity(map, static_cast<MapFidelity>(level)),
        m.joules);
  }
  std::sort(by_bytes.begin(), by_bytes.end());
  for (size_t i = 1; i < by_bytes.size(); ++i) {
    EXPECT_GT(by_bytes[i].second, by_bytes[i - 1].second)
        << "bytes " << by_bytes[i].first;
  }
}

TEST(MapViewerTest, CroppedFidelityShrinksWindow) {
  TestBed bed;
  bed.map().SetFidelity(static_cast<int>(MapFidelity::kCropped));
  oddisplay::Rect cropped = bed.map().window();
  bed.map().SetFidelity(static_cast<int>(MapFidelity::kFull));
  oddisplay::Rect full = bed.map().window();
  EXPECT_LT(cropped.w * cropped.h, full.w * full.h);
}

TEST(MapViewerTest, BusyFlagLifecycle) {
  TestBed bed;
  EXPECT_FALSE(bed.map().busy());
  bed.map().ViewMap(StandardMaps()[2], nullptr);
  EXPECT_TRUE(bed.map().busy());
  bed.sim().RunUntil(odsim::SimTime::Seconds(60));
  EXPECT_FALSE(bed.map().busy());
}

}  // namespace
}  // namespace odapps
