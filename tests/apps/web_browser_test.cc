#include "src/apps/web_browser.h"

#include <gtest/gtest.h>

#include "src/apps/testbed.h"

namespace odapps {
namespace {

TEST(WebBrowserTest, LadderHasFiveLevels) {
  TestBed bed;
  EXPECT_EQ(bed.web().fidelity_spec().count(), 5);
  EXPECT_EQ(bed.web().web_fidelity(), WebFidelity::kOriginal);
}

TEST(WebBrowserTest, DistilledSizesMonotonic) {
  const WebImage& image = StandardWebImages()[0];
  size_t original = WebBrowser::BytesAtFidelity(image, WebFidelity::kOriginal);
  size_t j75 = WebBrowser::BytesAtFidelity(image, WebFidelity::kJpeg75);
  size_t j50 = WebBrowser::BytesAtFidelity(image, WebFidelity::kJpeg50);
  size_t j25 = WebBrowser::BytesAtFidelity(image, WebFidelity::kJpeg25);
  size_t j5 = WebBrowser::BytesAtFidelity(image, WebFidelity::kJpeg5);
  EXPECT_GT(original, j75);
  EXPECT_GT(j75, j50);
  EXPECT_GT(j50, j25);
  EXPECT_GT(j25, j5);
}

TEST(WebBrowserTest, PageIncludesThinkTime) {
  TestBed bed;
  auto m = bed.Measure([&](odsim::EventFn done) {
    bed.web().BrowsePage(StandardWebImages()[0], std::move(done));
  });
  EXPECT_GT(m.seconds, 5.0);
  EXPECT_LT(m.seconds, 10.0);
}

TEST(WebBrowserTest, LowerFidelityUsesLessEnergyOnLargeImage) {
  const WebImage& image = StandardWebImages()[0];  // 175 KB.
  double previous = 0.0;
  for (int level = 0; level < 5; ++level) {
    TestBed bed(TestBed::Options{.seed = 9, .hw_pm = true});
    bed.web().SetFidelity(level);
    bed.sim().RunUntil(odsim::SimTime::Seconds(15));
    auto m = bed.Measure([&](odsim::EventFn done) {
      bed.web().BrowsePage(image, std::move(done));
    });
    EXPECT_GT(m.joules, previous) << "level " << level;
    previous = m.joules;
  }
}

TEST(WebBrowserTest, TinyImageSavingsAreNegligible) {
  // Image 4 is 110 bytes; distillation cannot save anything meaningful.
  const WebImage& image = StandardWebImages()[3];
  TestBed bed_full(TestBed::Options{.seed = 9, .hw_pm = true});
  bed_full.sim().RunUntil(odsim::SimTime::Seconds(15));
  auto full = bed_full.Measure([&](odsim::EventFn done) {
    bed_full.web().BrowsePage(image, std::move(done));
  });
  TestBed bed_low(TestBed::Options{.seed = 9, .hw_pm = true});
  bed_low.web().SetFidelity(0);
  bed_low.sim().RunUntil(odsim::SimTime::Seconds(15));
  auto low = bed_low.Measure([&](odsim::EventFn done) {
    bed_low.web().BrowsePage(image, std::move(done));
  });
  EXPECT_GT(low.joules / full.joules, 0.95);
}

TEST(WebBrowserTest, ProxyAndNetscapeAttributed) {
  TestBed bed;
  auto m = bed.Measure([&](odsim::EventFn done) {
    bed.web().BrowsePage(StandardWebImages()[0], std::move(done));
  });
  EXPECT_GT(m.Process("Netscape"), 0.0);
  EXPECT_GT(m.Process("Proxy"), 0.0);
  EXPECT_GT(m.Process("X Server"), 0.0);
}

TEST(WebBrowserTest, BusyFlagLifecycle) {
  TestBed bed;
  EXPECT_FALSE(bed.web().busy());
  bed.web().BrowsePage(StandardWebImages()[1], nullptr);
  EXPECT_TRUE(bed.web().busy());
  bed.sim().RunUntil(odsim::SimTime::Seconds(30));
  EXPECT_FALSE(bed.web().busy());
}

TEST(WebBrowserTest, ThinkTimeSlopeIsBackgroundPower) {
  double joules[2];
  double thinks[2] = {5.0, 20.0};
  for (int i = 0; i < 2; ++i) {
    TestBed bed(TestBed::Options{.seed = 11, .hw_pm = true});
    bed.web().set_think_seconds(thinks[i]);
    bed.sim().RunUntil(odsim::SimTime::Seconds(15));
    auto m = bed.Measure([&](odsim::EventFn done) {
      bed.web().BrowsePage(StandardWebImages()[0], std::move(done));
    });
    joules[i] = m.joules;
  }
  double slope = (joules[1] - joules[0]) / 15.0;
  EXPECT_GT(slope, 5.5);
  EXPECT_LT(slope, 7.5);
}

}  // namespace
}  // namespace odapps
