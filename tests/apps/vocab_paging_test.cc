// Vocabulary paging (Section 3.4: "More complex recognition tasks may
// trigger disk activity and hence show less benefit from hardware power
// management").

#include <gtest/gtest.h>

#include "src/apps/testbed.h"

namespace odapps {
namespace {

double Recognize(bool paging, bool reduced, bool hw_pm, double* out_disk_joules) {
  TestBed bed(TestBed::Options{.seed = 13, .hw_pm = hw_pm});
  bed.speech().set_vocab_paging(paging);
  bed.speech().SetFidelity(reduced ? 0 : 1);
  bed.sim().RunUntil(odsim::SimTime::Seconds(15));
  auto m = bed.Measure([&](odsim::EventFn done) {
    bed.speech().Recognize(StandardUtterances()[3], std::move(done));
  });
  if (out_disk_joules != nullptr) {
    *out_disk_joules = m.Component("Disk");
  }
  return m.joules;
}

TEST(VocabPagingTest, PagingCostsDiskEnergy) {
  double disk_without = 0.0, disk_with = 0.0;
  Recognize(false, false, true, &disk_without);
  Recognize(true, false, true, &disk_with);
  EXPECT_GT(disk_with, disk_without);
}

TEST(VocabPagingTest, PagingSpinsUpFromStandby) {
  // Under PM the disk starts in standby; paging must spin it up, paying the
  // spin-up transition on top of the access itself.
  TestBed bed(TestBed::Options{.seed = 13, .hw_pm = true});
  bed.speech().set_vocab_paging(true);
  bed.sim().RunUntil(odsim::SimTime::Seconds(20));
  ASSERT_EQ(bed.laptop().disk().disk_state(), odpower::DiskState::kStandby);
  bool done = false;
  bed.speech().Recognize(StandardUtterances()[3], [&] { done = true; });
  // The front end runs ~1.4 s before the search (and its paging) starts.
  bed.sim().RunUntil(bed.sim().Now() + odsim::SimDuration::Seconds(3));
  EXPECT_NE(bed.laptop().disk().disk_state(), odpower::DiskState::kStandby);
  bed.sim().RunUntil(bed.sim().Now() + odsim::SimDuration::Seconds(60));
  EXPECT_TRUE(done);
}

TEST(VocabPagingTest, ReducedModelFitsInMemory) {
  // "The vocabulary, language model and acoustic model fit entirely in
  // physical memory" at low fidelity: no disk traffic even with paging on.
  double disk_reduced = 0.0;
  Recognize(true, true, true, &disk_reduced);
  double disk_full = 0.0;
  Recognize(true, false, true, &disk_full);
  EXPECT_LT(disk_reduced, disk_full);
}

TEST(VocabPagingTest, PagingShrinksPmBenefit) {
  // The paper's point: disk activity during recognition reduces what
  // hardware power management can save.
  double base_plain = Recognize(false, false, false, nullptr);
  double pm_plain = Recognize(false, false, true, nullptr);
  double base_paging = Recognize(true, false, false, nullptr);
  double pm_paging = Recognize(true, false, true, nullptr);
  double plain_saving = 1.0 - pm_plain / base_plain;
  double paging_saving = 1.0 - pm_paging / base_paging;
  EXPECT_LT(paging_saving, plain_saving);
}

}  // namespace
}  // namespace odapps
