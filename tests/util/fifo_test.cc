#include "src/util/fifo.h"

#include <deque>
#include <memory>

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace odutil {
namespace {

// Seeded interleavings of pushes and pops, checked element by element
// against std::deque: the order must survive the drain-and-reuse and the
// slide-down of a half-consumed vector.
TEST(FifoTest, MatchesDequeOrderUnderInterleavedPushPop) {
  Rng rng(7);
  Fifo<int> fifo;
  std::deque<int> reference;
  int next = 0;
  for (int step = 0; step < 20000; ++step) {
    // Phases bias toward growth or toward draining, so the queue both
    // empties often and holds long backlogs.
    const double push_bias = (step / 500) % 2 == 0 ? 0.7 : 0.3;
    if (reference.empty() || rng.Bernoulli(push_bias)) {
      fifo.push_back(next);
      reference.push_back(next);
      ++next;
    } else {
      ASSERT_EQ(fifo.pop_front(), reference.front());
      reference.pop_front();
    }
    ASSERT_EQ(fifo.size(), reference.size());
    ASSERT_EQ(fifo.empty(), reference.empty());
  }
}

TEST(FifoTest, HoldsMoveOnlyElements) {
  Fifo<std::unique_ptr<int>> fifo;
  fifo.push_back(std::make_unique<int>(1));
  fifo.push_back(std::make_unique<int>(2));
  EXPECT_EQ(*fifo.pop_front(), 1);
  fifo.push_back(std::make_unique<int>(3));  // Slides the live element down.
  EXPECT_EQ(*fifo.pop_front(), 2);
  EXPECT_EQ(*fifo.pop_front(), 3);
  EXPECT_TRUE(fifo.empty());
}

}  // namespace
}  // namespace odutil
