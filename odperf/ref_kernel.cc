#include "odperf/ref_kernel.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <new>

namespace odperf {

namespace {

constexpr size_t kNodes = size_t{1} << 19;  // 8 MiB of 16-byte nodes.
constexpr size_t kPending = 1024;           // Events in flight.
constexpr int kEventsPerJob = 1 << 14;
constexpr size_t kKeys = size_t{1} << 12;
constexpr size_t kSlots = size_t{1} << 14;  // 128 KiB hash table.
constexpr int kSlotShift = 64 - 14;
constexpr size_t kHugePage = size_t{2} << 20;

uint64_t XorShift(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  *state = x;
  return x;
}

uint64_t Slot(uint32_t key) {
  return (key * 0x9e3779b97f4a7c15ULL) >> kSlotShift;
}

}  // namespace

RefKernel::RefKernel()
    : nodes_(static_cast<Node*>(
          std::aligned_alloc(kHugePage, kNodes * sizeof(Node)))),
      keys_(kKeys),
      sorted_(kKeys),
      table_(kSlots) {
  if (nodes_ == nullptr) {
    throw std::bad_alloc();
  }
  // Advisory: without transparent huge pages the kernel still runs, on
  // 4 KiB pages.
  madvise(nodes_.get(), kNodes * sizeof(Node), MADV_HUGEPAGE);
  std::uninitialized_default_construct_n(nodes_.get(), kNodes);
  heap_.reserve(kPending + 1);
  // Sattolo's shuffle: `next` forms a single cycle over every node.
  std::vector<uint32_t> order(kNodes);
  for (size_t i = 0; i < kNodes; ++i) {
    order[i] = static_cast<uint32_t>(i);
  }
  uint64_t state = 0x2545f4914f6cdd1dULL;
  for (size_t i = kNodes - 1; i > 0; --i) {
    std::swap(order[i], order[XorShift(&state) % i]);
  }
  for (size_t i = 0; i < kNodes; ++i) {
    nodes_[i].next = order[i];
    nodes_[i].kind = static_cast<uint32_t>(XorShift(&state) % 8);
  }
}

uint64_t RefKernel::RunJob() {
  const uint64_t job = static_cast<uint64_t>(next_job_);
  next_job_ = (next_job_ + 1) % kJobs;
  uint64_t state = 0x9e3779b97f4a7c15ULL ^ (job * 0x2545f4914f6cdd1dULL);
  uint64_t checksum = 0;

  // Event loop: pop the earliest event, run its node's handler (which reads
  // a neighbour, sometimes two, and writes one of them), schedule one
  // follow-up.  Only the immutable links and kinds steer the loop, so the
  // checksum depends on the job index alone.
  auto later = [](const Event& a, const Event& b) {
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
  };
  uint32_t seq = 0;
  auto push = [&](uint64_t time, uint32_t node) {
    heap_.push_back(Event{time, node, seq++});
    std::push_heap(heap_.begin(), heap_.end(), later);
  };
  heap_.clear();
  const uint64_t base = job * (kNodes / kJobs);
  for (size_t i = 0; i < kPending; ++i) {
    uint64_t time = XorShift(&state) % 1000;
    push(time, static_cast<uint32_t>((base + XorShift(&state) % (kNodes / kJobs)) %
                                     kNodes));
  }
  for (int e = 0; e < kEventsPerJob; ++e) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const Event event = heap_.back();
    heap_.pop_back();
    Node& n = nodes_[event.node];
    Node& m = nodes_[n.next];
    uint64_t delay = 0;
    switch (n.kind) {
      case 0:
        n.value += m.value;
        delay = 500;
        break;
      case 1:
        n.value ^= m.value >> 3;
        delay = 1000;
        break;
      case 2:
        m.value += event.time * 3;
        delay = 100 + (event.time & 63);
        break;
      case 3:
        n.value = (event.time * 0x9e3779b97f4a7c15ULL) >> 7;
        delay = 5000 + (m.next & 1023);
        break;
      case 4:
        nodes_[m.next].value += n.value;
        delay = 250 + m.kind;
        break;
      case 5:
        n.value -= m.value & 0xffff;
        delay = 10;
        break;
      case 6:
        delay = 1 + m.next % 997;
        n.value += delay;
        break;
      default:
        m.value ^= event.time;
        delay = 2000;
        break;
    }
    checksum = checksum * 31 + (event.node ^ delay);
    push(event.time + delay, (n.kind & 1) != 0 ? n.next : m.next);
  }

  // Sort, then build a hash table from the keys and probe it with the
  // sorted stream (every other probe shifted by one, so about half miss).
  for (uint32_t& key : keys_) {
    key = static_cast<uint32_t>(XorShift(&state));
  }
  std::memcpy(sorted_.data(), keys_.data(), kKeys * sizeof(uint32_t));
  std::sort(sorted_.begin(), sorted_.end());
  std::fill(table_.begin(), table_.end(), uint64_t{0});
  for (uint32_t key : keys_) {
    uint64_t slot = Slot(key);
    while (table_[slot] != 0 && table_[slot] != uint64_t{key} + 1) {
      slot = (slot + 1) & (kSlots - 1);
    }
    table_[slot] = uint64_t{key} + 1;
  }
  uint64_t hits = 0;
  for (size_t i = 0; i < kKeys; ++i) {
    const uint32_t key = sorted_[i] + static_cast<uint32_t>(i & 1);
    for (uint64_t slot = Slot(key); table_[slot] != 0;
         slot = (slot + 1) & (kSlots - 1)) {
      if (table_[slot] == uint64_t{key} + 1) {
        ++hits;
        break;
      }
    }
  }
  return checksum * 31 + hits + sorted_[kKeys / 2];
}

}  // namespace odperf
