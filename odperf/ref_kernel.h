// The benchmark's reference kernel: a fixed, single-threaded job shaped like
// a discrete-event program (a binary-heap event queue, a branchy per-event
// dispatch and pointer chasing over 8 MiB of nodes), followed by a sort and
// an open-addressing hash build and probe.  The benchmark interleaves it
// with the program's calls and reports unit time as a ratio to it, so a
// neighbour on a shared host slows both sides of the ratio instead of
// moving the metric.
//
// One reference is kJobs jobs of ~2 ms each, so it can be split finely
// between short program calls.  Job j of every reference starts from the
// same state and visits its own stretch of nodes; over one reference the
// jobs sweep the whole node array.  The working set is deliberately larger
// than one core's L2: on a shared host the program's units are slowed
// mostly through the shared last-level cache and memory, and a kernel that
// fits in L2 does not feel that (measured on a 4-vCPU VM: per-unit times of
// an L2-sized kernel correlated 0.4 with unit times, this shape's 0.8).
//
// It is owned by the benchmark and fixed from now on: its work, its data
// and its compile flags (odperf/CMakeLists.txt) must not change, or every
// recorded unit_ref_ratio stops being comparable.

#ifndef ODPERF_REF_KERNEL_H_
#define ODPERF_REF_KERNEL_H_

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

namespace odperf {

class RefKernel {
 public:
  // Allocates and fills the working set; Run() allocates nothing.
  RefKernel();

  RefKernel(const RefKernel&) = delete;
  RefKernel& operator=(const RefKernel&) = delete;

  // Jobs in one reference.
  static constexpr int kJobs = 64;

  // Runs the next job (job index = calls so far, modulo kJobs) and returns
  // its checksum, which depends only on the job index.
  uint64_t RunJob();

 private:
  struct Node {
    uint32_t next = 0;  // One cycle through every node.
    uint32_t kind = 0;  // Which handler an event on this node runs.
    uint64_t value = 0; // Scribbled on; never read into a checksum.
  };
  struct Event {
    uint64_t time = 0;
    uint32_t node = 0;
    uint32_t seq = 0;
  };

  struct Free {
    void operator()(Node* nodes) const { std::free(nodes); }
  };
  // 2 MiB-aligned and advised onto huge pages where the host allows it, so
  // the nodes' cache-set mapping does not change from process to process
  // (with 4 KiB pages, two kernels in one process differed by up to 13 %).
  std::unique_ptr<Node[], Free> nodes_;
  std::vector<Event> heap_;       // Capacity reserved; never grows in Run().
  std::vector<uint32_t> keys_;
  std::vector<uint32_t> sorted_;
  std::vector<uint64_t> table_;
  int next_job_ = 0;
};

}  // namespace odperf

#endif  // ODPERF_REF_KERNEL_H_
