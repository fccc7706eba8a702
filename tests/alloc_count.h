// Allocation counting for the allocation gates.
//
// alloc_count.cc replaces the global operator new with one that counts
// every call, so a binary that links it holds only tests that count
// allocations: od_alloc_test (tests/CMakeLists.txt) builds such binaries
// and labels them `alloc`.

#ifndef TESTS_ALLOC_COUNT_H_
#define TESTS_ALLOC_COUNT_H_

#include <cstdint>

namespace odtest {

// Calls to the global operator new (and new[]) since the program started.
uint64_t Allocations();

}  // namespace odtest

#endif  // TESTS_ALLOC_COUNT_H_
