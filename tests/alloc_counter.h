// Shared allocation counter for hot-path tests.
//
// alloc_counter.cc overrides global operator new/delete ONCE for the whole
// combined test binary and counts every allocation; any test file can read
// the counter to prove a code path performs zero (or O(1)) heap
// allocations. Used by sketch_hotpath_test, pointstore_test and
// gap_protocol_test, among others.
#ifndef RSR_TESTS_ALLOC_COUNTER_H_
#define RSR_TESTS_ALLOC_COUNTER_H_

namespace rsr {
namespace testing {

/// Number of operator-new calls since process start (monotonic).
long long AllocationCount();

}  // namespace testing
}  // namespace rsr

#endif  // RSR_TESTS_ALLOC_COUNTER_H_
