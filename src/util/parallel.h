// Deterministic sharded execution for the batch pipelines.
//
// ParallelShards splits [0, count) into at most `num_threads` contiguous
// chunks and runs fn(begin, end) on each, spawning OS threads only when
// num_threads > 1. The chunk boundaries depend only on count (never on
// num_threads or scheduling), and callers write disjoint output ranges, so
// every result is bit-identical for every thread count — the protocols'
// public-coin transcripts do not change when parallelism is enabled.
#ifndef RSR_UTIL_PARALLEL_H_
#define RSR_UTIL_PARALLEL_H_

#include <cstddef>
#include <thread>
#include <vector>

namespace rsr {

/// Runs fn(begin, end) over disjoint chunks of [0, count). fn must be safe to
/// invoke concurrently on disjoint ranges and must not throw. num_threads of
/// 0 or 1 executes inline on the calling thread (no spawn).
template <typename Fn>
void ParallelShards(size_t count, size_t num_threads, Fn&& fn) {
  if (count == 0) return;
  size_t threads = num_threads == 0 ? 1 : num_threads;
  if (threads > count) threads = count;
  if (threads <= 1) {
    fn(size_t{0}, count);
    return;
  }
  const size_t chunk = count / threads;
  const size_t extra = count % threads;
  std::vector<std::thread> pool;
  pool.reserve(threads);
  size_t begin = 0;
  for (size_t t = 0; t < threads; ++t) {
    const size_t end = begin + chunk + (t < extra ? 1 : 0);
    pool.emplace_back([&fn, begin, end] { fn(begin, end); });
    begin = end;
  }
  for (auto& th : pool) th.join();
}

}  // namespace rsr

#endif  // RSR_UTIL_PARALLEL_H_
