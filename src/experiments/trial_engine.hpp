// Shared chunked-trial scheduler of the experiment engines.
//
// ratio_experiment, timing_experiment and tail_study all fan independent
// Monte-Carlo trials out in FIXED chunks of kTrialChunk trials and reduce
// per-chunk statistics in ascending chunk order, which is what makes every
// reported number byte-identical for any --threads setting.  TrialEngine
// owns the shared mechanics -- worker-count resolution, the optional
// work-stealing pool, the optional wall-clock deadline, and the chunk
// dispatch loop -- so the engines only supply the per-chunk body.
//
// The body runs concurrently on worker threads; it must write its results
// into chunk-indexed slots (or merge into order-independent integer
// accumulators) and use ensure_alive() between trials for cancellation.
//
// The pool is private to the engine, never runtime::shared_pool(): a chunk
// body that calls a par:* partitioner blocks on shared_pool's join, which
// is only legal from a thread that is not a worker of that same pool.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <utility>

#include "core/run_context.hpp"
#include "experiments/ratio_experiment.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/work_stealing.hpp"

namespace lbb::experiments::detail {

class TrialEngine {
 public:
  /// `threads` follows resolve_threads (1 = sequential, 0 = hardware);
  /// `time_limit_seconds` <= 0 disables the deadline.
  TrialEngine(std::int32_t threads, double time_limit_seconds) {
    if (time_limit_seconds > 0.0) {
      deadline_ =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(time_limit_seconds));
    }
    const unsigned workers = resolve_threads(threads);
    if (workers > 1) pool_.emplace(workers);
  }

  /// Throws core::OperationCancelled when the token fired or the deadline
  /// passed.  Call between trials (or batches) inside the chunk body.
  void ensure_alive(const lbb::core::CancelToken* cancel,
                    const char* what) const {
    if (cancel != nullptr && cancel->cancelled()) {
      throw lbb::core::OperationCancelled(what);
    }
    if (deadline_ && std::chrono::steady_clock::now() >= *deadline_) {
      throw lbb::core::OperationCancelled(what);
    }
  }

  /// Invokes run_chunk(chunk_index, lo, hi) for every kTrialChunk-sized
  /// slice of [0, trials) -- on the pool when one exists, else inline in
  /// ascending order.  Chunk boundaries depend only on `trials`.
  template <typename Fn>
  void run_chunks(std::int64_t trials, Fn&& run_chunk) {
    if (pool_) {
      lbb::runtime::parallel_for_chunks(*pool_, 0, trials, kTrialChunk,
                                        std::forward<Fn>(run_chunk));
      return;
    }
    std::int64_t chunk = 0;
    for (std::int64_t lo = 0; lo < trials; lo += kTrialChunk, ++chunk) {
      run_chunk(chunk, lo, std::min<std::int64_t>(lo + kTrialChunk, trials));
    }
  }

  /// Number of fixed-size chunks a `trials`-trial run dispatches.
  [[nodiscard]] static std::int64_t chunk_count(std::int64_t trials) {
    return (trials + kTrialChunk - 1) / kTrialChunk;
  }

 private:
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  std::optional<lbb::runtime::WorkStealingPool> pool_;
};

}  // namespace lbb::experiments::detail
