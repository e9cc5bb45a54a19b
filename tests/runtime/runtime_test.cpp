// Tests for the chunked fork-join loop on the work-stealing pool and the
// real-thread partition executor built on it.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/hf.hpp"
#include "problems/alpha_dist.hpp"
#include "problems/synthetic.hpp"
#include "runtime/executor.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/work_stealing.hpp"

namespace lbb::runtime {
namespace {

TEST(Executor, BusyTimesTrackWeights) {
  using lbb::problems::AlphaDistribution;
  using lbb::problems::SyntheticProblem;
  SyntheticProblem p(3, AlphaDistribution::uniform(0.2, 0.5));
  const auto part = lbb::core::hf_partition(p, 8);
  // One worker: serial execution removes same-pool contention; external
  // load can still stretch individual busy-waits, so tolerances are loose
  // (this is a smoke test of the attribution, not a timing benchmark).
  WorkStealingPool pool(1);
  const auto report = execute_partition(
      part, pool, [](const SyntheticProblem& piece) {
        // Busy-wait proportional to weight (weights sum to 1).
        const auto duration =
            std::chrono::duration<double>(piece.weight() * 0.2);
        const auto end = std::chrono::steady_clock::now() + duration;
        while (std::chrono::steady_clock::now() < end) {
        }
      });
  ASSERT_EQ(report.processor_busy.size(), 8u);
  double total_busy = 0.0;
  for (double b : report.processor_busy) {
    EXPECT_GT(b, 0.0);
    total_busy += b;
  }
  EXPECT_GE(total_busy, 0.19);
  EXPECT_LE(total_busy, 1.0);
  // Measured imbalance approximates the partition's ratio.
  EXPECT_NEAR(report.imbalance(), part.ratio(), 0.6 * part.ratio());
  EXPECT_GT(report.wall_seconds, 0.0);
}

TEST(Executor, RejectsEmptyPartition) {
  lbb::core::Partition<lbb::problems::SyntheticProblem> empty;
  empty.processors = 4;
  WorkStealingPool pool(1);
  EXPECT_THROW(execute_partition(empty, pool,
                                 [](const auto&) {}),
               std::invalid_argument);
}

TEST(ExecutionReport, ImbalanceComputation) {
  ExecutionReport r;
  r.processor_busy = {1.0, 1.0, 2.0};
  EXPECT_NEAR(r.imbalance(), 2.0 / (4.0 / 3.0), 1e-12);
  ExecutionReport zero;
  zero.processor_busy = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(zero.imbalance(), 1.0);
  ExecutionReport empty;
  EXPECT_THROW(static_cast<void>(empty.imbalance()), std::logic_error);
}

TEST(ParallelFor, VisitsEveryIndexOnce) {
  WorkStealingPool pool(4);
  std::vector<std::atomic<int>> hits(103);
  parallel_for(pool, 0, 103, 7,
               [&hits](std::int64_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForChunks, ChunkBoundariesAreFixed) {
  WorkStealingPool pool(3);
  std::mutex mu;
  std::vector<std::array<std::int64_t, 3>> seen;
  parallel_for_chunks(pool, 0, 10, 4,
                      [&](std::int64_t chunk, std::int64_t lo,
                          std::int64_t hi) {
                        std::scoped_lock lock(mu);
                        seen.push_back({chunk, lo, hi});
                      });
  std::sort(seen.begin(), seen.end());
  const std::vector<std::array<std::int64_t, 3>> want = {
      {0, 0, 4}, {1, 4, 8}, {2, 8, 10}};
  EXPECT_EQ(seen, want);
}

TEST(ParallelForChunks, PropagatesLowestChunkException) {
  WorkStealingPool pool(4);
  // Chunks 2 and 5 fail; errors land in chunk-indexed slots and the join
  // rethrows the lowest, so the caller observes chunk 2's exception
  // deterministically -- after every other chunk still ran.
  std::atomic<int> ran{0};
  try {
    parallel_for_chunks(pool, 0, 80, 10,
                        [&ran](std::int64_t chunk, std::int64_t,
                               std::int64_t) {
                          ran.fetch_add(1);
                          if (chunk == 2 || chunk == 5) {
                            throw std::runtime_error(
                                "chunk " + std::to_string(chunk));
                          }
                        });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 2");
  }
  EXPECT_EQ(ran.load(), 8);
  // The pool survives for further use.
  std::atomic<int> counter{0};
  parallel_for(pool, 0, 5, 2, [&counter](std::int64_t) { counter++; });
  EXPECT_EQ(counter.load(), 5);
}

TEST(ParallelForChunks, EmptyAndBadRanges) {
  WorkStealingPool pool(2);
  int calls = 0;
  parallel_for_chunks(pool, 5, 5, 4,
                      [&calls](std::int64_t, std::int64_t, std::int64_t) {
                        ++calls;
                      });
  parallel_for_chunks(pool, 9, 2, 4,
                      [&calls](std::int64_t, std::int64_t, std::int64_t) {
                        ++calls;
                      });
  EXPECT_EQ(calls, 0);
  EXPECT_THROW(
      parallel_for_chunks(pool, 0, 10, 0,
                          [](std::int64_t, std::int64_t, std::int64_t) {}),
      std::invalid_argument);
}

TEST(ParallelForChunks, NestedCallOnSamePoolThrowsInsteadOfHanging) {
  // A chunk that calls back into its own pool would block a worker on a
  // join that may need that worker; the inner call must refuse, and the
  // refusal must surface at the outer caller like any chunk failure.
  WorkStealingPool pool(2);
  std::atomic<int> inner_chunks{0};
  EXPECT_THROW(
      parallel_for_chunks(
          pool, 0, 4, 1,
          [&](std::int64_t, std::int64_t, std::int64_t) {
            parallel_for_chunks(
                pool, 0, 4, 1,
                [&](std::int64_t, std::int64_t, std::int64_t) {
                  inner_chunks.fetch_add(1);
                });
          }),
      std::logic_error);
  EXPECT_EQ(inner_chunks.load(), 0);
  // A different pool is fine from inside a chunk.
  WorkStealingPool other(2);
  std::atomic<int> nested{0};
  parallel_for(pool, 0, 3, 1, [&](std::int64_t) {
    parallel_for(other, 0, 4, 1, [&](std::int64_t) { nested.fetch_add(1); });
  });
  EXPECT_EQ(nested.load(), 12);
}

}  // namespace
}  // namespace lbb::runtime
