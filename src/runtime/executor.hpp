// Executes a computed partition on real worker threads and reports the
// realized balance -- the end-to-end payoff of the load-balancing
// algorithms: a partition with ratio r should finish in ~r/N of the serial
// time (plus scheduling noise).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/partition.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/work_stealing.hpp"

namespace lbb::runtime {

/// Measured outcome of running every piece of a partition.
struct ExecutionReport {
  std::vector<double> processor_busy;  ///< seconds of work per processor id
  double wall_seconds = 0.0;           ///< elapsed time on the pool

  /// max processor busy time / mean busy time; compares directly with
  /// Partition::ratio() when work is proportional to weight.
  [[nodiscard]] double imbalance() const {
    if (processor_busy.empty()) {
      throw std::logic_error("ExecutionReport: empty report");
    }
    double sum = 0.0;
    double max = 0.0;
    for (double b : processor_busy) {
      sum += b;
      max = std::max(max, b);
    }
    if (sum <= 0.0) return 1.0;
    return max / (sum / static_cast<double>(processor_busy.size()));
  }
};

/// Runs `work(piece.problem)` for every piece on `pool` (one
/// parallel_for_chunks chunk per piece), attributing busy time to the
/// piece's assigned processor.  `work` must be thread-safe.  If any call
/// throws, the lowest-indexed piece's exception is rethrown after all
/// pieces ran.
template <lbb::core::Bisectable P, typename Work>
ExecutionReport execute_partition(const lbb::core::Partition<P>& partition,
                                  WorkStealingPool& pool, Work work) {
  if (partition.pieces.empty()) {
    throw std::invalid_argument("execute_partition: empty partition");
  }
  // Per-piece slots, summed per processor after the join: no shared
  // accumulator, and multi-piece processors are handled for free.
  std::vector<double> piece_seconds(partition.pieces.size(), 0.0);
  const auto wall_start = std::chrono::steady_clock::now();
  parallel_for_chunks(
      pool, 0, static_cast<std::int64_t>(partition.pieces.size()), 1,
      [&](std::int64_t index, std::int64_t, std::int64_t) {
        const auto i = static_cast<std::size_t>(index);
        const auto start = std::chrono::steady_clock::now();
        work(partition.pieces[i].problem);
        piece_seconds[i] = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
      });
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start;

  ExecutionReport report;
  report.wall_seconds = wall.count();
  report.processor_busy.assign(
      static_cast<std::size_t>(partition.processors), 0.0);
  for (std::size_t i = 0; i < piece_seconds.size(); ++i) {
    report.processor_busy[static_cast<std::size_t>(
        partition.pieces[i].processor)] += piece_seconds[i];
  }
  return report;
}

}  // namespace lbb::runtime
