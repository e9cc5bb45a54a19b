// Parallel backtrack search (the paper's "parts of the search space for an
// optimization problem" application, cf. Karp/Zhang): split the N-Queens
// search tree across processors by repeated bisection, then actually run
// the per-piece searches on a thread pool and verify that the solution
// counts add up.
//
//   $ ./parallel_search [board_size] [processors]
#include <atomic>
#include <cstdlib>
#include <iostream>

#include "core/lbb.hpp"
#include "problems/backtrack.hpp"
#include "runtime/executor.hpp"
#include "runtime/work_stealing.hpp"
#include "stats/table.hpp"

int main(int argc, char** argv) {
  using namespace lbb;

  const std::int32_t board = argc > 1 ? std::atoi(argv[1]) : 10;
  const std::int32_t procs = argc > 2 ? std::atoi(argv[2]) : 8;
  if (board < 4 || board > 13 || procs < 1) {
    std::cerr << "usage: parallel_search [board 4..13] [processors>=1]\n";
    return 1;
  }

  problems::BacktrackProblem root(board);
  std::cout << board << "-queens: search tree has " << root.weight()
            << " leaves (dead ends + solutions)\n\n";

  const auto part = core::hf_partition(root, procs);

  stats::TextTable table;
  table.set_header({"proc", "fixed rows", "tree leaves", "solutions"});
  std::atomic<long long> total_solutions{0};

  runtime::WorkStealingPool pool(static_cast<unsigned>(procs));
  const auto report = runtime::execute_partition(
      part, pool, [&total_solutions](const problems::BacktrackProblem& piece) {
        total_solutions.fetch_add(piece.count_solutions());
      });

  for (const auto& piece : part.pieces) {
    table.add_row({stats::fmt_int(piece.processor),
                   stats::fmt_int(piece.problem.fixed_rows()),
                   stats::fmt(piece.weight, 0),
                   stats::fmt_int(piece.problem.count_solutions())});
  }
  table.print(std::cout);

  std::cout << "\ntotal solutions found in parallel: "
            << total_solutions.load() << "\n"
            << "work balance ratio (max leaves / ideal): "
            << stats::fmt(part.ratio(), 3) << "\n"
            << "realized imbalance on the pool: "
            << stats::fmt(report.imbalance(), 3) << " (wall "
            << stats::fmt(report.wall_seconds * 1e3, 2) << " ms)\n";
  return 0;
}
