// FEM load balancing: the paper's motivating application.
//
// Simulates adaptive recursive substructuring (a graded mesh refined toward
// a singularity), producing an unbalanced FE-tree, then distributes the
// elements over P processors with HF, BA and BA-HF, and finally *executes*
// a mock element assembly on a real thread pool to show the realized
// speedup of the balanced distribution.
//
//   $ ./fem_partition [processors] [elements]
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "core/lbb.hpp"
#include "problems/fe_tree.hpp"
#include "runtime/executor.hpp"
#include "runtime/work_stealing.hpp"
#include "stats/table.hpp"

namespace {

// Mock per-element work: a short numeric kernel per leaf element.
void assemble_elements(const lbb::problems::FeTreeProblem& fragment) {
  volatile double sink = 0.0;
  const auto elements = static_cast<long>(fragment.weight());
  for (long e = 0; e < elements; ++e) {
    double local = 1.0;
    for (int i = 1; i <= 400; ++i) {
      local += 1.0 / (static_cast<double>(i) * i);
    }
    sink = sink + local;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lbb;

  const std::int32_t procs = argc > 1 ? std::atoi(argv[1]) : 8;
  const std::int32_t elements = argc > 2 ? std::atoi(argv[2]) : 20000;
  if (procs < 1 || elements < procs) {
    std::cerr << "usage: fem_partition [processors>=1] [elements>=procs]\n";
    return 1;
  }

  std::cout << "Adaptive substructuring: refining toward a singularity...\n";
  const auto tree = problems::FeTree::adaptive_refinement(
      /*seed=*/7, elements, /*focus=*/2.5, /*singularity=*/0.3);
  std::cout << "FE-tree: " << tree.leaf_count() << " elements, depth "
            << tree.depth() << " (log2 would be "
            << static_cast<int>(std::log2(elements)) << ")\n\n";

  problems::FeTreeProblem root(tree);
  const auto hf = core::hf_partition(root, procs);
  const auto ba = core::ba_partition(root, procs);
  const auto ba_hf = core::ba_hf_partition(
      root, procs, core::BaHfParams{1.0 / 3.0, 1.0});

  stats::TextTable table;
  table.set_header({"algorithm", "max elements", "ratio",
                    "bound (alpha=1/3)"});
  table.add_row({"HF", stats::fmt(hf.max_weight(), 0),
                 stats::fmt(hf.ratio(), 3),
                 stats::fmt(core::hf_ratio_bound(1.0 / 3.0), 2)});
  table.add_row({"BA", stats::fmt(ba.max_weight(), 0),
                 stats::fmt(ba.ratio(), 3),
                 stats::fmt(core::ba_ratio_bound(1.0 / 3.0, procs), 2)});
  table.add_row({"BA-HF", stats::fmt(ba_hf.max_weight(), 0),
                 stats::fmt(ba_hf.ratio(), 3),
                 stats::fmt(core::ba_hf_ratio_bound(1.0 / 3.0, 1.0, procs),
                            2)});
  table.print(std::cout);

  std::cout << "\nExecuting the element assembly on a thread pool ("
            << procs << " workers)...\n";
  runtime::WorkStealingPool pool(static_cast<unsigned>(procs));
  const auto report =
      runtime::execute_partition(hf, pool, assemble_elements);
  std::cout << "realized imbalance (max busy / mean busy): "
            << stats::fmt(report.imbalance(), 3) << "  vs partition ratio "
            << stats::fmt(hf.ratio(), 3) << "\n";
  std::cout << "wall time: " << stats::fmt(report.wall_seconds * 1e3, 1)
            << " ms\n";
  if (std::thread::hardware_concurrency() <
      static_cast<unsigned>(procs)) {
    std::cout << "(note: only " << std::thread::hardware_concurrency()
              << " hardware threads available; oversubscription adds "
                 "scheduler noise to the realized figure)\n";
  }
  return 0;
}
