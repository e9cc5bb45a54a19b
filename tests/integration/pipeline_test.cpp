// End-to-end integration tests: generate a realistic workload, partition
// it with every algorithm, simulate the parallel load-balancing run, and
// execute the result on real threads -- checking that all the pieces of
// the library agree with each other along the way.
#include <gtest/gtest.h>

#include <atomic>

#include "core/analysis.hpp"
#include "core/lbb.hpp"
#include "problems/backtrack.hpp"
#include "problems/fe_tree.hpp"
#include "runtime/executor.hpp"
#include "runtime/par_partition.hpp"
#include "runtime/work_stealing.hpp"
#include "sim/par_ba.hpp"
#include "sim/phf.hpp"

namespace {

using namespace lbb;

TEST(Pipeline, FemWorkloadEndToEnd) {
  // 1. Substrate: adaptive substructuring produces an unbalanced FE-tree.
  const auto tree = problems::FeTree::adaptive_refinement(42, 4000, 2.5);
  problems::FeTreeProblem root(tree);
  const double alpha = 1.0 / 3.0;  // separator guarantee for unit leaves
  const int n = 16;

  // 2. Core algorithms agree on invariants and ordering.
  core::PartitionOptions opt;
  opt.record_tree = true;
  const auto hf = core::hf_partition(root, n, opt);
  const auto ba = core::ba_partition(root, n);
  const auto ba_hf =
      core::ba_hf_partition(root, n, core::BaHfParams{alpha, 1.0});
  ASSERT_TRUE(hf.validate());
  ASSERT_TRUE(ba.validate());
  ASSERT_TRUE(ba_hf.validate());
  EXPECT_LE(hf.ratio(), ba_hf.ratio() + 1e-9);
  EXPECT_LE(hf.ratio(), core::hf_ratio_bound(alpha) + 1e-9);

  // 3. The recorded tree's realized bisector quality matches the theory.
  const auto tstats = core::tree_statistics(hf.tree);
  EXPECT_GE(tstats.min_alpha_hat, alpha - 0.05);  // integral-leaf slack
  EXPECT_EQ(tstats.leaves, static_cast<std::size_t>(n));

  // 4. PHF on the simulated machine reproduces HF's partition; at small N
  //    its collective overhead dominates (it only beats sequential HF at
  //    scale), so the speed comparison uses a larger machine.
  const auto phf = sim::phf_simulate(root, n, alpha);
  EXPECT_TRUE(core::same_weights(phf.partition, hf, 1e-12));
  // (At N=256 the integral leaf costs produce exact weight ties, under
  // which HF's partition is not unique -- see the tie note in sim/phf.hpp
  // -- so only bound-level agreement is asserted there.)
  const int big = 256;
  const auto phf_big = sim::phf_simulate(root, big, alpha);
  EXPECT_LE(phf_big.partition.ratio(), core::hf_ratio_bound(alpha) + 0.1);
  EXPECT_LT(phf_big.metrics.makespan, 2.0 * (big - 1));

  // 5. The parallel partitioner agrees with sequential BA.
  runtime::WorkStealingPool pool(4);
  const auto par_ba = runtime::par_ba_partition(pool, root, n);
  EXPECT_TRUE(core::same_weights(par_ba, ba, 0.0));

  // 6. Executing the partition (on the same pool) does all the work
  //    exactly once.
  std::atomic<long long> elements{0};
  static_cast<void>(runtime::execute_partition(
      hf, pool, [&elements](const problems::FeTreeProblem& piece) {
        elements.fetch_add(static_cast<long long>(piece.weight()));
      }));
  EXPECT_EQ(elements.load(), 4000);
}

TEST(Pipeline, SearchWorkloadEndToEnd) {
  problems::BacktrackProblem root(9);
  const int n = 10;
  const auto part = core::hf_partition(root, n);
  ASSERT_TRUE(part.validate());

  // Solutions found in parallel equal the known 9-queens count.
  runtime::WorkStealingPool pool(3);
  std::atomic<long long> solutions{0};
  const auto report = runtime::execute_partition(
      part, pool, [&solutions](const problems::BacktrackProblem& piece) {
        solutions.fetch_add(piece.count_solutions());
      });
  EXPECT_EQ(solutions.load(), 352);
  EXPECT_EQ(report.processor_busy.size(), static_cast<std::size_t>(n));

  // The simulated BA run and the core BA run agree on this substrate too.
  const auto sim_ba = sim::ba_simulate(root, n);
  const auto core_ba = core::ba_partition(root, n);
  EXPECT_TRUE(core::same_weights(sim_ba.partition, core_ba, 0.0));
  EXPECT_EQ(sim_ba.metrics.collective_ops, 0);
}

TEST(Pipeline, StatisticsAreConsistentAcrossViews) {
  const auto tree = problems::FeTree::adaptive_refinement(7, 2000, 2.0);
  problems::FeTreeProblem root(tree);
  core::PartitionOptions opt;
  opt.record_tree = true;
  const auto part = core::hf_partition(root, 12, opt);

  const auto pstats = core::piece_statistics(part);
  const auto tstats = core::tree_statistics(part.tree);
  EXPECT_EQ(pstats.pieces, tstats.leaves);
  EXPECT_DOUBLE_EQ(pstats.ratio, part.ratio());
  EXPECT_EQ(tstats.internal_nodes, static_cast<std::size_t>(part.bisections));
  EXPECT_EQ(tstats.max_depth, part.max_depth);
  // Mean piece weight times piece count equals the total weight.
  EXPECT_NEAR(pstats.mean_weight * static_cast<double>(pstats.pieces),
              part.total_weight, 1e-9);
}

}  // namespace
