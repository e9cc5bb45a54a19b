// Approximate-weight wrapper (robustness study).
//
// The paper's model "assumes that the weight of a problem can be
// calculated (or approximated) easily".  This adaptor models the
// *approximated* case: the load balancer sees a perturbed weight
//   w_noisy = w_true * (1 + epsilon * u),   u ~ U[-1, 1] per node
// (path-hashed, so deterministic per node and algorithm-order-free), while
// the true weight stays accessible for evaluating the realized balance.
// Conservation holds for the *true* weights; the noisy weights are what
// HF ranks by and BA splits processors by, so growing epsilon degrades
// the achieved (true) ratio -- quantified by `lbb_bench noise_robustness`.
#pragma once

#include <cstdint>
#include <utility>

#include "core/partition.hpp"
#include "core/problem.hpp"
#include "problems/synthetic.hpp"
#include "stats/rng.hpp"

namespace lbb::problems {

/// Wraps any Bisectable problem, perturbing the weight the algorithms see.
template <lbb::core::Bisectable P>
class NoisyWeightProblem {
 public:
  /// `epsilon` in [0, 1): relative weight error bound.
  NoisyWeightProblem(P inner, double epsilon, std::uint64_t seed)
      : NoisyWeightProblem(std::move(inner), epsilon,
                           lbb::stats::splitmix64(seed ^ 0x5eed0fULL), 0) {}

  /// The perturbed weight (what the load balancer ranks by).
  [[nodiscard]] double weight() const {
    const double u =
        2.0 * lbb::stats::hash_to_unit(lbb::stats::splitmix64(node_hash_)) -
        1.0;
    return true_weight() * (1.0 + epsilon_ * u);
  }

  /// The real weight (for evaluation).
  [[nodiscard]] double true_weight() const { return inner_.weight(); }

  [[nodiscard]] const P& inner() const noexcept { return inner_; }

  [[nodiscard]] std::pair<NoisyWeightProblem, NoisyWeightProblem> bisect() {
    auto [a, b] = inner_.bisect();
    NoisyWeightProblem heavy(std::move(a), epsilon_,
                             lbb::stats::mix64(node_hash_, 1), depth_ + 1);
    NoisyWeightProblem light(std::move(b), epsilon_,
                             lbb::stats::mix64(node_hash_, 2), depth_ + 1);
    return {std::move(heavy), std::move(light)};
  }

 private:
  NoisyWeightProblem(P inner, double epsilon, std::uint64_t node_hash,
                     std::int32_t depth)
      : inner_(std::move(inner)),
        epsilon_(epsilon),
        node_hash_(node_hash),
        depth_(depth) {}

  P inner_;
  double epsilon_;
  std::uint64_t node_hash_;
  std::int32_t depth_ = 0;
};

// The canonical noisy instance (noise over the paper's stochastic model,
// what `lbb_bench noise_robustness` erases) must stay inside AnyProblem's
// inline buffer so the erased hot path never allocates; it is exactly at
// the 48-byte limit today, so any member added to either class trips this.
static_assert(sizeof(NoisyWeightProblem<SyntheticProblem>) == 48,
              "NoisyWeightProblem<SyntheticProblem> grew past 48 bytes");
static_assert(
    lbb::core::AnyProblem::fits_inline_v<NoisyWeightProblem<SyntheticProblem>>,
    "NoisyWeightProblem<SyntheticProblem> must fit AnyProblem's inline "
    "buffer (allocation-free erased wrap/bisect)");
static_assert(
    lbb::core::leaves_unwritten_v<
        lbb::core::Piece<NoisyWeightProblem<SyntheticProblem>>>,
    "Piece<NoisyWeightProblem<SyntheticProblem>> must stay trivially "
    "copyable: the parallel partitioners size its output without writing "
    "it");

/// The realized (true-weight) performance ratio of a partition computed on
/// noisy weights.
template <lbb::core::Bisectable P>
[[nodiscard]] double true_ratio(
    const lbb::core::Partition<NoisyWeightProblem<P>>& partition) {
  double total = 0.0;
  double max = 0.0;
  for (const auto& piece : partition.pieces) {
    const double w = piece.problem.true_weight();
    total += w;
    if (w > max) max = w;
  }
  return max / (total / static_cast<double>(partition.processors));
}

}  // namespace lbb::problems
