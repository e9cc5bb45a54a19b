// Partition results shared by all load-balancing algorithms.
//
// Every algorithm in this library takes a problem p and a processor count N
// and returns a Partition<P>: at most N subproblems, each assigned to a
// distinct processor, together with the statistics the paper reports
// (maximum weight, performance ratio vs the ideal w(p)/N, bisection counts,
// tree depth) and an optional full BisectionTree record.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/bisection_tree.hpp"
#include "core/problem.hpp"

namespace lbb::core {

/// Processor indices are 0-based [0, N) in this library.  (The paper numbers
/// processors 1..N; the shift is purely cosmetic.)
using ProcessorId = std::int32_t;

/// One final subproblem and its assignment.
template <Bisectable P>
struct Piece {
  P problem;
  double weight = 0.0;
  ProcessorId processor = 0;
  std::int32_t depth = 0;      ///< depth in the bisection tree
  NodeId node = kNoNode;       ///< id in the recorded tree, if recorded
};

/// True when PieceAllocator leaves a default-constructed T unwritten.
template <class T>
inline constexpr bool leaves_unwritten_v =
    std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>;

/// The allocator of Partition::pieces.  It behaves exactly like
/// std::allocator, except that the no-argument construct() writes nothing
/// when leaves_unwritten_v<T> holds.  So `pieces.resize(n)` on such a type
/// only moves the end pointer: the parallel partitioners (par_partition.hpp)
/// size a fresh output in O(1) and their workers construct every piece in
/// place, so each page is first touched by the worker that fills it, in
/// parallel, instead of being zero-filled serially on the caller thread
/// first.  Every other constructor call, and every other T, is
/// std::allocator's value- or argument-initialization.
template <class T>
struct PieceAllocator {
  using value_type = T;
  using propagate_on_container_move_assignment = std::true_type;
  using is_always_equal = std::true_type;

  PieceAllocator() noexcept = default;
  template <class U>
  PieceAllocator(const PieceAllocator<U>& /*other*/) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return std::allocator<T>().allocate(n);
  }
  void deallocate(T* p, std::size_t n) noexcept {
    std::allocator<T>().deallocate(p, n);
  }

  template <class... Args>
  void construct(T* p, Args&&... args) noexcept(
      std::is_nothrow_constructible_v<T, Args...>) {
    if constexpr (sizeof...(Args) != 0 || !leaves_unwritten_v<T>) {
      ::new (static_cast<void*>(p)) T(std::forward<Args>(args)...);
    }
  }

  template <class U>
  bool operator==(const PieceAllocator<U>& /*other*/) const noexcept {
    return true;
  }
};

/// One piece per processor at most; see PieceAllocator.
template <Bisectable P>
using PieceVector = std::vector<Piece<P>, PieceAllocator<Piece<P>>>;

// The type-erased handle owns its storage, so its pieces are always
// written when sized: the registry's par:* entries, which partition
// AnyProblem, still value-initialize a fresh output on the caller thread.
static_assert(!leaves_unwritten_v<Piece<AnyProblem>>);

/// Algorithm-independent knobs.
struct PartitionOptions {
  /// Record the full bisection tree (weights + structure).  Disable for
  /// large-N Monte-Carlo experiments to save memory.
  bool record_tree = false;
};

/// Result of running a load-balancing algorithm.
template <Bisectable P>
struct Partition {
  PieceVector<P> pieces;          ///< at most N pieces, processors distinct
  double total_weight = 0.0;      ///< w(p) of the input problem
  std::int32_t processors = 0;    ///< the N that was requested
  std::int64_t bisections = 0;    ///< bisection steps performed
  std::int32_t max_depth = 0;     ///< max leaf depth in the bisection tree
  BisectionTree tree;             ///< populated iff record_tree was set

  /// Maximum subproblem weight, max_i w(p_i).
  [[nodiscard]] double max_weight() const {
    double m = 0.0;
    for (const auto& piece : pieces) m = std::max(m, piece.weight);
    return m;
  }

  /// Performance ratio max_i w(p_i) / (w(p)/N) -- the quantity reported in
  /// Table 1 and Figure 5 of the paper.  1.0 is a perfect balance.
  [[nodiscard]] double ratio() const {
    if (pieces.empty() || total_weight <= 0.0) {
      throw std::logic_error("Partition::ratio on empty partition");
    }
    return max_weight() / (total_weight / static_cast<double>(processors));
  }

  /// Sorted (ascending) piece weights; handy for cross-algorithm equality
  /// checks (PHF == HF).
  [[nodiscard]] std::vector<double> sorted_weights() const {
    std::vector<double> w;
    w.reserve(pieces.size());
    for (const auto& piece : pieces) w.push_back(piece.weight);
    std::sort(w.begin(), w.end());
    return w;
  }

  /// Validates assignment invariants: 1 <= pieces <= N, processors distinct
  /// and within [0, N), weights positive and summing to total_weight.
  [[nodiscard]] bool validate(double tol = 1e-9) const {
    if (pieces.empty() ||
        pieces.size() > static_cast<std::size_t>(processors)) {
      return false;
    }
    std::vector<bool> used(static_cast<std::size_t>(processors), false);
    double sum = 0.0;
    for (const auto& piece : pieces) {
      if (piece.processor < 0 || piece.processor >= processors) return false;
      auto idx = static_cast<std::size_t>(piece.processor);
      if (used[idx]) return false;
      used[idx] = true;
      if (piece.weight <= 0.0) return false;
      sum += piece.weight;
    }
    return std::abs(sum - total_weight) <=
           std::max(tol * total_weight, tol);
  }
};

}  // namespace lbb::core
