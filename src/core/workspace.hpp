// TrialWorkspace: trial-scoped memory for the partitioning hot path.
//
// One workspace per thread, reused across trials.  It owns
//
//   * the scratch buffers of the algorithm kernels (HF's slot array,
//     per-slot weights and selection heap; the BA-family frame stack),
//   * a piece pool that recycles the Partition::pieces storage (a
//     PieceVector<P>) of finished trials back into the next partition call
//     (the pool holds the last result's pieces until the next take, reset
//     or release), and
//   * a MonotonicArena for arena-backed AnyProblem storage (problems too
//     large for the handle's inline buffer).
//
// With a warm workspace, hf_partition / ba_partition / ba_star_partition /
// ba_hf_partition perform ZERO heap allocations per trial -- the
// `perf_alloc_gate_test` ctest gate (label `perf`) asserts this with an
// interposing allocation counter.  The workspace only changes where bytes
// live, never what the algorithms compute: every workspace-backed call is
// byte-identical to its workspace-free overload (the `driver` golden gates
// cover the full experiment pipeline).
//
// Layering note: runtime/arena.hpp is a freestanding header (standard
// library only), so including it here adds no link edge from lbb_core to
// lbb_runtime.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/detail/scratch.hpp"
#include "core/partition.hpp"
#include "core/problem.hpp"
#include "core/thread_annotations.hpp"
#include "runtime/arena.hpp"

namespace lbb::core {

/// Per-thread reusable memory for partitioning trials.  Not thread-safe;
/// the experiment engine keeps one per worker thread (thread_local) and
/// the single-shot partition overloads create a cold one on the stack.
template <Bisectable P>
class TrialWorkspace {
 public:
  TrialWorkspace() = default;
  TrialWorkspace(TrialWorkspace&&) noexcept = default;
  TrialWorkspace& operator=(TrialWorkspace&&) noexcept = default;
  TrialWorkspace(const TrialWorkspace&) = delete;
  TrialWorkspace& operator=(const TrialWorkspace&) = delete;
  /// Pooled pieces may live in arena_, which is declared after the pool and
  /// so would be destroyed before it; destroy them first.
  ~TrialWorkspace() { piece_pool_.clear(); }

  /// Arena for oversized type-erased problems; reset between trials by
  /// reset() once every handle into it has been destroyed.
  [[nodiscard]] runtime::MonotonicArena& arena() noexcept { return arena_; }

  /// Takes a pieces vector for a new Partition: the recycled buffer of a
  /// previous trial when one is pooled (capacity retained -- no
  /// allocation), otherwise a fresh vector.  Always empty and reserved to
  /// `n`, for kernels that push_back their pieces.
  LBB_HOT [[nodiscard]] PieceVector<P> take_pieces(std::size_t n) {
    PieceVector<P> pieces = take_live_pieces();
    pieces.clear();
    // lbb-lint: allow(hot-alloc): recycled buffer -- capacity is retained
    // across trials, so this reserve only allocates until the pool is warm
    // (the runtime alloc gate asserts zero from then on).
    pieces.reserve(n);
    return pieces;
  }

  /// Takes the pooled vector as it is: the last recycled result's pieces
  /// stay alive, so a caller that writes every output slot by index (the
  /// parallel partitioners) writes over them instead of clearing and
  /// refilling -- constructing in place when core::leaves_unwritten_v holds
  /// for Piece<P>, move-assigning otherwise.  Empty when nothing is pooled.
  LBB_HOT [[nodiscard]] PieceVector<P> take_live_pieces() noexcept {
    return std::exchange(piece_pool_, PieceVector<P>());
  }

  /// Returns a finished trial's Partition storage to the pool.  Call after
  /// the trial's statistics have been extracted; the partition is consumed.
  /// Its pieces stay alive in the pool until the next take, reset() or
  /// release().
  LBB_HOT void recycle(Partition<P>&& used) {
    if (used.pieces.capacity() > piece_pool_.capacity()) {
      piece_pool_ = std::move(used.pieces);
    }
  }

  /// Destroys the pooled pieces, then rewinds the arena (buffers keep their
  /// capacity regardless).  Every other arena-backed AnyProblem from the
  /// previous trial must be dead.
  void reset() noexcept {
    piece_pool_.clear();
    arena_.reset();
  }

  /// Drops all retained memory (buffers and arena chunks).  The pooled
  /// pieces go before the arena they may live in.
  void release() noexcept {
    hf_slots = std::vector<detail::HfSlot<P>>();
    slot_weight = std::vector<double>();
    heap = detail::HfHeap();
    frames = std::vector<detail::BaFrame<P>>();
    piece_pool_ = PieceVector<P>();
    arena_.release();
  }

  // Kernel scratch, used directly by detail::hf_run / ba_run / ba_hf_run.
  // Each kernel clears what it uses on entry; contents are dead between
  // runs (moved-from problems only).  Unlike these, the piece pool holds
  // the last result's pieces until the next take, reset or release.
  std::vector<detail::HfSlot<P>> hf_slots;
  std::vector<double> slot_weight;
  detail::HfHeap heap;
  std::vector<detail::BaFrame<P>> frames;

 private:
  PieceVector<P> piece_pool_;
  runtime::MonotonicArena arena_;
};

}  // namespace lbb::core
