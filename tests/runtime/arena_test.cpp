// Tests for MonotonicArena (the bump allocator behind trial-scoped
// AnyProblem storage) and TrialWorkspace's pooling contract.
#include "runtime/arena.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "core/ba.hpp"
#include "core/hf.hpp"
#include "core/problem.hpp"
#include "core/workspace.hpp"
#include "problems/alpha_dist.hpp"
#include "problems/synthetic.hpp"

namespace lbb::runtime {
namespace {

TEST(MonotonicArena, AllocationsAreAlignedAndDisjoint) {
  MonotonicArena arena;
  std::vector<void*> ptrs;
  for (std::size_t align : {1u, 2u, 8u, 16u, 64u}) {
    for (int i = 0; i < 10; ++i) {
      void* p = arena.allocate(24, align);
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u);
      std::memset(p, 0xAB, 24);  // asan would flag overlap/overflow
      ptrs.push_back(p);
    }
  }
  for (std::size_t i = 1; i < ptrs.size(); ++i) {
    EXPECT_NE(ptrs[i], ptrs[i - 1]);
  }
  EXPECT_GE(arena.bytes_used_peak(), 50u * 24u);
}

TEST(MonotonicArena, ResetReusesChunks) {
  MonotonicArena arena(/*chunk_bytes=*/256);
  void* first = arena.allocate(64, 8);
  (void)arena.allocate(64, 8);
  const std::size_t reserved = arena.bytes_reserved();
  arena.reset();
  // Same request sequence lands on the same retained chunk (no growth).
  void* again = arena.allocate(64, 8);
  EXPECT_EQ(first, again);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

TEST(MonotonicArena, GrowsAcrossChunksAndSatisfiesOversized) {
  MonotonicArena arena(/*chunk_bytes=*/128);
  // Fill beyond one chunk.
  for (int i = 0; i < 10; ++i) {
    void* p = arena.allocate(100, 8);
    ASSERT_NE(p, nullptr);
    std::memset(p, i, 100);
  }
  // Oversized request: dedicated chunk, still served.
  void* big = arena.allocate(4096, 64);
  ASSERT_NE(big, nullptr);
  std::memset(big, 0x5A, 4096);
  EXPECT_GE(arena.bytes_reserved(), 4096u);
}

TEST(MonotonicArena, CreateConstructsInPlace) {
  MonotonicArena arena;
  struct Value {
    std::int64_t a;
    double b;
  };
  Value* v = arena.create<Value>(Value{7, 2.5});
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->a, 7);
  EXPECT_DOUBLE_EQ(v->b, 2.5);
}

TEST(MonotonicArena, ReleaseDropsEverything) {
  MonotonicArena arena;
  (void)arena.allocate(1000, 8);
  EXPECT_GT(arena.bytes_reserved(), 0u);
  arena.release();
  EXPECT_EQ(arena.bytes_reserved(), 0u);
  // Still usable afterwards.
  EXPECT_NE(arena.allocate(16, 8), nullptr);
}

TEST(MonotonicArena, MoveTransfersOwnership) {
  MonotonicArena a(/*chunk_bytes=*/256);
  void* p = a.allocate(32, 8);
  std::memset(p, 1, 32);
  MonotonicArena b = std::move(a);
  EXPECT_GT(b.bytes_reserved(), 0u);
  // Memory from the moved-from arena stays valid under the new owner.
  void* q = b.allocate(32, 8);
  EXPECT_NE(q, nullptr);
}

using lbb::core::TrialWorkspace;
using lbb::problems::AlphaDistribution;
using lbb::problems::SyntheticProblem;

TEST(TrialWorkspace, RecycleReusesPieceStorage) {
  TrialWorkspace<SyntheticProblem> ws;
  SyntheticProblem p(3, AlphaDistribution::uniform(0.1, 0.5));
  auto part = lbb::core::hf_partition(ws, p, 64);
  const auto* data = part.pieces.data();
  ws.recycle(std::move(part));
  auto again = lbb::core::hf_partition(ws, p, 64);
  // The recycled buffer backs the next partition (same capacity, and with
  // an equal-size request the identical allocation).
  EXPECT_EQ(again.pieces.data(), data);
  EXPECT_EQ(again.pieces.size(), 64u);
}

TEST(TrialWorkspace, WorkspaceRunsMatchColdRuns) {
  TrialWorkspace<SyntheticProblem> ws;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SyntheticProblem p(seed, AlphaDistribution::uniform(0.1, 0.5));
    auto warm = lbb::core::hf_partition(ws, p, 128);
    auto cold = lbb::core::hf_partition(p, 128);
    EXPECT_EQ(warm.sorted_weights(), cold.sorted_weights()) << seed;
    ws.recycle(std::move(warm));
    ws.reset();
  }
}

TEST(TrialWorkspace, ReleaseKeepsWorkspaceUsable) {
  TrialWorkspace<SyntheticProblem> ws;
  SyntheticProblem p(5, AlphaDistribution::uniform(0.1, 0.5));
  ws.recycle(lbb::core::hf_partition(ws, p, 32));
  ws.release();
  auto part = lbb::core::hf_partition(ws, p, 32);
  EXPECT_EQ(part.pieces.size(), 32u);
}

/// Too large for AnyProblem's inline buffer, so a handle built on an arena
/// keeps it there; counts its live instances.
struct CountedBigProblem {
  static inline int live = 0;
  double w = 1.0;
  std::array<double, 8> pad{};

  explicit CountedBigProblem(double weight) : w(weight) { ++live; }
  CountedBigProblem(const CountedBigProblem& o) : w(o.w), pad(o.pad) {
    ++live;
  }
  CountedBigProblem(CountedBigProblem&& o) noexcept : w(o.w), pad(o.pad) {
    ++live;
  }
  CountedBigProblem& operator=(const CountedBigProblem&) = default;
  CountedBigProblem& operator=(CountedBigProblem&&) noexcept = default;
  ~CountedBigProblem() { --live; }

  [[nodiscard]] double weight() const noexcept { return w; }
  [[nodiscard]] std::pair<CountedBigProblem, CountedBigProblem> bisect()
      const {
    return {CountedBigProblem(w * 0.6), CountedBigProblem(w * 0.4)};
  }
};
static_assert(!lbb::core::AnyProblem::fits_inline_v<CountedBigProblem>);

TEST(TrialWorkspace, ResetDestroysPooledPiecesBeforeArenaRewind) {
  CountedBigProblem::live = 0;
  {
    TrialWorkspace<lbb::core::AnyProblem> ws;
    auto part = lbb::core::ba_partition(
        ws, lbb::core::AnyProblem(CountedBigProblem(1.0), ws.arena()), 16);
    ASSERT_EQ(part.pieces.size(), 16u);
    EXPECT_EQ(CountedBigProblem::live, 16);
    // The pool keeps the recycled pieces alive (arena-backed)...
    ws.recycle(std::move(part));
    EXPECT_EQ(CountedBigProblem::live, 16);
    // ...until reset(), which must destroy them before it rewinds the
    // arena they live in.
    ws.reset();
    EXPECT_EQ(CountedBigProblem::live, 0);

    // Same for a workspace destroyed while its pool holds arena-backed
    // pieces: they go before the arena (the asan preset checks this).
    ws.recycle(lbb::core::ba_partition(
        ws, lbb::core::AnyProblem(CountedBigProblem(1.0), ws.arena()), 16));
    EXPECT_EQ(CountedBigProblem::live, 16);
  }
  EXPECT_EQ(CountedBigProblem::live, 0);
}

}  // namespace
}  // namespace lbb::runtime
