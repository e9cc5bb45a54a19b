// Zero-allocation regression gate (ctest label `perf`).
//
// This binary links tools/alloc_probe/alloc_probe.cpp, so the global
// operator new/delete are interposed and lbb::stats::alloc_stats() reports
// live per-thread counters.  The gate asserts the core contract of the
// trial-workspace subsystem: once a TrialWorkspace is warm, the HF / BA /
// BA* / BA-HF hot loops perform EXACTLY ZERO heap allocations per
// partition call -- scratch comes from the workspace, pieces from its pool,
// and inline (small-buffer) erased problems bisect in place.
//
// If this test starts failing, some change re-introduced an allocation on
// the per-trial path; find it before it lands (compare the
// allocs_per_bisection counters of `lbb_bench micro_core`).
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/ba.hpp"
#include "core/ba_hf.hpp"
#include "core/batch/batch_workspace.hpp"
#include "core/hf.hpp"
#include "core/simd/dispatch.hpp"
#include "core/partitioner.hpp"
#include "core/problem.hpp"
#include "core/workspace.hpp"
#include "experiments/batch_trials.hpp"
#include "problems/alpha_dist.hpp"
#include "problems/synthetic.hpp"
#include "runtime/par_partition.hpp"
#include "runtime/work_stealing.hpp"
#include "service/partition_service.hpp"
#include "stats/alloc_stats.hpp"
#include "stats/tail_accumulator.hpp"

namespace lbb::core {
namespace {

using lbb::problems::AlphaDistribution;
using lbb::problems::SyntheticProblem;

constexpr std::int32_t kN = 1024;
constexpr int kTrials = 16;

SyntheticProblem make_problem(std::uint64_t seed) {
  return SyntheticProblem(seed, AlphaDistribution::uniform(0.1, 0.5));
}

/// Runs `body(ws, trial)` kTrials times on a warm workspace and returns
/// the allocation delta of the steady-state trials.
template <typename Body>
lbb::stats::AllocStats steady_state_allocs(Body&& body) {
  TrialWorkspace<SyntheticProblem> ws;
  // Warm-up: first calls size the scratch buffers, the piece pool, and the
  // AlphaDistribution intern pool.  Two rounds so every lazily-grown buffer
  // reaches its steady-state capacity.
  for (int warm = 0; warm < 2; ++warm) body(ws, warm);
  const auto before = lbb::stats::alloc_stats();
  for (int t = 0; t < kTrials; ++t) body(ws, 100 + t);
  return lbb::stats::alloc_stats() - before;
}

TEST(AllocGate, ProbeIsLinked) {
  // If this fails the gate below would pass vacuously -- the probe TU must
  // be compiled into this test binary (tests/CMakeLists.txt).
  ASSERT_TRUE(lbb::stats::alloc_probe_linked());
  const auto before = lbb::stats::alloc_stats();
  // Call the replaced operator directly: a `new int` expression could be
  // legally elided by the optimizer, a direct operator new call cannot.
  void* p = ::operator new(64);
  const auto delta = lbb::stats::alloc_stats() - before;
  ::operator delete(p);
  EXPECT_GE(delta.count, 1);
  EXPECT_GE(delta.bytes, 64);
}

TEST(AllocGate, HfPartitionSteadyStateIsAllocationFree) {
  const auto delta = steady_state_allocs(
      [](TrialWorkspace<SyntheticProblem>& ws, std::uint64_t seed) {
        auto part = hf_partition(ws, make_problem(seed), kN);
        ASSERT_EQ(part.pieces.size(), static_cast<std::size_t>(kN));
        ws.recycle(std::move(part));
        ws.reset();
      });
  EXPECT_EQ(delta.count, 0) << "HF hot loop allocated " << delta.bytes
                            << " bytes across " << kTrials << " warm trials";
}

TEST(AllocGate, BaPartitionSteadyStateIsAllocationFree) {
  const auto delta = steady_state_allocs(
      [](TrialWorkspace<SyntheticProblem>& ws, std::uint64_t seed) {
        auto part = ba_partition(ws, make_problem(seed), kN);
        ASSERT_EQ(part.pieces.size(), static_cast<std::size_t>(kN));
        ws.recycle(std::move(part));
        ws.reset();
      });
  EXPECT_EQ(delta.count, 0) << "BA hot loop allocated " << delta.bytes
                            << " bytes across " << kTrials << " warm trials";
}

TEST(AllocGate, BaStarPartitionSteadyStateIsAllocationFree) {
  const auto delta = steady_state_allocs(
      [](TrialWorkspace<SyntheticProblem>& ws, std::uint64_t seed) {
        auto part = ba_star_partition(ws, make_problem(seed), kN, 0.1);
        ws.recycle(std::move(part));
        ws.reset();
      });
  EXPECT_EQ(delta.count, 0);
}

TEST(AllocGate, BaHfPartitionSteadyStateIsAllocationFree) {
  const auto delta = steady_state_allocs(
      [](TrialWorkspace<SyntheticProblem>& ws, std::uint64_t seed) {
        auto part =
            ba_hf_partition(ws, make_problem(seed), kN, BaHfParams{0.1, 1.0});
        ASSERT_EQ(part.pieces.size(), static_cast<std::size_t>(kN));
        ws.recycle(std::move(part));
        ws.reset();
      });
  EXPECT_EQ(delta.count, 0) << "BA-HF hot loop allocated " << delta.bytes
                            << " bytes across " << kTrials << " warm trials";
}

TEST(AllocGate, InlineErasedBisectIsAllocationFree) {
  // Small-buffer path of AnyProblem: wrap + bisect of an inline problem
  // must not touch the heap (children are built in place in the handles).
  AnyProblem warm(make_problem(1));
  auto warm_children = warm.bisect();
  const auto before = lbb::stats::alloc_stats();
  for (int t = 0; t < kTrials; ++t) {
    AnyProblem erased(make_problem(static_cast<std::uint64_t>(t + 2)));
    auto [a, b] = erased.bisect();
    auto [aa, ab] = a.bisect();
    AnyProblem moved(std::move(aa));
    ASSERT_TRUE(moved.has_value());
  }
  const auto delta = lbb::stats::alloc_stats() - before;
  EXPECT_EQ(delta.count, 0)
      << "inline erased wrap/bisect/move allocated " << delta.bytes
      << " bytes";
}

// ---------------------------------------------------------------------------
// Parallel path (ISSUE 6): the warm work-stealing runtime must allocate
// nothing per partition call -- task frames live in pre-allocated slots,
// terminal scratch in worker-thread-local workspaces, staging in the
// caller's thread-local scratch, pieces in the caller's TrialWorkspace.
// Allocation attribution is two-sided: the caller measures its own thread's
// delta; worker-side deltas are accumulated into the job by the pool and
// surface as ParStats::alloc_count.

/// One warm parallel trial; returns caller-delta plus job-attributed
/// worker allocations.
template <typename Run>
std::int64_t par_trial_allocs(Run&& run) {
  const auto before = lbb::stats::alloc_stats();
  runtime::ParStats stats;
  run(&stats);
  const auto caller = lbb::stats::alloc_stats() - before;
  return caller.count + stats.alloc_count;
}

TEST(AllocGate, ParBaSteadyStateIsAllocationFree) {
  // A single-worker pool makes worker-side warm-up deterministic: the one
  // worker executes every terminal, so two rounds size its thread-local
  // workspace exactly like the sequential gates above.
  runtime::WorkStealingPool pool(1);
  TrialWorkspace<SyntheticProblem> ws;
  const auto run = [&](runtime::ParStats* stats) {
    auto part =
        runtime::par_ba_partition(pool, ws, make_problem(3), kN, {}, stats);
    ASSERT_EQ(part.pieces.size(), static_cast<std::size_t>(kN));
    ws.recycle(std::move(part));
  };
  for (int warm = 0; warm < 2; ++warm) run(nullptr);
  for (int t = 0; t < kTrials; ++t) {
    EXPECT_EQ(par_trial_allocs(run), 0) << "trial " << t;
  }
}

TEST(AllocGate, ParBaHfSteadyStateIsAllocationFree) {
  runtime::WorkStealingPool pool(1);
  const BaHfParams params{0.1, 1.0};
  TrialWorkspace<SyntheticProblem> ws;
  PieceVector<SyntheticProblem> recycled;
  const auto run = [&](runtime::ParStats* stats) {
    auto part = runtime::par_ba_hf_partition(pool, make_problem(5), kN,
                                             params, {}, stats);
    ASSERT_EQ(part.pieces.size(), static_cast<std::size_t>(kN));
    recycled = std::move(part.pieces);  // keep capacity live across trials
  };
  for (int warm = 0; warm < 2; ++warm) run(nullptr);
  // The workspace-free overload allocates the output pieces vector per
  // call by design; everything else must be silent.  Hold the previous
  // vector so the allocator sees a steady malloc/free pattern, and allow
  // exactly that one allocation.
  for (int t = 0; t < kTrials; ++t) {
    EXPECT_LE(par_trial_allocs(run), 1) << "trial " << t;
  }
}

TEST(AllocGate, ParBaMultiWorkerSteadyStateStabilizes) {
  // With two workers the warm-up is schedule-dependent (a worker sizes its
  // thread-local workspace the first time it executes a terminal), so warm
  // until the runtime reports consecutive allocation-free calls, then hold
  // it to zero.  A per-call regression fails every attempt; a late worker
  // wake-up only restarts the stabilization loop.
  runtime::WorkStealingPool pool(2);
  TrialWorkspace<SyntheticProblem> ws;
  const auto run = [&](runtime::ParStats* stats) {
    auto part =
        runtime::par_ba_partition(pool, ws, make_problem(7), kN, {}, stats);
    ASSERT_EQ(part.pieces.size(), static_cast<std::size_t>(kN));
    ws.recycle(std::move(part));
  };
  int consecutive_clean = 0;
  int calls = 0;
  while (consecutive_clean < kTrials && calls < 400) {
    ++calls;
    if (par_trial_allocs(run) == 0) {
      ++consecutive_clean;
    } else {
      consecutive_clean = 0;
    }
  }
  EXPECT_EQ(consecutive_clean, kTrials)
      << "parallel path never reached an allocation-free steady state in "
      << calls << " calls";
}

// ---------------------------------------------------------------------------
// Resident service: warm cache-hit serving must be allocation-free.  A hit
// is answered whole inside submit() on the caller thread (a hash lookup, a
// shared_ptr copy, the completion store), so the caller-side count covers
// the entire hit.  The worker-side count, which the service attributes
// itself from alloc_stats() deltas around every request a worker handles,
// must stay zero too: that checks that no hit reached a worker.

TEST(AllocGate, ServiceWarmCacheHitsAreAllocationFree) {
  service::ServiceConfig cfg;
  cfg.workers = 1;
  service::PartitionService svc(cfg);
  service::RequestSpec spec;
  spec.algo = "ba";
  spec.n = 256;
  service::PartitionRequest req;
  // Warm: the first call computes and caches; a few hits exercise every
  // lazily-sized structure on the hit path.
  for (int warm = 0; warm < 5; ++warm) {
    req.spec = spec;
    svc.submit(req);
    ASSERT_EQ(req.wait(), service::ServiceStatus::kOk);
    if (warm > 0) {
      ASSERT_TRUE(req.served_from_cache());
    }
  }
  const auto svc_before = svc.snapshot();
  const auto caller_before = lbb::stats::alloc_stats();
  for (int t = 0; t < kTrials; ++t) {
    req.spec = spec;
    svc.submit(req);
    ASSERT_EQ(req.wait(), service::ServiceStatus::kOk);
    ASSERT_TRUE(req.served_from_cache());
  }
  const auto caller_delta = lbb::stats::alloc_stats() - caller_before;
  const auto svc_after = svc.snapshot();
  EXPECT_EQ(caller_delta.count, 0)
      << "caller-side submit/wait allocated " << caller_delta.bytes
      << " bytes across " << kTrials << " warm cache hits";
  EXPECT_EQ(svc_after.alloc_count - svc_before.alloc_count, 0)
      << "a worker allocated "
      << (svc_after.alloc_bytes - svc_before.alloc_bytes)
      << " bytes during warm cache hits, which never reach a worker";
  EXPECT_EQ(svc_after.cache_hits - svc_before.cache_hits, kTrials);
}

TEST(AllocGate, BatchedTrialRunnerSteadyStateIsAllocationFree) {
  // The batched SoA engine's contract: once prepare() sized the workspace,
  // a full sub-batch sweep -- gathers, dense bisections, scatters, heap
  // sifts -- performs EXACTLY ZERO heap allocations, for every batchable
  // kind.  (Held to the same bar as the scalar kernels above; lbb-lint
  // covers core/batch/ statically, this covers it dynamically.)
  const AlphaDistribution dist = AlphaDistribution::uniform(0.1, 0.5);
  constexpr std::int32_t kWidth = 8;
  for (const char* algo : {"hf", "ba", "ba_star", "ba_hf"}) {
    const auto part = PartitionerRegistry::instance().create(
        algo, PartitionerConfig{0.1, 1.0, 0, {}});
    const BuiltinAlgo builtin = part->builtin();
    ASSERT_TRUE(lbb::experiments::BatchTrialRunner::supports(builtin))
        << algo;
    lbb::experiments::BatchTrialRunner runner;
    lbb::experiments::BatchTrialOutcome outcomes[kWidth];
    for (int warm = 0; warm < 2; ++warm) {
      runner.run(builtin, dist, /*base_seed=*/1, 0, kWidth, kN, kWidth,
                 outcomes);
    }
    const auto before = lbb::stats::alloc_stats();
    for (std::int64_t t = 0; t < kTrials; ++t) {
      runner.run(builtin, dist, /*base_seed=*/1, t * kWidth, (t + 1) * kWidth,
                 kN, kWidth, outcomes);
    }
    const auto delta = lbb::stats::alloc_stats() - before;
    EXPECT_EQ(delta.count, 0)
        << algo << " batched kernel allocated " << delta.bytes
        << " bytes across " << kTrials << " warm batches";
    for (const auto& outcome : outcomes) {
      EXPECT_GE(outcome.ratio, 1.0) << algo;
    }
  }
}

TEST(AllocGate, SimdKernelPathsSteadyStateAreAllocationFree) {
  // Same bar as the batched test above, but with the strongest runnable
  // vector ISA forced, so the dispatched kernels (dense bisect, gather,
  // max reduce) and the 64-byte-aligned workspace buffers are what run
  // inside the measured window.  On a portable build this degenerates to
  // the scalar table -- the gate still pins that path.
  lbb::core::simd::ScopedForceIsa force(lbb::core::simd::Isa::kAvx512);
  const AlphaDistribution dist = AlphaDistribution::uniform(0.1, 0.5);
  constexpr std::int32_t kWidth = 8;
  for (const char* algo : {"hf", "ba", "ba_hf"}) {
    const auto part = PartitionerRegistry::instance().create(
        algo, PartitionerConfig{0.1, 1.0, 0, {}});
    const BuiltinAlgo builtin = part->builtin();
    lbb::experiments::BatchTrialRunner runner;
    lbb::experiments::BatchTrialOutcome outcomes[kWidth];
    for (int warm = 0; warm < 2; ++warm) {
      runner.run(builtin, dist, /*base_seed=*/7, 0, kWidth, kN, kWidth,
                 outcomes);
    }
    const auto before = lbb::stats::alloc_stats();
    for (std::int64_t t = 0; t < kTrials; ++t) {
      runner.run(builtin, dist, /*base_seed=*/7, t * kWidth, (t + 1) * kWidth,
                 kN, kWidth, outcomes);
    }
    const auto delta = lbb::stats::alloc_stats() - before;
    EXPECT_EQ(delta.count, 0)
        << algo << " simd (" << lbb::core::simd::isa_name(force.selected())
        << ") batched kernel allocated " << delta.bytes << " bytes across "
        << kTrials << " warm batches";
  }
}

TEST(AllocGate, BatchWorkspaceBuffersAre64ByteAligned) {
  // The vector kernels are written against cacheline-aligned SoA buffers;
  // prepare() asserts the contract internally, and this pins it from the
  // outside (including after growth-only re-prepares).
  lbb::core::batch::BatchWorkspace ws;
  ws.prepare(/*width=*/8, /*n=*/64);
  ws.prepare(/*width=*/32, /*n=*/2048);  // growth path reallocates
  const auto aligned = [](const void* p) {
    return (reinterpret_cast<std::uintptr_t>(p) % 64) == 0;
  };
  EXPECT_TRUE(aligned(ws.slot_hash.data()));
  EXPECT_TRUE(aligned(ws.slot_weight.data()));
  EXPECT_TRUE(aligned(ws.frame_hash.data()));
  EXPECT_TRUE(aligned(ws.frame_weight.data()));
  EXPECT_TRUE(aligned(ws.stage_index.data()));
  EXPECT_TRUE(aligned(ws.stage_hash.data()));
  EXPECT_TRUE(aligned(ws.stage_weight.data()));
  EXPECT_TRUE(aligned(ws.heavy_hash.data()));
  EXPECT_TRUE(aligned(ws.heavy_weight.data()));
  EXPECT_TRUE(aligned(ws.light_hash.data()));
  EXPECT_TRUE(aligned(ws.light_weight.data()));
}

TEST(AllocGate, TailAccumulatorSteadyStateIsAllocationFree) {
  // The tail_study hot loop adds every trial's ratio to a preallocated
  // accumulator and merges worker scratch per chunk: both must be free of
  // steady-state allocations.
  lbb::stats::TailAccumulator cell(1.0, 8.0, 1024);
  lbb::stats::TailAccumulator scratch(1.0, 8.0, 1024);
  for (int i = 0; i < 100; ++i) scratch.add(1.0 + 0.05 * i);
  cell.merge(scratch);
  const auto before = lbb::stats::alloc_stats();
  for (int t = 0; t < kTrials; ++t) {
    scratch.reset();
    for (int i = 0; i < 1000; ++i) {
      scratch.add(1.0 + 0.001 * static_cast<double>(i * (t + 1)));
    }
    cell.merge(scratch);
  }
  const auto delta = lbb::stats::alloc_stats() - before;
  EXPECT_EQ(delta.count, 0)
      << "tail accumulation allocated " << delta.bytes << " bytes";
}

TEST(AllocGate, ArenaSteadyStateIsAllocationFree) {
  // After the first trial sized its chunks, reset() + re-allocation of the
  // same footprint must be pure pointer bumps.
  runtime::MonotonicArena arena;
  for (int i = 0; i < 64; ++i) (void)arena.create<double>(1.0);
  arena.reset();
  const auto before = lbb::stats::alloc_stats();
  for (int t = 0; t < kTrials; ++t) {
    for (int i = 0; i < 64; ++i) (void)arena.create<double>(1.0);
    arena.reset();
  }
  const auto delta = lbb::stats::alloc_stats() - before;
  EXPECT_EQ(delta.count, 0);
}

}  // namespace
}  // namespace lbb::core
