// Parallel BA / BA' / BA-HF on the work-stealing runtime, byte-identical
// to the sequential partitioners (ISSUE 6 tentpole).
//
// Decomposition: the recursion's natural processor-range splits are the
// tasks.  A task executes a *chain*: it repeatedly bisects its subproblem,
// spawns the lighter child (which owns the upper processor sub-range) onto
// the local deque, and continues with the heavier child -- exactly the
// paper's "p1 stays on P_i, p2 is sent to P_{i+n1}".  When a chain's
// processor count drops to the grain (or the family's own leaf/switch
// condition fires), the remaining sub-range is finished with the unmodified
// sequential kernel (detail::ba_run / ba_hf_run) on one worker, drawing
// scratch from a worker-thread-local TrialWorkspace.
//
// Determinism argument (why the output is byte-identical to sequential
// ba/ba_star/ba_hf for every thread count, grain and steal order):
//   1. Which frames exist, their processor ranges, and where chains end is
//      a pure function of (problem, weights, n, grain, family thresholds)
//      -- never of scheduling.  Work stealing only changes WHEN/WHERE a
//      frame runs, not WHICH frames run.
//   2. The output is sized to n before the job starts, and a terminal
//      over processors [lo, lo+k) constructs its i-th piece straight into
//      out.pieces[lo + i] (move-assigns it, for a piece that is not
//      trivially copyable).  Terminal ranges are disjoint, so there are no
//      write conflicts and no ordering sensitivity.  The sequential kernels
//      emit pieces in strictly increasing processor order (BA pops the
//      heavier/low-range child first; HF emits slots in creation order at
//      proc_lo + i).  BA and BA-HF give every processor exactly one piece,
//      so the parallel layout already is the sequential order.  BA' may
//      leave a terminal's range short; one in-place pass over per-terminal
//      (range, count) records, in ascending processor order, closes the
//      gaps and reproduces the sequential piece order exactly.
//   3. The recorded BisectionTree is rebuilt after the join by replaying
//      chain events and terminal subtrees in the sequential DFS order
//      (see detail::stitch_tree), which reassigns the exact sequential
//      node ids; piece->node links are patched through the same mapping.
//
// Allocation: the steady-state non-recording path performs ZERO heap
// allocations once warm -- task frames live in pre-allocated slots,
// terminal scratch in thread-local workspaces, the root slot and BA'
// terminal records in a caller-thread ParScratch, and the pieces vector
// can be recycled through a caller TrialWorkspace (the extended
// perf_alloc_gate_test pins this).  A recycled vector still holds the last
// result's pieces, so the workspace overload writes over them in place.
// Without a workspace, or when n grows, the output needs new slots.  For a
// trivially copyable piece (core::leaves_unwritten_v: SyntheticProblem and
// its noisy wrapper, pinned by static_asserts) core::PieceAllocator sizes
// them without writing, in O(1), and the terminals' constructions are the
// first touch of every page -- on the workers, in parallel.  Any other
// piece (AnyProblem's among them) is filled serially on the caller thread
// first, with a value-initialized P or with copies of the root problem; a
// P that is neither default-constructible nor copyable runs the
// sequential kernel.  Tree recording allocates (the tree itself does),
// exactly like sequential.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <deque>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/ba.hpp"
#include "core/ba_hf.hpp"
#include "core/bisection_tree.hpp"
#include "core/bounds.hpp"
#include "core/detail/build_context.hpp"
#include "core/hf.hpp"
#include "core/partition.hpp"
#include "core/problem.hpp"
#include "core/split.hpp"
#include "core/workspace.hpp"
#include "runtime/work_stealing.hpp"

namespace lbb::runtime {

/// Knobs of a parallel partition call.
struct ParOptions {
  core::PartitionOptions partition;  ///< record_tree, as sequential
  /// Chains stop and run the sequential kernel once their processor count
  /// is <= grain.  0 = auto: n / (8 * workers), clamped to [1, 8192].
  /// Affects decomposition granularity only, never the output.
  std::int32_t grain = 0;
};

/// Per-call runtime counters (reported as par.* through RunContext by the
/// registered partitioners; also available directly).
struct ParStats {
  std::int64_t spawns = 0;       ///< tasks pushed to deques
  std::int64_t steals = 0;       ///< tasks executed by a non-owner
  /// Worker time inside the call's [inject, join] window not spent running
  /// the call's tasks: workers x wall minus the tasks' summed run time.
  std::int64_t idle_ns = 0;
  std::int64_t alloc_count = 0;  ///< worker-side allocations of the job
  std::int64_t alloc_bytes = 0;
  std::int32_t grain = 0;        ///< effective grain used
};

namespace detail {

enum class ParFamily { kBa, kBaStar, kBaHf };

/// Chain-recording node for tree stitching: one fragment per task (chain),
/// holding the chain's bisection events in order and its terminal run.
/// Only populated when record_tree is set.
struct Fragment {
  struct ChainEvent {
    double heavy_weight;  ///< left/heavier child (the chain continues)
    double light_weight;  ///< right/lighter child (spawned)
    Fragment* light;      ///< the spawned child's fragment
  };
  std::vector<ChainEvent> events;
  std::int32_t term_lo = 0;           ///< terminal's processor range start
  std::int32_t term_count = 0;        ///< pieces the terminal wrote
  core::BisectionTree subtree;        ///< terminal kernel's local tree
};

/// What the terminal starting at a processor wrote: its range length and
/// its piece count (smaller than the range only under BA' pruning).
struct TerminalSpan {
  std::int32_t n;
  std::int32_t count;
};

/// The typed job block: parameters, output slots and fragment arenas.
template <core::Bisectable P>
class ParJob : public ParJobBase {
 public:
  ParFamily family = ParFamily::kBa;
  double prune_below = -1.0;          ///< BA' threshold (absolute weight)
  std::int32_t switch_threshold = 0;  ///< BA-HF's HF switch
  std::int32_t grain = 1;
  bool record = false;
  WorkStealingPool* ws_pool = nullptr;
  /// out.pieces, sized to n: a terminal over [lo, lo+k) writes its pieces
  /// to pieces[lo ..].  Disjoint terminal ranges mean disjoint writes.
  core::Piece<P>* pieces = nullptr;
  /// BA' only: spans[lo] records the terminal starting at processor lo,
  /// for the gap pass after the join.  nullptr for BA and BA-HF, whose
  /// terminals fill their whole range.
  TerminalSpan* spans = nullptr;
  std::atomic<std::int32_t> max_depth{0};
  /// Per-worker fragment arenas (std::deque: stable addresses under
  /// emplace_back, so fragments can be handed across workers).  Sized to
  /// the pool's worker count when recording; untouched otherwise.
  std::vector<std::deque<Fragment>> frag_arena;
  Fragment root_frag;
};

/// One task frame.  Placement-constructed into a TaskSlot's payload; falls
/// back to the fully sequential kernel at compile time when too large.
template <core::Bisectable P>
struct ParFrame {
  ParJob<P>* job;
  P problem;
  double weight;
  std::int32_t n;
  core::ProcessorId proc_lo;
  std::int32_t depth;
  Fragment* frag;  ///< nullptr unless recording
};

/// True when P runs on the pool: its frame fits a task slot, and output
/// slots can be pre-filled (default-constructed or copied from the root).
template <core::Bisectable P>
inline constexpr bool runs_parallel_v =
    sizeof(ParFrame<P>) <= TaskSlot::kPayloadBytes &&
    alignof(ParFrame<P>) <= alignof(std::max_align_t) &&
    (std::default_initializable<P> || std::copy_constructible<P>);

/// True when the chain must stop and hand the frame to the sequential
/// kernel.  Supersets of the sequential leaf/switch conditions, so the
/// kernel's own first-iteration checks reproduce sequential behavior.
template <core::Bisectable P>
[[nodiscard]] bool chain_terminal(const ParJob<P>& job,
                                  const ParFrame<P>& f) noexcept {
  if (f.n <= job.grain) return true;
  switch (job.family) {
    case ParFamily::kBa:
      return f.n == 1;
    case ParFamily::kBaStar:
      return f.n == 1 || f.weight <= job.prune_below;
    case ParFamily::kBaHf:
      return f.n < job.switch_threshold;
  }
  return true;
}

/// Runs the sequential kernel over the frame's whole processor sub-range
/// on this worker, moving its pieces into the output slots.  A trivially
/// copyable piece is constructed in place: its slot is unwritten storage
/// (a fresh output) or a live piece whose destructor is trivial (a
/// recycled one).  Any other piece is move-assigned over the live slot.
/// Absolute proc_lo/depth go straight through; node ids are local to the
/// terminal's subtree and remapped by stitch_tree after the join.
template <core::Bisectable P>
void run_terminal(ParJob<P>& job, ParFrame<P> f) {
  // One workspace per (worker thread, problem type); warm after the first
  // few terminals, then allocation-free like any sequential trial loop.
  static thread_local core::TrialWorkspace<P> ws;
  core::Partition<P> tmp;
  tmp.pieces = ws.take_pieces(static_cast<std::size_t>(f.n));
  core::detail::BuildContext<P> bctx(tmp, job.record);
  bctx.reserve(f.n);
  const core::NodeId node0 = bctx.root(f.weight);
  switch (job.family) {
    case ParFamily::kBa:
      core::detail::ba_run(bctx, ws, std::move(f.problem), f.n, f.proc_lo,
                           f.depth, node0, /*prune_below=*/-1.0);
      break;
    case ParFamily::kBaStar:
      core::detail::ba_run(bctx, ws, std::move(f.problem), f.n, f.proc_lo,
                           f.depth, node0, job.prune_below);
      break;
    case ParFamily::kBaHf:
      core::detail::ba_hf_run(bctx, ws, std::move(f.problem), f.n, f.proc_lo,
                              f.depth, node0, job.switch_threshold);
      break;
  }
  job.bisections.fetch_add(tmp.bisections);
  std::int32_t depth = job.max_depth.load();
  while (tmp.max_depth > depth &&
         !job.max_depth.compare_exchange_weak(depth, tmp.max_depth)) {
  }
  const auto count = static_cast<std::int32_t>(tmp.pieces.size());
  if constexpr (core::leaves_unwritten_v<core::Piece<P>>) {
    std::uninitialized_move(tmp.pieces.begin(), tmp.pieces.end(),
                            job.pieces + f.proc_lo);
  } else {
    std::move(tmp.pieces.begin(), tmp.pieces.end(), job.pieces + f.proc_lo);
  }
  if (job.spans != nullptr) job.spans[f.proc_lo] = TerminalSpan{f.n, count};
  if (job.record) {
    f.frag->term_lo = f.proc_lo;
    f.frag->term_count = count;
    f.frag->subtree = std::move(tmp.tree);
  }
  ws.recycle(std::move(tmp));
}

template <core::Bisectable P>
void run_chain(ParJob<P>& job, ParFrame<P> f);

/// Executes a spawned frame: moves it off the slot, releases the slot for
/// immediate reuse, then runs the chain.  Exceptions propagate to the pool
/// loop, which routes them into the job.
template <core::Bisectable P>
void chain_trampoline(TaskSlot* slot) {
  auto* payload = reinterpret_cast<ParFrame<P>*>(slot->payload);
  ParFrame<P> frame = std::move(*payload);
  payload->~ParFrame<P>();
  frame.job->ws_pool->release_slot(slot);
  run_chain(*frame.job, std::move(frame));
}

/// Spawns the lighter child as a task on the current worker's deque, or
/// runs it inline when the slab/deque is exhausted (output is unaffected:
/// the decomposition is structure-determined).
template <core::Bisectable P>
void spawn_light(ParJob<P>& job, ParFrame<P>&& frame) {
  WorkStealingPool::Worker* worker = job.ws_pool->current_worker();
  TaskSlot* slot =
      worker != nullptr ? job.ws_pool->acquire_slot(*worker) : nullptr;
  if (slot == nullptr) {
    run_chain(job, std::move(frame));
    return;
  }
  ::new (static_cast<void*>(slot->payload)) ParFrame<P>(std::move(frame));
  slot->run = &chain_trampoline<P>;
  slot->job = &job;
  // Count the task before publishing it; the executing worker's
  // complete_one() balances this increment.
  job.pending.fetch_add(1);
  job.spawns.fetch_add(1);
  if (!job.ws_pool->push_local(*worker, slot)) {
    // Deque full (cannot happen while deque capacity == slab size, but
    // handled for robustness): revert and execute inline.
    job.pending.fetch_sub(1);
    job.spawns.fetch_sub(1);
    auto* payload = reinterpret_cast<ParFrame<P>*>(slot->payload);
    ParFrame<P> reclaimed = std::move(*payload);
    payload->~ParFrame<P>();
    job.ws_pool->release_slot(slot);
    run_chain(job, std::move(reclaimed));
  }
}

/// The chain: bisect, spawn the lighter child, continue with the heavier
/// one; finish the sub-range sequentially at the terminal condition.
/// Mirrors detail::ba_run / ba_hf_run's split decisions exactly.
template <core::Bisectable P>
void run_chain(ParJob<P>& job, ParFrame<P> f) {
  if (job.failed.load()) return;  // bail early
  std::int64_t chain_bisections = 0;
  for (;;) {
    if (chain_terminal(job, f)) {
      run_terminal(job, std::move(f));
      break;
    }
    auto [left, right] = f.problem.bisect();
    double wl = left.weight();
    double wr = right.weight();
    if (wl < wr) {
      std::swap(left, right);
      std::swap(wl, wr);
    }
    ++chain_bisections;
    const std::int32_t n1 = core::ba_split_processors(wl, wr, f.n);
    const std::int32_t depth = f.depth + 1;
    Fragment* light_frag = nullptr;
    if (job.record) {
      WorkStealingPool::Worker* worker = job.ws_pool->current_worker();
      // Each worker appends to its own arena only; std::deque keeps every
      // earlier fragment's address stable.
      auto& arena =
          job.frag_arena[worker != nullptr
                             ? static_cast<std::size_t>(worker->id)
                             : 0];
      light_frag = &arena.emplace_back();
      f.frag->events.push_back(
          Fragment::ChainEvent{wl, wr, light_frag});
    }
    spawn_light(job,
                ParFrame<P>{&job, std::move(right), wr, f.n - n1,
                            f.proc_lo + static_cast<core::ProcessorId>(n1),
                            depth, light_frag});
    f.problem = std::move(left);
    f.weight = wl;
    f.n = n1;
    f.depth = depth;
    if (job.failed.load()) {
      job.bisections.fetch_add(chain_bisections);
      return;
    }
  }
  job.bisections.fetch_add(chain_bisections);
}

/// Rebuilds the global BisectionTree in sequential DFS order from the
/// fragment graph, patching the output pieces' node ids along the way.
///
/// Sequential numbering: set_root gives id 0; each bisection assigns the
/// children (size, size+1); the DFS descends the heavier/left child fully
/// before the lighter/right one.  A chain IS a left spine, so replaying a
/// fragment's events in order, then its terminal subtree, then the spawned
/// light children in reverse order (one shared LIFO stack does exactly
/// this) visits bisections in the sequential creation order -- hence ids,
/// parents, child links and depths all come out identical.
///
/// Terminal subtrees are local trees with root 0 whose bisection j created
/// nodes (2j+1, 2j+2); mapping local id l -> (l == 0 ? entry : base+l-1)
/// aligns them with the globally assigned ids.
template <core::Bisectable P>
void stitch_tree(core::BisectionTree& tree, Fragment* root,
                 core::Piece<P>* pieces) {
  std::vector<std::pair<Fragment*, core::NodeId>> stack;
  stack.emplace_back(root, 0);
  while (!stack.empty()) {
    auto [frag, entry] = stack.back();
    stack.pop_back();
    core::NodeId cur = entry;
    for (const Fragment::ChainEvent& event : frag->events) {
      const auto [heavy_id, light_id] =
          tree.add_bisection(cur, event.heavy_weight, event.light_weight);
      stack.emplace_back(event.light, light_id);
      cur = heavy_id;
    }
    // Replay the terminal's local subtree.  Local bisection j reads its
    // parent and child weights from local nodes 2j+1 / 2j+2.
    const core::BisectionTree& sub = frag->subtree;
    const core::NodeId base = static_cast<core::NodeId>(tree.size());
    const std::size_t sub_bisections =
        sub.empty() ? 0 : (sub.size() - 1) / 2;
    const auto to_global = [&](core::NodeId local) {
      return local == 0 ? cur : base + local - 1;
    };
    for (std::size_t j = 0; j < sub_bisections; ++j) {
      const auto& left = sub.node(static_cast<core::NodeId>(2 * j + 1));
      const auto& right = sub.node(static_cast<core::NodeId>(2 * j + 2));
      tree.add_bisection(to_global(left.parent), left.weight, right.weight);
    }
    core::Piece<P>* const first = pieces + frag->term_lo;
    for (core::Piece<P>* piece = first; piece != first + frag->term_count;
         ++piece) {
      piece->node = to_global(piece->node);
    }
  }
}

/// Caller-thread scratch reused across calls: the BA' terminal records
/// and the root task's slot (caller-owned: released as a no-op by the
/// trampoline).
struct ParScratch {
  std::vector<TerminalSpan> spans;
  TaskSlot root_slot;
};

/// Makes `pieces` exactly n long for the terminals to write.  Live
/// entries (a recycled result) are kept as overwrite targets; a shorter
/// buffer grows by unwritten slots (core::leaves_unwritten_v, O(1)) or is
/// topped up serially with a value-initialized P or copies of `root`.
template <core::Bisectable P>
void size_for_overwrite(core::PieceVector<P>& pieces, std::size_t n,
                        const P& root) {
  if constexpr (core::leaves_unwritten_v<core::Piece<P>> ||
                std::default_initializable<P>) {
    pieces.resize(n);
  } else if (pieces.size() != n) {
    pieces.resize(n, core::Piece<P>{root});
  }
}

/// BA' gap pass: moves each terminal's pieces down to close the slots its
/// pruned range left empty, in ascending processor order, then erases the
/// tail.  Terminal ranges tile [0, n), so every record read was written by
/// this call.
template <core::Bisectable P>
void close_gaps(core::PieceVector<P>& pieces,
                const TerminalSpan* spans) {
  const auto n = static_cast<std::int32_t>(pieces.size());
  auto dst = pieces.begin();
  for (std::int32_t lo = 0; lo < n; lo += spans[lo].n) {
    const auto src = pieces.begin() + lo;
    dst = std::move(src, src + spans[lo].count, dst);
  }
  pieces.erase(dst, pieces.end());
}

[[nodiscard]] inline std::int32_t effective_grain(std::int32_t requested,
                                                  std::int32_t n,
                                                  unsigned workers) {
  if (requested > 0) return requested;
  const std::int32_t auto_grain =
      n / (8 * static_cast<std::int32_t>(workers));
  return std::clamp(auto_grain, 1, 8192);
}

/// Shared driver of the three public entry points.
template <core::Bisectable P>
[[nodiscard]] core::Partition<P> par_run(WorkStealingPool& pool,
                                         core::TrialWorkspace<P>* caller_ws,
                                         P problem, std::int32_t n,
                                         ParFamily family, double prune_below,
                                         std::int32_t switch_threshold,
                                         const ParOptions& opt,
                                         ParStats* stats) {
  if (pool.current_worker() != nullptr) {
    throw std::logic_error(
        "parallel partition: blocking call from a pool worker would "
        "deadlock the job's join");
  }
  const bool record = opt.partition.record_tree;
  const std::int32_t grain = effective_grain(opt.grain, n, pool.size());

  core::Partition<P> out;
  out.processors = n;
  out.total_weight = problem.weight();
  if (caller_ws != nullptr) out.pieces = caller_ws->take_live_pieces();
  size_for_overwrite(out.pieces, static_cast<std::size_t>(n), problem);

  static thread_local ParScratch scratch;
  const bool gaps = family == ParFamily::kBaStar;
  if (gaps && scratch.spans.size() < static_cast<std::size_t>(n)) {
    scratch.spans.resize(static_cast<std::size_t>(n));
  }

  ParJob<P> job;
  job.family = family;
  job.prune_below = prune_below;
  job.switch_threshold = switch_threshold;
  job.grain = grain;
  job.record = record;
  job.ws_pool = &pool;
  job.pieces = out.pieces.data();
  job.spans = gaps ? scratch.spans.data() : nullptr;
  if (record) job.frag_arena.resize(pool.size());

  const auto start = std::chrono::steady_clock::now();
  TaskSlot& root = scratch.root_slot;
  ::new (static_cast<void*>(root.payload)) ParFrame<P>{
      &job, std::move(problem), out.total_weight, n, 0, 0,
      record ? &job.root_frag : nullptr};
  root.run = &chain_trampoline<P>;
  root.job = &job;
  job.pending.store(1);
  pool.inject(&root, &job);
  job.wait();
  const std::int64_t wall_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count();

  if (std::exception_ptr err = job.take_error()) {
    // The half-written output dies with `out` (slots left unwritten hold
    // trivially destructible pieces, so destroying them reads nothing); a
    // workspace caller's next call starts from a fresh buffer.
    std::rethrow_exception(err);
  }

  out.bisections = job.bisections.load();
  out.max_depth = job.max_depth.load();
  if (record) {
    core::detail::BuildContext<P> tctx(out, /*record_tree=*/true);
    tctx.reserve(n);
    (void)tctx.root(out.total_weight);
    stitch_tree(out.tree, &job.root_frag, out.pieces.data());
  }
  if (gaps) close_gaps(out.pieces, scratch.spans.data());

  if (stats != nullptr) {
    stats->spawns = job.spawns.load();
    stats->steals = job.steals.load();
    stats->idle_ns = std::max<std::int64_t>(
        0, static_cast<std::int64_t>(pool.size()) * wall_ns -
               job.busy_ns.load());
    stats->alloc_count = job.alloc_count.load();
    stats->alloc_bytes = job.alloc_bytes.load();
    stats->grain = grain;
  }
  return out;
}

/// Fallback for a P that cannot run on the pool (see runs_parallel_v): run
/// the sequential counterpart outright (byte-identical by definition).
/// Selected at compile time.
template <core::Bisectable P>
[[nodiscard]] core::Partition<P> par_run_sequential(
    core::TrialWorkspace<P>* caller_ws, P problem, std::int32_t n,
    ParFamily family, double alpha, double beta, const ParOptions& opt,
    ParStats* stats) {
  if (stats != nullptr) *stats = ParStats{};
  core::TrialWorkspace<P> local_ws;
  core::TrialWorkspace<P>& ws =
      caller_ws != nullptr ? *caller_ws : local_ws;
  switch (family) {
    case ParFamily::kBaStar:
      return core::ba_star_partition(ws, std::move(problem), n, alpha,
                                     opt.partition);
    case ParFamily::kBaHf:
      return core::ba_hf_partition(ws, std::move(problem), n,
                                   core::BaHfParams{alpha, beta},
                                   opt.partition);
    case ParFamily::kBa:
      break;
  }
  return core::ba_partition(ws, std::move(problem), n, opt.partition);
}

}  // namespace detail

/// Partitions `problem` into exactly `n` subproblems with Algorithm BA on
/// `pool`'s worker threads.  Output (pieces, order, counters, recorded
/// tree) is byte-identical to core::ba_partition for every thread count.
/// Do not call from a task running on `pool` (the join would deadlock);
/// concurrent calls from distinct caller threads are fully supported.
template <core::Bisectable P>
[[nodiscard]] core::Partition<P> par_ba_partition(
    WorkStealingPool& pool, core::TrialWorkspace<P>& ws, P problem,
    std::int32_t n, const ParOptions& opt = {}, ParStats* stats = nullptr) {
  if (n < 1) throw std::invalid_argument("par_ba_partition: n must be >= 1");
  if constexpr (!detail::runs_parallel_v<P>) {
    return detail::par_run_sequential(&ws, std::move(problem), n,
                                      detail::ParFamily::kBa, 0.25, 1.0, opt,
                                      stats);
  } else {
    return detail::par_run(pool, &ws, std::move(problem), n,
                           detail::ParFamily::kBa, /*prune_below=*/-1.0,
                           /*switch_threshold=*/0, opt, stats);
  }
}

/// Workspace-free form (fresh pieces storage per call; identical output).
template <core::Bisectable P>
[[nodiscard]] core::Partition<P> par_ba_partition(
    WorkStealingPool& pool, P problem, std::int32_t n,
    const ParOptions& opt = {}, ParStats* stats = nullptr) {
  if (n < 1) throw std::invalid_argument("par_ba_partition: n must be >= 1");
  if constexpr (!detail::runs_parallel_v<P>) {
    return detail::par_run_sequential<P>(nullptr, std::move(problem), n,
                                         detail::ParFamily::kBa, 0.25, 1.0,
                                         opt, stats);
  } else {
    return detail::par_run<P>(pool, nullptr, std::move(problem), n,
                              detail::ParFamily::kBa, /*prune_below=*/-1.0,
                              /*switch_threshold=*/0, opt, stats);
  }
}

/// Algorithm BA' (BA pruned at the PHF phase-1 weight threshold) on the
/// pool; byte-identical to core::ba_star_partition.
template <core::Bisectable P>
[[nodiscard]] core::Partition<P> par_ba_star_partition(
    WorkStealingPool& pool, P problem, std::int32_t n, double alpha,
    const ParOptions& opt = {}, ParStats* stats = nullptr) {
  if (n < 1) {
    throw std::invalid_argument("par_ba_star_partition: n must be >= 1");
  }
  core::require_valid_alpha(alpha);
  if constexpr (!detail::runs_parallel_v<P>) {
    return detail::par_run_sequential<P>(nullptr, std::move(problem), n,
                                         detail::ParFamily::kBaStar, alpha,
                                         1.0, opt, stats);
  } else {
    const double threshold =
        core::phf_phase1_threshold(alpha, problem.weight(), n);
    return detail::par_run<P>(pool, nullptr, std::move(problem), n,
                              detail::ParFamily::kBaStar, threshold,
                              /*switch_threshold=*/0, opt, stats);
  }
}

/// Algorithm BA-HF on the pool; byte-identical to core::ba_hf_partition.
template <core::Bisectable P>
[[nodiscard]] core::Partition<P> par_ba_hf_partition(
    WorkStealingPool& pool, P problem, std::int32_t n,
    const core::BaHfParams& params = {}, const ParOptions& opt = {},
    ParStats* stats = nullptr) {
  if (n < 1) {
    throw std::invalid_argument("par_ba_hf_partition: n must be >= 1");
  }
  core::require_valid_alpha(params.alpha);
  if (!(params.beta > 0.0)) {
    throw std::invalid_argument("par_ba_hf_partition: beta must be > 0");
  }
  if constexpr (!detail::runs_parallel_v<P>) {
    return detail::par_run_sequential<P>(nullptr, std::move(problem), n,
                                         detail::ParFamily::kBaHf,
                                         params.alpha, params.beta, opt,
                                         stats);
  } else {
    const std::int32_t threshold =
        core::ba_hf_switch_threshold(params.alpha, params.beta);
    return detail::par_run<P>(pool, nullptr, std::move(problem), n,
                              detail::ParFamily::kBaHf, /*prune_below=*/-1.0,
                              threshold, opt, stats);
  }
}

}  // namespace lbb::runtime
