// Tests for the work-stealing parallel partitioner runtime: deque
// semantics, byte-identical parallel output across thread counts and steal
// schedules, exception propagation, concurrent-caller stress (the tsan
// preset's main target -- the `runtime` label is in its filter), and the
// par:* registry entries.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/ba.hpp"
#include "core/ba_hf.hpp"
#include "core/partition.hpp"
#include "core/partitioner.hpp"
#include "core/problem.hpp"
#include "core/run_context.hpp"
#include "core/workspace.hpp"
#include "problems/alpha_dist.hpp"
#include "problems/fe_tree.hpp"
#include "problems/synthetic.hpp"
#include "runtime/par_partition.hpp"
#include "runtime/par_partitioners.hpp"
#include "runtime/work_stealing.hpp"

namespace lbb::runtime {
namespace {

using lbb::core::Partition;
using lbb::problems::AlphaDistribution;
using lbb::problems::SyntheticProblem;

// ---------------------------------------------------------------------------
// WsDeque

TEST(WsDeque, OwnerPushPopIsLifo) {
  WsDeque deque(8);
  TaskSlot slots[3];
  for (auto& s : slots) ASSERT_TRUE(deque.push(&s));
  EXPECT_EQ(deque.pop(), &slots[2]);
  EXPECT_EQ(deque.pop(), &slots[1]);
  EXPECT_EQ(deque.pop(), &slots[0]);
  EXPECT_EQ(deque.pop(), nullptr);
}

TEST(WsDeque, StealTakesOldestFirst) {
  WsDeque deque(8);
  TaskSlot slots[3];
  for (auto& s : slots) ASSERT_TRUE(deque.push(&s));
  EXPECT_EQ(deque.steal(), &slots[0]);
  EXPECT_EQ(deque.steal(), &slots[1]);
  // Owner gets the remaining task.
  EXPECT_EQ(deque.pop(), &slots[2]);
  EXPECT_EQ(deque.steal(), nullptr);
}

TEST(WsDeque, PushRefusesWhenFull) {
  WsDeque deque(4);
  TaskSlot slots[5];
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(deque.push(&slots[i]));
  EXPECT_FALSE(deque.push(&slots[4]));
  EXPECT_EQ(deque.pop(), &slots[3]);
  EXPECT_TRUE(deque.push(&slots[4]));  // space again after a pop
}

TEST(WsDeque, ConcurrentThievesEachTaskExecutesOnce) {
  constexpr int kTasks = 4096;
  constexpr int kThieves = 3;
  WsDeque deque(512);
  std::vector<TaskSlot> slots(kTasks);
  std::vector<std::atomic<int>> taken(kTasks);
  for (auto& t : taken) t.store(0);
  const auto index_of = [&](TaskSlot* s) {
    return static_cast<int>(s - slots.data());
  };

  std::atomic<bool> done{false};
  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      while (!done.load()) {
        if (TaskSlot* s = deque.steal()) taken[index_of(s)].fetch_add(1);
      }
    });
  }
  // Owner: interleave pushes with occasional pops.
  int pushed = 0;
  while (pushed < kTasks) {
    if (deque.push(&slots[pushed])) {
      ++pushed;
    } else if (TaskSlot* s = deque.pop()) {
      taken[index_of(s)].fetch_add(1);
    }
    if (pushed % 7 == 0) {
      if (TaskSlot* s = deque.pop()) taken[index_of(s)].fetch_add(1);
    }
  }
  // Drain the rest from the owner side; thieves keep competing.
  for (;;) {
    TaskSlot* s = deque.pop();
    if (s == nullptr) {
      // Thieves may still hold the last few; wait for the count.
      std::int64_t total = 0;
      for (auto& t : taken) total += t.load();
      if (total == kTasks) break;
      std::this_thread::yield();
      continue;
    }
    taken[index_of(s)].fetch_add(1);
  }
  done.store(true);
  for (auto& t : thieves) t.join();
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(taken[i].load(), 1) << "task " << i;
  }
}

// ---------------------------------------------------------------------------
// Byte-identical parallel output

template <typename P>
void expect_identical(const Partition<P>& par, const Partition<P>& seq,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(par.processors, seq.processors);
  EXPECT_EQ(par.total_weight, seq.total_weight);  // exact, not near
  EXPECT_EQ(par.bisections, seq.bisections);
  EXPECT_EQ(par.max_depth, seq.max_depth);
  ASSERT_EQ(par.pieces.size(), seq.pieces.size());
  for (std::size_t i = 0; i < seq.pieces.size(); ++i) {
    SCOPED_TRACE("piece " + std::to_string(i));
    EXPECT_EQ(par.pieces[i].weight, seq.pieces[i].weight);
    EXPECT_EQ(par.pieces[i].processor, seq.pieces[i].processor);
    EXPECT_EQ(par.pieces[i].depth, seq.pieces[i].depth);
    EXPECT_EQ(par.pieces[i].node, seq.pieces[i].node);
  }
  ASSERT_EQ(par.tree.size(), seq.tree.size());
  for (std::size_t id = 0; id < seq.tree.size(); ++id) {
    SCOPED_TRACE("node " + std::to_string(id));
    const auto& a = par.tree.node(static_cast<lbb::core::NodeId>(id));
    const auto& b = seq.tree.node(static_cast<lbb::core::NodeId>(id));
    EXPECT_EQ(a.weight, b.weight);
    EXPECT_EQ(a.parent, b.parent);
    EXPECT_EQ(a.left, b.left);
    EXPECT_EQ(a.right, b.right);
    EXPECT_EQ(a.depth, b.depth);
  }
}

SyntheticProblem make_problem(std::uint64_t seed) {
  static const AlphaDistribution dist = AlphaDistribution::uniform(0.2, 0.45);
  return SyntheticProblem(seed, dist);
}

TEST(ParPartition, BaByteIdenticalAcrossThreadsAndGrains) {
  core::PartitionOptions record;
  record.record_tree = true;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    WorkStealingPool pool(threads);
    for (const std::int32_t grain : {0, 1, 7}) {
      ParOptions opt;
      opt.partition = record;
      opt.grain = grain;
      for (const std::uint64_t seed : {1ull, 42ull}) {
        for (const std::int32_t n : {1, 2, 3, 16, 127, 500}) {
          core::TrialWorkspace<SyntheticProblem> seq_ws;
          const auto seq = core::ba_partition(seq_ws, make_problem(seed), n,
                                              record);
          const auto par =
              par_ba_partition(pool, make_problem(seed), n, opt);
          expect_identical(par, seq,
                           "threads=" + std::to_string(threads) +
                               " grain=" + std::to_string(grain) +
                               " seed=" + std::to_string(seed) +
                               " n=" + std::to_string(n));
        }
      }
    }
  }
}

TEST(ParPartition, BaStarByteIdentical) {
  // Grain 1 chains everywhere the sequential recursion goes; grains 0 and
  // 7 leave pruned gaps inside a terminal's range, so the gap pass and the
  // node-id patching see terminals that write fewer pieces than their
  // range.
  constexpr double kAlpha = 0.2;
  core::PartitionOptions record;
  record.record_tree = true;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    WorkStealingPool pool(threads);
    for (const std::int32_t grain : {0, 1, 7}) {
      ParOptions opt;
      opt.partition = record;
      opt.grain = grain;
      for (const std::uint64_t seed : {3ull, 99ull}) {
        for (const std::int32_t n : {1, 2, 13, 64, 333}) {
          core::TrialWorkspace<SyntheticProblem> seq_ws;
          const auto seq = core::ba_star_partition(
              seq_ws, make_problem(seed), n, kAlpha, record);
          const auto par =
              par_ba_star_partition(pool, make_problem(seed), n, kAlpha, opt);
          expect_identical(par, seq,
                           "threads=" + std::to_string(threads) +
                               " grain=" + std::to_string(grain) +
                               " seed=" + std::to_string(seed) +
                               " n=" + std::to_string(n));
        }
      }
    }
  }
}

TEST(ParPartition, BaHfByteIdentical) {
  const core::BaHfParams params{0.25, 1.0};
  core::PartitionOptions record;
  record.record_tree = true;
  for (const unsigned threads : {1u, 2u, 8u}) {
    WorkStealingPool pool(threads);
    for (const std::int32_t grain : {0, 1}) {
      ParOptions opt;
      opt.partition = record;
      opt.grain = grain;
      for (const std::uint64_t seed : {5ull, 77ull}) {
        for (const std::int32_t n : {1, 2, 16, 200}) {
          core::TrialWorkspace<SyntheticProblem> seq_ws;
          const auto seq = core::ba_hf_partition(
              seq_ws, make_problem(seed), n, params, record);
          const auto par = par_ba_hf_partition(pool, make_problem(seed), n,
                                               params, opt);
          expect_identical(par, seq,
                           "threads=" + std::to_string(threads) +
                               " grain=" + std::to_string(grain) +
                               " seed=" + std::to_string(seed) +
                               " n=" + std::to_string(n));
        }
      }
    }
  }
}

TEST(ParPartition, ExpensiveBisectionProblem) {
  // FE-tree separators make bisection genuinely costly, exercising real
  // overlap between chains (and shared_ptr refcounting across threads).
  const auto fe_tree = lbb::problems::FeTree::adaptive_refinement(3, 2000, 2.0);
  const auto make_fe = [&] { return lbb::problems::FeTreeProblem(fe_tree); };
  core::PartitionOptions record;
  record.record_tree = true;
  ParOptions opt;
  opt.partition = record;
  WorkStealingPool pool(4);
  core::TrialWorkspace<lbb::problems::FeTreeProblem> seq_ws;
  const auto seq = core::ba_partition(seq_ws, make_fe(), 24, record);
  const auto par = par_ba_partition(pool, make_fe(), 24, opt);
  expect_identical(par, seq, "fe_tree n=24");
}

TEST(ParPartition, WorkspaceOverloadMatchesAndRecycles) {
  // The recycled pieces are the next call's overwrite targets: a stale
  // buffer longer than n is cut (500 -> 64, 4097 -> 1), a shorter one
  // grows.  64 -> 500 and 64 -> 4097 outgrow the buffer's capacity, so
  // the output is the last result's live pieces followed by slots no one
  // has written yet; 1 -> 500 stays within it.
  WorkStealingPool pool(2);
  core::TrialWorkspace<SyntheticProblem> par_ws;
  core::TrialWorkspace<SyntheticProblem> seq_ws;
  std::uint64_t seed = 11;
  for (const std::int32_t n : {64, 500, 64, 4097, 1, 500}) {
    auto seq = core::ba_partition(seq_ws, make_problem(seed), n);
    auto par = par_ba_partition(pool, par_ws, make_problem(seed), n);
    const std::string label =
        "seed=" + std::to_string(seed) + " n=" + std::to_string(n);
    expect_identical(par, seq, label);
    for (std::size_t i = 0; i < seq.pieces.size(); ++i) {
      ASSERT_EQ(par.pieces[i].problem.node_hash(),
                seq.pieces[i].problem.node_hash())
          << label << " piece " << i;
    }
    seq_ws.recycle(std::move(seq));
    par_ws.recycle(std::move(par));
    ++seed;
  }
}

/// Runs par_ba / par_ba_star / par_ba_hf through their workspace-free
/// overloads (a fresh output per call) and compares each with sequential.
template <typename P, typename MakeProblem>
void expect_fresh_outputs_identical(
    const MakeProblem& make, const core::PartitionOptions& options,
    std::initializer_list<unsigned> thread_counts,
    std::initializer_list<std::int32_t> ns) {
  constexpr double kAlpha = 0.2;
  const core::BaHfParams params{0.25, 1.0};
  ParOptions opt;
  opt.partition = options;
  for (const unsigned threads : thread_counts) {
    WorkStealingPool pool(threads);
    for (const std::int32_t n : ns) {
      const std::string label =
          " threads=" + std::to_string(threads) + " n=" + std::to_string(n);
      core::TrialWorkspace<P> ws;
      expect_identical(par_ba_partition(pool, make(), n, opt),
                       core::ba_partition(ws, make(), n, options),
                       "ba" + label);
      expect_identical(
          par_ba_star_partition(pool, make(), n, kAlpha, opt),
          core::ba_star_partition(ws, make(), n, kAlpha, options),
          "ba_star" + label);
      expect_identical(
          par_ba_hf_partition(pool, make(), n, params, opt),
          core::ba_hf_partition(ws, make(), n, params, options),
          "ba_hf" + label);
    }
  }
}

// A fresh Piece<SyntheticProblem> output grows by slots nothing has
// written (core::PieceAllocator); the terminals are their only writers.
TEST(ParPartition, FreshUnwrittenOutputByteIdentical) {
  expect_fresh_outputs_identical<SyntheticProblem>(
      [] { return make_problem(17); }, {}, {1u, 2u, 4u, 8u},
      {1, 63, 500, 4097});
}

// A fresh Piece<AnyProblem> output is value-initialized before the job.
TEST(ParPartition, FreshValueInitializedOutputByteIdentical) {
  expect_fresh_outputs_identical<core::AnyProblem>(
      [] { return core::AnyProblem(make_problem(17)); }, {}, {1u, 2u, 4u, 8u},
      {1, 63, 500, 4097});
}

TEST(ParPartition, FreshOutputWithTreeByteIdentical) {
  core::PartitionOptions record;
  record.record_tree = true;
  expect_fresh_outputs_identical<SyntheticProblem>(
      [] { return make_problem(23); }, record, {4u}, {63, 4097});
  expect_fresh_outputs_identical<core::AnyProblem>(
      [] { return core::AnyProblem(make_problem(23)); }, record, {4u},
      {63, 4097});
}

TEST(ParPartition, IdleNsCountsOnlyTheCallsOwnWindow) {
  // Workers that park at the end of one call stay parked through the
  // caller's pause before the next; that pause is no call's idle time.
  WorkStealingPool pool(4);
  ParStats stats;
  (void)par_ba_partition(pool, make_problem(3), 1 << 14, {}, &stats);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto start = std::chrono::steady_clock::now();
  (void)par_ba_partition(pool, make_problem(4), 1 << 14, {}, &stats);
  const std::int64_t wall_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(stats.idle_ns, 0);
  EXPECT_LE(stats.idle_ns, static_cast<std::int64_t>(pool.size()) * wall_ns);
}

TEST(ParPartition, StatsCountSpawnsAndBisections) {
  WorkStealingPool pool(2);
  ParStats stats;
  ParOptions opt;
  opt.grain = 1;
  const auto par = par_ba_partition(pool, make_problem(123), 256, opt, &stats);
  EXPECT_EQ(par.bisections, 255);
  // With grain 1 every bisection spawns its lighter child (modulo inline
  // fallbacks under slot exhaustion, which this size cannot reach).
  EXPECT_EQ(stats.spawns, 255);
  EXPECT_GE(stats.steals, 0);
  EXPECT_EQ(stats.grain, 1);
}

TEST(ParPartition, RejectsBadN) {
  WorkStealingPool pool(2);
  EXPECT_THROW((void)par_ba_partition(pool, make_problem(1), 0),
               std::invalid_argument);
  EXPECT_THROW(
      (void)par_ba_star_partition(pool, make_problem(1), 4, /*alpha=*/0.9),
      std::invalid_argument);
  EXPECT_THROW((void)par_ba_hf_partition(pool, make_problem(1), 4,
                                         core::BaHfParams{0.25, -1.0}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Exceptions

/// Bisectable whose weight() is fine but whose bisect() throws once the
/// weight drops below a trip point -- exercises mid-recursion failure.
struct ThrowingProblem {
  double w = 1.0;
  double trip = 0.1;

  [[nodiscard]] double weight() const noexcept { return w; }
  [[nodiscard]] std::pair<ThrowingProblem, ThrowingProblem> bisect() const {
    if (w < trip) throw std::runtime_error("bisect failed");
    return {ThrowingProblem{w * 0.6, trip}, ThrowingProblem{w * 0.4, trip}};
  }
};

TEST(ParPartition, TaskExceptionPropagatesToCaller) {
  WorkStealingPool pool(4);
  ParOptions opt;
  opt.grain = 1;
  EXPECT_THROW((void)par_ba_partition(pool, ThrowingProblem{}, 512, opt),
               std::runtime_error);
  // The pool survives a failed job and serves later ones.
  const auto seq = [&] {
    core::TrialWorkspace<SyntheticProblem> ws;
    return core::ba_partition(ws, make_problem(9), 32);
  }();
  const auto par = par_ba_partition(pool, make_problem(9), 32);
  expect_identical(par, seq, "after failure");

  // Through the workspace overload, a failed call must not leave the
  // caller's workspace in a state that corrupts its next call.
  const ThrowingProblem healthy{1.0, /*trip=*/0.0};
  core::TrialWorkspace<ThrowingProblem> par_ws;
  par_ws.recycle(par_ba_partition(pool, par_ws, healthy, 512, opt));
  EXPECT_THROW((void)par_ba_partition(pool, par_ws, ThrowingProblem{}, 512,
                                      opt),
               std::runtime_error);
  const auto par_after = par_ba_partition(pool, par_ws, healthy, 512, opt);
  core::TrialWorkspace<ThrowingProblem> seq_ws;
  expect_identical(par_after, core::ba_partition(seq_ws, healthy, 512),
                   "workspace after failure");
}

// ---------------------------------------------------------------------------
// Concurrent callers (tsan stress: randomized steal pressure from many
// simultaneous jobs on one pool)

TEST(ParPartition, ConcurrentCallersGetIndependentIdenticalResults) {
  constexpr int kCallers = 4;
  constexpr int kRounds = 8;
  WorkStealingPool pool(4);
  core::PartitionOptions record;
  record.record_tree = true;

  std::vector<std::string> failures(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int r = 0; r < kRounds; ++r) {
        const std::uint64_t seed =
            static_cast<std::uint64_t>(c * 1000 + r + 1);
        // Vary shape per caller/round to randomize steal pressure.
        const std::int32_t n = 32 + 61 * ((c + r) % 5);
        ParOptions opt;
        opt.partition = record;
        opt.grain = 1 + (r % 3);
        core::TrialWorkspace<SyntheticProblem> ws;
        const auto seq =
            core::ba_partition(ws, make_problem(seed), n, record);
        const auto par = par_ba_partition(pool, make_problem(seed), n, opt);
        if (par.pieces.size() != seq.pieces.size() ||
            par.bisections != seq.bisections ||
            par.tree.size() != seq.tree.size()) {
          failures[c] = "caller " + std::to_string(c) + " round " +
                        std::to_string(r) + " diverged";
          return;
        }
        for (std::size_t i = 0; i < seq.pieces.size(); ++i) {
          if (par.pieces[i].weight != seq.pieces[i].weight ||
              par.pieces[i].processor != seq.pieces[i].processor ||
              par.pieces[i].node != seq.pieces[i].node) {
            failures[c] = "caller " + std::to_string(c) + " round " +
                          std::to_string(r) + " piece " + std::to_string(i);
            return;
          }
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  for (const auto& f : failures) EXPECT_EQ(f, "");
}

// ---------------------------------------------------------------------------
// Registry entries

TEST(ParRegistry, RegistersAndRunsByteIdentical) {
  register_par_partitioners();
  auto& registry = core::PartitionerRegistry::instance();
  for (const char* name : {"par:ba", "par:ba_star", "par:ba_hf"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
  }

  core::PartitionerConfig config;
  config.alpha = 0.2;
  config.options.record_tree = true;
  config.threads = 2;

  struct CapturingSink final : core::MetricsSink {
    std::map<std::string, double> counters;
    void on_counter(std::string_view key, double value) override {
      counters[std::string(key)] = value;
    }
  } sink;

  const auto part = registry.create("par:ba_hf", config);
  core::RunContext ctx(7);
  ctx.sink = &sink;
  auto par = part->run(ctx, core::AnyProblem(make_problem(21)), 100);

  core::TrialWorkspace<core::AnyProblem> ws;
  auto seq = core::ba_hf_partition(ws, core::AnyProblem(make_problem(21)),
                                   100, core::BaHfParams{0.2, 1.0},
                                   config.options);
  expect_identical(par, seq, "par:ba_hf vs ba_hf");

  EXPECT_EQ(ctx.metrics.partitions, 1);
  EXPECT_EQ(ctx.metrics.bisections, par.bisections);
  EXPECT_EQ(sink.counters.at("par.threads"), 2.0);
  EXPECT_GE(sink.counters.at("par.spawns"), 0.0);
  EXPECT_GE(sink.counters.at("par.steals"), 0.0);
  EXPECT_GE(sink.counters.at("par.idle_ns"), 0.0);
  EXPECT_GT(part->ratio_bound(100), 0.0);
}

TEST(ParRegistry, SharedPoolReusesPerThreadCount) {
  WorkStealingPool& a = shared_pool(2);
  WorkStealingPool& b = shared_pool(2);
  WorkStealingPool& c = shared_pool(3);
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(c.size(), 3u);
}

// Regression: shared pools used to have no teardown path other than static
// destruction; resident embedders need an explicit join point.  Exercises
// the full cycle -- use, shutdown, recreate, shutdown again -- with real
// work between the steps so tsan sees the worker threads start and join
// cleanly.
TEST(ParRegistry, SharedPoolShutdownJoinsAndAllowsRecreation) {
  WorkStealingPool& before = shared_pool(2);
  auto run_once = [](std::uint64_t seed) {
    return par_ba_partition(shared_pool(2), make_problem(seed), 64,
                            ParOptions{});
  };
  const auto first = run_once(11);
  EXPECT_EQ(first.pieces.size(), 64u);

  shutdown_shared_pools();
  // A fresh pool must come up after teardown and serve identical answers.
  WorkStealingPool& after = shared_pool(2);
  EXPECT_EQ(after.size(), 2u);
  const auto second = run_once(11);
  expect_identical(second, first, "pool recreated after shutdown");

  // Idempotent: a second (and an empty-cache) shutdown is a no-op.
  shutdown_shared_pools();
  shutdown_shared_pools();
  EXPECT_EQ(shared_pool(1).size(), 1u);
  (void)before;
}

// Regression (pinning the resolved-count contract): with threads <= 0 the
// par.threads counter must report the worker count the pool actually
// resolved to (hardware_concurrency, min 1), never the raw config value.
TEST(ParRegistry, ThreadsCounterReportsResolvedWorkerCount) {
  register_par_partitioners();
  const unsigned hw = std::thread::hardware_concurrency();
  const double resolved = static_cast<double>(hw != 0 ? hw : 1u);

  struct CapturingSink final : core::MetricsSink {
    std::map<std::string, double> counters;
    void on_counter(std::string_view key, double value) override {
      counters[std::string(key)] = value;
    }
  };

  for (const std::int32_t threads : {0, -4}) {
    core::PartitionerConfig config;
    config.threads = threads;
    const auto part =
        core::PartitionerRegistry::instance().create("par:ba", config);
    CapturingSink sink;
    core::RunContext ctx(5);
    ctx.sink = &sink;
    const auto out = part->run(ctx, core::AnyProblem(make_problem(9)), 32);
    EXPECT_EQ(out.pieces.size(), 32u);
    EXPECT_EQ(sink.counters.at("par.threads"), resolved)
        << "config.threads=" << threads;
    EXPECT_GT(sink.counters.at("par.threads"), 0.0);
  }
}

}  // namespace
}  // namespace lbb::runtime
