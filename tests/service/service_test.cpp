// Tests for the resident PartitionService (src/service/): cache-hit /
// cache-miss byte identity across every registered partitioner family,
// single-flight batching, hits served on the caller's thread, admission
// control, cancellation under load (queued and mid-batch, without cache
// poisoning), shutdown draining, eviction's node reuse, and
// stats/reporting.  The `service` ctest label groups these; the
// determinism harness runs them alongside `lbb_bench serve_load --smoke`.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/ba.hpp"
#include "core/partitioner.hpp"
#include "core/run_context.hpp"
#include "core/workspace.hpp"
#include "service/partition_service.hpp"
#include "sim/partitioners.hpp"
#include "stats/alloc_stats.hpp"

namespace lbb::service {
namespace {

RequestSpec spec_for(std::string_view algo, std::uint64_t problem_seed = 3,
                     std::int32_t n = 96) {
  RequestSpec spec;
  spec.algo = algo;
  spec.problem_seed = problem_seed;
  spec.n = n;
  spec.alpha_lo = 0.1;
  spec.alpha_hi = 0.5;
  spec.alpha = 0.25;
  spec.beta = 1.0;
  return spec;
}

ServiceConfig small_config(std::int32_t workers) {
  ServiceConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = 64;
  return cfg;
}

/// Spin-waits (with yields) until `pred` holds or ~5s pass.
template <typename Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 50000; ++i) {
    if (pred()) return true;
    std::this_thread::yield();
    if (i % 100 == 99) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return pred();
}

// ---------------------------------------------------------------------------
// A registry-registered partitioner that blocks inside run() until a gate
// opens, so tests can hold a batch in its computing phase deterministically.

struct GateState {
  std::atomic<int> entered{0};
  std::atomic<bool> open{false};
};

class GatePartitioner final : public core::Partitioner {
 public:
  explicit GatePartitioner(std::shared_ptr<GateState> state)
      : state_(std::move(state)) {}

  [[nodiscard]] const core::PartitionerInfo& info() const override {
    static const core::PartitionerInfo kInfo{
        "svc_test:gate", "Gate(test)",
        "blocks until the test opens the gate, then runs BA"};
    return kInfo;
  }

  [[nodiscard]] core::Partition<core::AnyProblem> run(
      core::RunContext& ctx, core::AnyProblem problem,
      std::int32_t n) const override {
    ctx.checkpoint();
    state_->entered.fetch_add(1);
    while (!state_->open.load()) std::this_thread::yield();
    core::TrialWorkspace<core::AnyProblem> ws;
    return core::ba_partition(ws, std::move(problem), n, {});
  }

 private:
  std::shared_ptr<GateState> state_;
};

/// Registers (or re-registers: last registration wins) the gate entry and
/// returns the state handle controlling it.
std::shared_ptr<GateState> install_gate() {
  auto state = std::make_shared<GateState>();
  core::PartitionerRegistry::instance().add(
      {"svc_test:gate", "Gate(test)", "service-test gate partitioner"},
      [state](const core::PartitionerConfig&) {
        return std::make_unique<GatePartitioner>(state);
      });
  return state;
}

// ---------------------------------------------------------------------------
// Basic serving

TEST(PartitionService, ServesAValidPartition) {
  PartitionService svc(small_config(1));
  const auto result = svc.call(spec_for("ba"));
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->pieces.size(), 96u);
  EXPECT_EQ(result->processors, 96);
  EXPECT_NEAR(result->total_weight, 1.0, 1e-9);
  EXPECT_GE(result->ratio, 1.0);
  EXPECT_GT(result->bisections, 0);
  double sum = 0.0;
  for (const PieceRecord& piece : result->pieces) sum += piece.weight;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(PartitionService, RejectsMalformedSpecsBeforeQueueing) {
  PartitionService svc(small_config(1));
  PartitionRequest req;
  req.spec = spec_for("ba");
  req.spec.n = 0;
  EXPECT_THROW((void)svc.try_submit(req), std::invalid_argument);
  req.spec = spec_for("ba");
  req.spec.alpha_lo = 0.0;  // AlphaDistribution needs lo > 0
  EXPECT_THROW((void)svc.try_submit(req), std::invalid_argument);
  req.spec = spec_for("ba");
  req.spec.alpha_hi = 0.6;  // and hi <= 1/2
  EXPECT_THROW((void)svc.try_submit(req), std::invalid_argument);
  const ServiceStats stats = svc.snapshot();
  EXPECT_EQ(stats.submitted, 0);
}

TEST(PartitionService, UnknownAlgoCompletesWithTypedError) {
  PartitionService svc(small_config(1));
  PartitionRequest req;
  req.spec = spec_for("no_such_partitioner");
  svc.submit(req);
  EXPECT_EQ(req.wait(), ServiceStatus::kError);
  EXPECT_EQ(req.result(), nullptr);
  EXPECT_NE(req.error_message().find("no_such_partitioner"),
            std::string::npos);
  const ServiceStats stats = svc.snapshot();
  EXPECT_EQ(stats.errors, 1);
  EXPECT_EQ(stats.cache_entries, 0);  // failures are never cached
}

// ---------------------------------------------------------------------------
// Memoization: byte identity between hit, miss, and fresh compute

TEST(PartitionService, CacheHitIsByteIdenticalForEveryRegisteredFamily) {
  // Bring in every registration hook this repo has (core self-registers,
  // par:* comes with the service, sim:*/phf:* from the sim layer).
  sim::register_sim_partitioners();
  PartitionService svc(small_config(1));
  std::size_t families = 0;
  for (const core::PartitionerInfo& info :
       core::PartitionerRegistry::instance().list()) {
    if (info.name.rfind("svc_test:", 0) == 0) continue;  // test stubs
    ++families;
    PartitionRequest miss, hit, fresh;
    miss.spec = hit.spec = fresh.spec = spec_for(info.name, 11, 64);
    fresh.bypass_cache = true;

    svc.submit(miss);
    ASSERT_EQ(miss.wait(), ServiceStatus::kOk)
        << info.name << ": " << miss.error_message();
    EXPECT_FALSE(miss.served_from_cache()) << info.name;

    svc.submit(hit);
    ASSERT_EQ(hit.wait(), ServiceStatus::kOk) << info.name;
    EXPECT_TRUE(hit.served_from_cache()) << info.name;
    // A hit shares the cached object -- trivially identical bytes.
    EXPECT_EQ(hit.result().get(), miss.result().get()) << info.name;

    // The strong claim: a cache-BYPASSING recompute of the same key is
    // byte-identical to the cached answer (field-exact doubles), for every
    // family including the ctx-seeded randomized ones (the run seed is
    // derived from the key, not the caller).
    svc.submit(fresh);
    ASSERT_EQ(fresh.wait(), ServiceStatus::kOk) << info.name;
    EXPECT_FALSE(fresh.served_from_cache()) << info.name;
    ASSERT_NE(fresh.result(), nullptr) << info.name;
    EXPECT_TRUE(*fresh.result() == *miss.result())
        << info.name << ": recompute diverged from cached result";
  }
  // The registry must have provided the full shipped set (4 sequential + 3
  // oblivious + 3 par + the sim/phf families).
  EXPECT_GE(families, 13u);
  const ServiceStats stats = svc.snapshot();
  EXPECT_EQ(stats.cache_entries, static_cast<std::int64_t>(families));
  EXPECT_EQ(stats.bypassed, static_cast<std::int64_t>(families));
}

TEST(PartitionService, AlphaBandQuantizationSharesEntries) {
  PartitionService svc(small_config(1));
  PartitionRequest a, b;
  a.spec = b.spec = spec_for("ba_star");
  // Nudge alpha by less than one key quantum: same band, so b must hit.
  b.spec.alpha = a.spec.alpha + 0.4 / core::PartitionCacheKey::kQuantum;
  svc.submit(a);
  ASSERT_EQ(a.wait(), ServiceStatus::kOk);
  svc.submit(b);
  ASSERT_EQ(b.wait(), ServiceStatus::kOk);
  EXPECT_TRUE(b.served_from_cache());
  EXPECT_EQ(b.result().get(), a.result().get());
  EXPECT_EQ(a.key(), b.key());
}

TEST(PartitionService, CacheDisabledAlwaysComputes) {
  ServiceConfig cfg = small_config(1);
  cfg.cache_enabled = false;
  PartitionService svc(cfg);
  PartitionRequest a, b;
  a.spec = b.spec = spec_for("ba");
  svc.submit(a);
  ASSERT_EQ(a.wait(), ServiceStatus::kOk);
  svc.submit(b);
  ASSERT_EQ(b.wait(), ServiceStatus::kOk);
  EXPECT_FALSE(b.served_from_cache());
  EXPECT_NE(b.result().get(), a.result().get());
  EXPECT_TRUE(*b.result() == *a.result());  // still deterministic
  EXPECT_EQ(svc.snapshot().cache_entries, 0);
}

TEST(PartitionService, SecondChanceEvictsColdEntryAndKeepsHitOne) {
  ServiceConfig cfg = small_config(1);
  cfg.cache_capacity = 2;
  PartitionService svc(cfg);
  const auto a1 = svc.call(spec_for("ba", 1));  // fills slot 0
  const auto b1 = svc.call(spec_for("ba", 2));  // fills slot 1
  // A hit sets key 1's referenced bit, so the sweep must spare it.
  (void)svc.call(spec_for("ba", 1));
  // Cache full: the clock hand clears key 1's bit, passes it over, and
  // evicts the cold key 2 to make room for key 3.
  (void)svc.call(spec_for("ba", 3));
  ServiceStats stats = svc.snapshot();
  EXPECT_EQ(stats.cache_entries, 2);
  EXPECT_EQ(stats.cache_evictions, 1);

  PartitionRequest one, three;
  one.spec = spec_for("ba", 1);
  three.spec = spec_for("ba", 3);
  svc.submit(one);
  ASSERT_EQ(one.wait(), ServiceStatus::kOk);
  EXPECT_TRUE(one.served_from_cache());
  EXPECT_EQ(one.result().get(), a1.get());
  svc.submit(three);
  ASSERT_EQ(three.wait(), ServiceStatus::kOk);
  EXPECT_TRUE(three.served_from_cache());

  // The evicted key recomputes byte-identically: eviction changes hit
  // counts, never served bytes.
  PartitionRequest two;
  two.spec = spec_for("ba", 2);
  svc.submit(two);
  ASSERT_EQ(two.wait(), ServiceStatus::kOk);
  EXPECT_FALSE(two.served_from_cache());
  EXPECT_NE(two.result().get(), b1.get());
  EXPECT_TRUE(*two.result() == *b1);
}

TEST(PartitionService, ClockSweepWrapsWhenEveryEntryIsReferenced) {
  ServiceConfig cfg = small_config(1);
  cfg.cache_capacity = 2;
  PartitionService svc(cfg);
  (void)svc.call(spec_for("ba", 1));
  (void)svc.call(spec_for("ba", 2));
  (void)svc.call(spec_for("ba", 1));  // reference both entries
  (void)svc.call(spec_for("ba", 2));
  // Full sweep: the hand strips both bits, wraps, and evicts slot 0.
  (void)svc.call(spec_for("ba", 3));
  ServiceStats stats = svc.snapshot();
  EXPECT_EQ(stats.cache_entries, 2);
  EXPECT_EQ(stats.cache_evictions, 1);
  PartitionRequest two, three;
  two.spec = spec_for("ba", 2);
  three.spec = spec_for("ba", 3);
  svc.submit(two);
  ASSERT_EQ(two.wait(), ServiceStatus::kOk);
  EXPECT_TRUE(two.served_from_cache());  // slot 1 survived the wrap
  svc.submit(three);
  ASSERT_EQ(three.wait(), ServiceStatus::kOk);
  EXPECT_TRUE(three.served_from_cache());
}

TEST(PartitionService, EvictingMissReusesTheVictimsCacheNode) {
  if (!stats::alloc_probe_linked()) GTEST_SKIP() << "alloc probe not linked";
  ServiceConfig cfg = small_config(1);
  cfg.cache_capacity = 1;
  PartitionService svc(cfg);
  // Bypassing computes of both keys create the partitioner and size the
  // worker's workspace, so the two measured misses differ only in what
  // the cache itself allocates.
  for (std::uint64_t seed : {1u, 2u}) {
    PartitionRequest warm;
    warm.spec = spec_for("ba", seed);
    warm.bypass_cache = true;
    svc.submit(warm);
    ASSERT_EQ(warm.wait(), ServiceStatus::kOk);
  }
  const auto worker_allocs = [&](std::uint64_t seed) {
    const std::int64_t before = svc.snapshot().alloc_count;
    (void)svc.call(spec_for("ba", seed));
    return svc.snapshot().alloc_count - before;
  };
  const std::int64_t filling = worker_allocs(1);
  const std::int64_t evicting = worker_allocs(2);
  EXPECT_EQ(svc.snapshot().cache_evictions, 1);
  EXPECT_EQ(svc.snapshot().cache_entries, 1);
  EXPECT_EQ(filling - evicting, 1)
      << "filling miss allocated " << filling << ", evicting miss "
      << evicting;
  // The re-keyed node serves the new key, and the old key is gone.
  PartitionRequest two, one;
  two.spec = spec_for("ba", 2);
  ASSERT_TRUE(svc.try_submit(two));
  EXPECT_EQ(two.status(), ServiceStatus::kOk);
  EXPECT_TRUE(two.served_from_cache());
  one.spec = spec_for("ba", 1);
  svc.submit(one);
  ASSERT_EQ(one.wait(), ServiceStatus::kOk);
  EXPECT_FALSE(one.served_from_cache());
}

// ---------------------------------------------------------------------------
// Batching (single-flight coalescing)

TEST(PartitionService, CoalescesSameKeyRequestsIntoOneCompute) {
  auto gate = install_gate();
  PartitionService svc(small_config(2));

  PartitionRequest leader;
  leader.spec = spec_for("svc_test:gate");
  svc.submit(leader);
  ASSERT_TRUE(eventually([&] { return gate->entered.load() == 1; }));

  // Same key while the leader computes: the free worker must attach it to
  // the in-flight batch instead of computing again.
  PartitionRequest follower;
  follower.spec = spec_for("svc_test:gate");
  svc.submit(follower);
  ASSERT_TRUE(
      eventually([&] { return svc.snapshot().coalesced == 1; }));
  EXPECT_EQ(gate->entered.load(), 1);  // no second compute started

  gate->open.store(true);
  EXPECT_EQ(leader.wait(), ServiceStatus::kOk);
  EXPECT_EQ(follower.wait(), ServiceStatus::kOk);
  EXPECT_FALSE(leader.served_from_cache());
  EXPECT_TRUE(follower.served_from_cache());
  EXPECT_EQ(follower.result().get(), leader.result().get());
  EXPECT_EQ(gate->entered.load(), 1);  // one compute served both
}

// ---------------------------------------------------------------------------
// Caller-side hits: answered inside try_submit, never queued

TEST(PartitionService, CachedKeyIsServedWhileTheOnlyWorkerIsBlocked) {
  auto gate = install_gate();
  PartitionService svc(small_config(1));
  const auto cached = svc.call(spec_for("ba", 5));

  PartitionRequest blocker;
  blocker.spec = spec_for("svc_test:gate");
  svc.submit(blocker);
  ASSERT_TRUE(eventually([&] { return gate->entered.load() == 1; }));

  // No worker is free, so only the caller's thread can answer this.
  PartitionRequest hit;
  hit.spec = spec_for("ba", 5);
  // (EXPECT, not ASSERT, until the gate opens: an early return would leave
  // the worker blocked and the service's destructor waiting on it.)
  EXPECT_TRUE(svc.try_submit(hit));
  EXPECT_EQ(hit.status(), ServiceStatus::kOk);
  EXPECT_TRUE(hit.served_from_cache());
  EXPECT_EQ(hit.result().get(), cached.get());
  EXPECT_EQ(blocker.status(), ServiceStatus::kPending);

  gate->open.store(true);
  EXPECT_EQ(blocker.wait(), ServiceStatus::kOk);
}

TEST(PartitionService, FullQueueStillServesCachedKeys) {
  auto gate = install_gate();
  ServiceConfig cfg = small_config(1);
  cfg.queue_capacity = 1;
  PartitionService svc(cfg);
  (void)svc.call(spec_for("ba", 5));

  PartitionRequest blocker, queued;
  blocker.spec = spec_for("svc_test:gate");
  svc.submit(blocker);
  ASSERT_TRUE(eventually([&] { return gate->entered.load() == 1; }));
  queued.spec = spec_for("ba", 6);
  EXPECT_TRUE(svc.try_submit(queued));  // the one queue slot

  const std::int64_t rejected = svc.snapshot().rejected;
  PartitionRequest hit;
  hit.spec = spec_for("ba", 5);
  EXPECT_TRUE(svc.try_submit(hit));
  EXPECT_EQ(hit.status(), ServiceStatus::kOk);
  EXPECT_TRUE(hit.served_from_cache());
  EXPECT_EQ(svc.snapshot().rejected, rejected);

  // The queue really is full: a miss is still refused.
  PartitionRequest overflow;
  overflow.spec = spec_for("ba", 7);
  EXPECT_FALSE(svc.try_submit(overflow));
  EXPECT_EQ(overflow.status(), ServiceStatus::kRejected);
  EXPECT_EQ(svc.snapshot().rejected, rejected + 1);

  gate->open.store(true);
  EXPECT_EQ(blocker.wait(), ServiceStatus::kOk);
  EXPECT_EQ(queued.wait(), ServiceStatus::kOk);
}

TEST(PartitionService, CancelledOrExpiredCachedKeyIsStillCancelled) {
  PartitionService svc(small_config(1));
  (void)svc.call(spec_for("ba", 5));

  core::CancelToken token;
  token.cancel();
  PartitionRequest cancelled;
  cancelled.spec = spec_for("ba", 5);
  cancelled.cancel = &token;
  svc.submit(cancelled);
  EXPECT_EQ(cancelled.wait(), ServiceStatus::kCancelled);
  EXPECT_EQ(cancelled.result(), nullptr);
  EXPECT_FALSE(cancelled.served_from_cache());

  PartitionRequest expired;
  expired.spec = spec_for("ba", 5);
  expired.set_deadline_after(1e-6);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  svc.submit(expired);
  EXPECT_EQ(expired.wait(), ServiceStatus::kCancelled);
  EXPECT_EQ(expired.result(), nullptr);
  EXPECT_FALSE(expired.served_from_cache());

  const ServiceStats stats = svc.snapshot();
  EXPECT_EQ(stats.cancelled, 2);
  EXPECT_EQ(stats.cache_hits, 0);
}

TEST(PartitionService, StoppedServiceRefusesCachedKeys) {
  PartitionService svc(small_config(1));
  (void)svc.call(spec_for("ba", 5));
  svc.stop();
  PartitionRequest late;
  late.spec = spec_for("ba", 5);
  EXPECT_FALSE(svc.try_submit(late));
  EXPECT_EQ(late.status(), ServiceStatus::kShutdown);
  EXPECT_EQ(late.result(), nullptr);
  EXPECT_EQ(svc.snapshot().cache_hits, 0);
}

TEST(PartitionService, CountersBalanceAfterAMixedRun) {
  auto gate = install_gate();
  PartitionService svc(small_config(2));

  // Followers of a running batch join it inside try_submit: coalesced
  // counts them before try_submit returns.
  PartitionRequest leader;
  leader.spec = spec_for("svc_test:gate");
  svc.submit(leader);
  ASSERT_TRUE(eventually([&] { return gate->entered.load() == 1; }));
  std::vector<PartitionRequest> followers(3);
  for (PartitionRequest& f : followers) {
    f.spec = spec_for("svc_test:gate");
    svc.submit(f);
  }
  EXPECT_EQ(svc.snapshot().coalesced, 3);
  gate->open.store(true);
  ASSERT_EQ(leader.wait(), ServiceStatus::kOk);
  for (PartitionRequest& f : followers) {
    ASSERT_EQ(f.wait(), ServiceStatus::kOk);
    EXPECT_EQ(f.result().get(), leader.result().get());
  }

  // Concurrent callers over a few keys, every fourth request bypassing.
  constexpr int kCallers = 3;
  constexpr int kRounds = 20;
  std::vector<int> failures(kCallers, 0);
  {
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        PartitionRequest req;
        for (int r = 0; r < kRounds; ++r) {
          req.spec = spec_for("ba", static_cast<std::uint64_t>(r % 4), 64);
          req.bypass_cache = (r + c) % 4 == 0;
          if (!svc.try_submit(req) || req.wait() != ServiceStatus::kOk) {
            ++failures[c];
          }
        }
      });
    }
    for (std::thread& t : callers) t.join();
  }
  for (int f : failures) EXPECT_EQ(f, 0);

  const ServiceStats stats = svc.snapshot();
  const std::int64_t total = 1 + 3 + kCallers * kRounds;
  EXPECT_EQ(stats.submitted, total);
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.served_ok, total);
  EXPECT_EQ(stats.bypassed, kCallers * kRounds / 4);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses + stats.coalesced +
                stats.bypassed,
            stats.submitted);
  EXPECT_EQ(stats.cache_misses, 1 + 4);  // the gate key plus four ba keys
}

// ---------------------------------------------------------------------------
// Admission control

TEST(PartitionService, AdmissionControlRejectsWhenQueueFull) {
  auto gate = install_gate();
  ServiceConfig cfg = small_config(1);
  cfg.queue_capacity = 2;
  PartitionService svc(cfg);

  PartitionRequest blocker;
  blocker.spec = spec_for("svc_test:gate");
  svc.submit(blocker);
  ASSERT_TRUE(eventually([&] { return gate->entered.load() == 1; }));

  // The single worker is busy; fill the queue to capacity.
  PartitionRequest q1, q2, overflow;
  q1.spec = q2.spec = overflow.spec = spec_for("ba");
  ASSERT_TRUE(svc.try_submit(q1));
  ASSERT_TRUE(svc.try_submit(q2));

  EXPECT_FALSE(svc.try_submit(overflow));
  EXPECT_EQ(overflow.status(), ServiceStatus::kRejected);
  try {
    svc.submit(overflow);
    FAIL() << "submit() must throw AdmissionError when the queue is full";
  } catch (const AdmissionError& e) {
    EXPECT_EQ(e.status(), ServiceStatus::kRejected);
  }

  gate->open.store(true);
  EXPECT_EQ(blocker.wait(), ServiceStatus::kOk);
  EXPECT_EQ(q1.wait(), ServiceStatus::kOk);
  EXPECT_EQ(q2.wait(), ServiceStatus::kOk);
  const ServiceStats stats = svc.snapshot();
  EXPECT_EQ(stats.rejected, 2);
  // A rejected block is reusable once the pressure is gone.
  svc.submit(overflow);
  EXPECT_EQ(overflow.wait(), ServiceStatus::kOk);
}

// ---------------------------------------------------------------------------
// Cancellation under load

TEST(PartitionService, CancelledWhileQueuedCompletesWithoutComputing) {
  auto gate = install_gate();
  PartitionService svc(small_config(1));

  PartitionRequest blocker;
  blocker.spec = spec_for("svc_test:gate");
  svc.submit(blocker);
  ASSERT_TRUE(eventually([&] { return gate->entered.load() == 1; }));

  core::CancelToken token;
  PartitionRequest c1, c2;
  c1.spec = c2.spec = spec_for("ba", 77);
  c1.cancel = &token;
  c2.cancel = &token;
  svc.submit(c1);
  svc.submit(c2);
  token.cancel();
  gate->open.store(true);

  EXPECT_EQ(blocker.wait(), ServiceStatus::kOk);
  EXPECT_EQ(c1.wait(), ServiceStatus::kCancelled);
  EXPECT_EQ(c2.wait(), ServiceStatus::kCancelled);
  EXPECT_EQ(c1.result(), nullptr);

  const ServiceStats stats = svc.snapshot();
  EXPECT_EQ(stats.cancelled, 2);
  // The cancelled key was never computed, so nothing (valid or poisoned)
  // was cached for it; the gate key is the single entry.
  EXPECT_EQ(stats.cache_entries, 1);
  // And the key still serves normally afterwards.
  PartitionRequest again;
  again.spec = spec_for("ba", 77);
  svc.submit(again);
  EXPECT_EQ(again.wait(), ServiceStatus::kOk);
  EXPECT_FALSE(again.served_from_cache());
}

TEST(PartitionService, CancelledMidBatchDoesNotPoisonTheCache) {
  auto gate = install_gate();
  PartitionService svc(small_config(2));

  PartitionRequest leader;
  leader.spec = spec_for("svc_test:gate");
  svc.submit(leader);
  ASSERT_TRUE(eventually([&] { return gate->entered.load() == 1; }));

  core::CancelToken token;
  PartitionRequest follower;
  follower.spec = spec_for("svc_test:gate");
  follower.cancel = &token;
  svc.submit(follower);
  ASSERT_TRUE(
      eventually([&] { return svc.snapshot().coalesced == 1; }));

  // The token fires while the follower is attached to the computing batch:
  // it must come back kCancelled even though the batch succeeds.
  token.cancel();
  gate->open.store(true);
  EXPECT_EQ(leader.wait(), ServiceStatus::kOk);
  EXPECT_EQ(follower.wait(), ServiceStatus::kCancelled);
  EXPECT_EQ(follower.result(), nullptr);

  // The computed value stayed valid for the key: a third request hits the
  // cache and matches the leader byte for byte.
  PartitionRequest after;
  after.spec = spec_for("svc_test:gate");
  svc.submit(after);
  ASSERT_EQ(after.wait(), ServiceStatus::kOk);
  EXPECT_TRUE(after.served_from_cache());
  EXPECT_EQ(after.result().get(), leader.result().get());
  EXPECT_EQ(gate->entered.load(), 1);
}

TEST(PartitionService, DeadlineExpiryCancelsQueuedRequest) {
  auto gate = install_gate();
  PartitionService svc(small_config(1));

  PartitionRequest blocker;
  blocker.spec = spec_for("svc_test:gate");
  svc.submit(blocker);
  ASSERT_TRUE(eventually([&] { return gate->entered.load() == 1; }));

  PartitionRequest doomed;
  doomed.spec = spec_for("ba", 99);
  doomed.set_deadline_after(1e-4);
  svc.submit(doomed);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  gate->open.store(true);

  EXPECT_EQ(blocker.wait(), ServiceStatus::kOk);
  EXPECT_EQ(doomed.wait(), ServiceStatus::kCancelled);
  EXPECT_GT(doomed.latency_ms(), 0.0);
}

// ---------------------------------------------------------------------------
// Shutdown

TEST(PartitionService, StopDrainsQueueAndRefusesNewWork) {
  auto gate = install_gate();
  PartitionService svc(small_config(1));

  PartitionRequest inflight;
  inflight.spec = spec_for("svc_test:gate");
  svc.submit(inflight);
  ASSERT_TRUE(eventually([&] { return gate->entered.load() == 1; }));

  PartitionRequest queued;
  queued.spec = spec_for("ba");
  svc.submit(queued);

  // stop() joins the worker, which is blocked on the gate: release it from
  // a helper thread once the drain has begun.
  std::thread opener([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gate->open.store(true);
  });
  svc.stop();
  opener.join();

  // The in-flight batch completed normally; the queued request drained.
  EXPECT_EQ(inflight.wait(), ServiceStatus::kOk);
  EXPECT_EQ(queued.wait(), ServiceStatus::kShutdown);
  EXPECT_EQ(queued.result(), nullptr);

  PartitionRequest late;
  late.spec = spec_for("ba");
  EXPECT_FALSE(svc.try_submit(late));
  EXPECT_EQ(late.status(), ServiceStatus::kShutdown);
  try {
    svc.submit(late);
    FAIL() << "submit() after stop() must throw AdmissionError";
  } catch (const AdmissionError& e) {
    EXPECT_EQ(e.status(), ServiceStatus::kShutdown);
  }
  svc.stop();  // idempotent
}

// ---------------------------------------------------------------------------
// Stats and reporting

struct CapturingSink final : core::MetricsSink {
  std::map<std::string, double> counters;
  void on_counter(std::string_view key, double value) override {
    counters[std::string(key)] = value;
  }
};

TEST(PartitionService, ReportsCoherentStatsThroughMetricsSink) {
  PartitionService svc(small_config(1));
  for (int i = 0; i < 3; ++i) (void)svc.call(spec_for("ba", 1));
  (void)svc.call(spec_for("ba", 2));

  CapturingSink sink;
  svc.report(sink);
  EXPECT_EQ(sink.counters.at("service.submitted"), 4.0);
  EXPECT_EQ(sink.counters.at("service.served_ok"), 4.0);
  EXPECT_EQ(sink.counters.at("service.cache_hits"), 2.0);
  EXPECT_EQ(sink.counters.at("service.cache_misses"), 2.0);
  EXPECT_EQ(sink.counters.at("service.cache_entries"), 2.0);
  EXPECT_EQ(sink.counters.at("service.workers"), 1.0);
  EXPECT_EQ(sink.counters.at("service.latency_samples"), 4.0);
  const double p50 = sink.counters.at("service.p50_ms");
  const double p95 = sink.counters.at("service.p95_ms");
  const double p99 = sink.counters.at("service.p99_ms");
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GT(sink.counters.at("service.partitions_per_sec"), 0.0);

  // reset_stats() zeroes the window but keeps the cache warm.
  svc.reset_stats();
  const ServiceStats after = svc.snapshot();
  EXPECT_EQ(after.submitted, 0);
  EXPECT_EQ(after.latency_samples, 0);
  EXPECT_EQ(after.cache_entries, 2);
  PartitionRequest req;
  req.spec = spec_for("ba", 1);
  svc.submit(req);
  ASSERT_EQ(req.wait(), ServiceStatus::kOk);
  EXPECT_TRUE(req.served_from_cache());
}

// ---------------------------------------------------------------------------
// Concurrency smoke: many callers, many keys, every answer correct

TEST(PartitionService, ConcurrentCallersGetConsistentAnswers) {
  PartitionService svc(small_config(2));
  constexpr int kCallers = 4;
  constexpr int kRounds = 25;
  std::vector<std::string> failures(kCallers);
  {
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        PartitionRequest req;
        for (int r = 0; r < kRounds; ++r) {
          req.spec = spec_for("ba", static_cast<std::uint64_t>(r % 5), 64);
          if (!svc.try_submit(req)) {
            failures[c] = "rejected";
            return;
          }
          if (req.wait() != ServiceStatus::kOk) {
            failures[c] = "status " +
                          std::string(to_string(req.status())) + ": " +
                          req.error_message();
            return;
          }
          if (req.result()->pieces.size() != 64u) {
            failures[c] = "wrong piece count";
            return;
          }
        }
      });
    }
    for (std::thread& t : callers) t.join();
  }
  for (const std::string& f : failures) EXPECT_EQ(f, "");
  const ServiceStats stats = svc.snapshot();
  EXPECT_EQ(stats.served_ok, kCallers * kRounds);
  // 5 distinct keys; every other completion was a hit or coalesced.
  EXPECT_EQ(stats.cache_entries, 5);
  EXPECT_EQ(stats.cache_hits + stats.coalesced + stats.cache_misses,
            stats.served_ok);
  EXPECT_EQ(stats.cache_misses, 5);
}

}  // namespace
}  // namespace lbb::service
