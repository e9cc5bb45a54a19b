// Partition-as-a-service: a resident process answering a stream of
// partition requests (ROADMAP item 2 -- the "millions of users" framing of
// the paper's algorithms).
//
// Request lifecycle:
//
//   caller thread, inside submit(req)    service worker threads
//   ---------------------------------    ----------------------
//   stopped?            -> kShutdown     pop from the bounded ring
//   memo-cache lookup   -> kOk (hit)     1. cancelled/expired? -> kCancelled
//   same key in flight? -> attach to     2. lookup + attach again (the key
//                          that batch       may have been cached, or its
//   else ring full?     -> kRejected        batch started, while queued)
//   else push to the ring ──────────►    3. else compute once, fill the
//   req.wait()                              cache, complete every request
//     ◄──────────────────────────────       the batch coalesced
//
// Bypassing, already-cancelled and expired requests skip the caller-side
// lookup and always take the ring.  One helper (lookup_locked) does the
// lookup and the attach on both sides, under the same lock.
//
// Determinism & memoization: requests are canonicalized into a
// core::PartitionCacheKey (quantized alpha-band; see core/cache_key.hpp)
// and computed from the CANONICAL key -- dequantized parameters, RNG seed
// derived from the key -- so a cache hit is byte-identical to the miss
// that filled it and to any recompute of the same key, on any server.
// The `service` ctest suite asserts this for every deterministic
// partitioner family.
//
// Allocation contract: a warm cache hit is allocation-free.  It is served
// whole on the caller's thread -- a hash lookup, a shared_ptr copy, and the
// completion protocol (C++20 atomic wait/notify) over a preallocated latency
// reservoir -- and never reaches a worker.  Worker-side allocations are
// measured per request (stats/alloc_stats.hpp) and surface as
// ServiceStats::alloc_count; the perf alloc gate pins the caller side and
// the worker side to zero across warm hits.  A miss allocates its result
// (the PartitionResult block and its pieces vector): that is the cost of
// owning a shared answer.  Into a full cache it reuses the evicted entry's
// hash node, so only the first fill of each slot allocates a node.
//
// Tail latency: every served request records submit-to-completion time in
// a stats::PercentileReservoir; snapshot() / report() expose p50/p95/p99
// and partitions/sec, which `lbb_bench serve_load` writes into
// BENCH_serve_load.json via a MetricsSink (tools/bench_diff.py tracks the
// p99 trajectory like it tracks timings).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/cache_key.hpp"
#include "core/partitioner.hpp"
#include "core/run_context.hpp"
#include "core/sync.hpp"
#include "core/workspace.hpp"
#include "problems/synthetic.hpp"
#include "stats/percentiles.hpp"

namespace lbb::service {

/// Terminal states of a request.  kPending is the in-flight state the
/// caller waits out; every other value is final.
enum class ServiceStatus : std::uint8_t {
  kPending = 0,
  kOk,         ///< result() is set
  kRejected,   ///< admission control: the request queue was full
  kCancelled,  ///< the request's token fired / deadline passed in flight
  kShutdown,   ///< the service stopped before serving the request
  kError,      ///< compute failed; error_message() has the reason
};

[[nodiscard]] std::string_view to_string(ServiceStatus status) noexcept;

/// Typed admission-control error thrown by the throwing submit()/call()
/// forms when the bounded request queue is full (or the service stopped).
class AdmissionError : public std::runtime_error {
 public:
  AdmissionError(ServiceStatus status, const std::string& what)
      : std::runtime_error(what), status_(status) {}
  [[nodiscard]] ServiceStatus status() const noexcept { return status_; }

 private:
  ServiceStatus status_;
};

/// One piece of a served partition.  The problem instances themselves are
/// not shipped back (the caller can rebuild any piece from the class spec);
/// what is cached and compared byte-for-byte is the assignment.
struct PieceRecord {
  double weight = 0.0;
  std::int32_t processor = 0;
  std::int32_t depth = 0;

  friend bool operator==(const PieceRecord&, const PieceRecord&) = default;
};

/// Immutable served answer, shared between the cache and every response
/// that hit it.
struct PartitionResult {
  std::vector<PieceRecord> pieces;
  double total_weight = 0.0;
  std::int32_t processors = 0;
  std::int64_t bisections = 0;
  std::int32_t max_depth = 0;
  double max_weight = 0.0;
  double ratio = 0.0;

  friend bool operator==(const PartitionResult&,
                         const PartitionResult&) = default;
};

/// What the caller asks for: partition SyntheticProblem(problem_seed,
/// U[alpha_lo, alpha_hi]) into n pieces with registry partitioner `algo`.
/// Canonicalized into a core::PartitionCacheKey at submit time.
struct RequestSpec {
  std::string_view algo = "ba";  ///< registry key; must outlive the request
  std::uint64_t problem_seed = 1;
  std::int32_t n = 64;
  double alpha_lo = 0.1;  ///< problem-class alpha-band
  double alpha_hi = 0.5;
  double alpha = 0.25;    ///< partitioner parameter (ba_star / ba_hf / phf)
  double beta = 1.0;      ///< partitioner parameter (ba_hf)
};

class PartitionService;

/// One in-flight request.  Caller-owned (stack or pooled): the service
/// never allocates or frees request blocks.  Not reusable while pending;
/// submit() re-arms a finished block.  A request must not be destroyed
/// between a successful submit and the terminal-state transition observed
/// by wait().
class PartitionRequest {
 public:
  RequestSpec spec;

  /// Optional cooperative cancellation (not owned; may be nullptr).
  /// Checked at submit (a fired token skips the caller-side lookup), when
  /// the request is popped, and again when its batch completes: firing mid-batch yields kCancelled without poisoning the
  /// cache -- the computed value is still valid for the key.
  const core::CancelToken* cancel = nullptr;

  /// Skip the memo cache and the batcher entirely: always compute, never
  /// insert.  For byte-identity checks against a fresh compute.
  bool bypass_cache = false;

  /// Sets a per-request deadline `seconds` from now (<= 0 clears).
  void set_deadline_after(double seconds);

  /// Blocks until the request reaches a terminal state; returns it.
  ServiceStatus wait() noexcept;

  [[nodiscard]] ServiceStatus status() const noexcept {
    return static_cast<ServiceStatus>(state_.load());
  }
  [[nodiscard]] bool ok() const noexcept {
    return status() == ServiceStatus::kOk;
  }
  /// The served answer (kOk only; nullptr otherwise).
  [[nodiscard]] const std::shared_ptr<const PartitionResult>& result()
      const noexcept {
    return result_;
  }
  /// True when the answer came from the memo cache or an in-flight batch.
  [[nodiscard]] bool served_from_cache() const noexcept {
    return from_cache_;
  }
  /// Submit-to-completion latency of the last run (milliseconds).  For a
  /// hit answered inside submit() this is the lookup itself.
  [[nodiscard]] double latency_ms() const noexcept {
    return latency_ns_ / 1e6;
  }
  /// Failure detail for kError.
  [[nodiscard]] const std::string& error_message() const noexcept {
    return error_;
  }
  /// The canonical key the request was served under (valid after submit).
  [[nodiscard]] const core::PartitionCacheKey& key() const noexcept {
    return key_;
  }

 private:
  friend class PartitionService;
  using Clock = std::chrono::steady_clock;

  core::PartitionCacheKey key_;
  Clock::time_point enqueue_{};
  Clock::time_point deadline_{};
  bool has_deadline_ = false;
  PartitionRequest* batch_next_ = nullptr;  ///< intrusive coalescing link
  std::shared_ptr<const PartitionResult> result_;
  std::string error_;
  double latency_ns_ = 0.0;
  bool from_cache_ = false;
  std::atomic<std::uint8_t> state_{
      static_cast<std::uint8_t>(ServiceStatus::kPending)};
};

/// Construction-time knobs.
struct ServiceConfig {
  /// Worker threads (0 = hardware_concurrency, min 1).
  std::int32_t workers = 0;
  /// Bounded request-queue capacity; misses beyond it are rejected with a
  /// typed error (admission control), never queued unboundedly.  Hits and
  /// same-key followers take no slot.
  std::int32_t queue_capacity = 1024;
  /// Memoization cache on/off and entry bound.  At capacity, a new entry
  /// evicts a cold one by second-chance (clock): a hit sets the entry's
  /// referenced bit, the sweep hand clears bits until it finds an
  /// unreferenced victim (counted as cache_evictions).  Eviction is safe
  /// for byte-identity because every compute of a key is canonical -- a
  /// re-miss after eviction returns the same bytes the evicted entry held.
  bool cache_enabled = true;
  std::size_t cache_capacity = 1 << 16;
  /// Latency-reservoir window (most recent samples contributing to
  /// percentiles).
  std::size_t latency_window = 1 << 14;
  /// PartitionerConfig::threads for par:* families served by this service.
  std::int32_t partitioner_threads = 1;
};

/// Counter/percentile snapshot (see snapshot()).  Latency quantiles are in
/// milliseconds over the retained window; partitions_per_sec counts kOk
/// completions against the stats epoch.
struct ServiceStats {
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  std::int64_t served_ok = 0;
  std::int64_t cache_hits = 0;        ///< answered from the memo table
  std::int64_t cache_misses = 0;      ///< computed (batch leaders)
  std::int64_t coalesced = 0;         ///< attached to an in-flight batch
  std::int64_t bypassed = 0;          ///< bypass_cache computes
  std::int64_t rejected = 0;          ///< admission-control rejections
  std::int64_t cancelled = 0;
  std::int64_t shutdown_drained = 0;
  std::int64_t errors = 0;
  std::int64_t cache_entries = 0;
  std::int64_t cache_evictions = 0;  ///< second-chance victims replaced
  std::int64_t alloc_count = 0;  ///< worker-side allocations (probe-linked)
  std::int64_t alloc_bytes = 0;
  std::int64_t latency_samples = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double elapsed_seconds = 0.0;
  double partitions_per_sec = 0.0;
  std::int32_t workers = 0;
};

/// The resident serving process.  Thread-safe: any number of caller
/// threads may submit concurrently; `workers` service threads drain the
/// queue.  Lifetime: stop() (or the destructor) drains queued requests
/// with kShutdown and joins the workers; long-lived embedders should stop
/// the service before tearing down process-wide state it serves from (the
/// registry, shared par:* pools -- see runtime::shutdown_shared_pools()).
class PartitionService {
 public:
  explicit PartitionService(ServiceConfig config = {});
  ~PartitionService();

  PartitionService(const PartitionService&) = delete;
  PartitionService& operator=(const PartitionService&) = delete;

  /// Submits `req`.  A cache hit is answered on the calling thread, so
  /// true may mean the request is already final (kOk); a same-key request
  /// joins the batch computing it; only a true miss takes a queue slot.
  /// Hits and joins therefore bypass admission control.  Returns false --
  /// with req.status() kRejected or kShutdown already final -- when the
  /// queue is full for a miss or the service is stopped; true means the
  /// caller must req.wait() before reusing or destroying the block.
  /// Throws std::invalid_argument for malformed specs (unknown-size algo
  /// name, n < 1, empty alpha band) before the request is queued.
  [[nodiscard]] bool try_submit(PartitionRequest& req) LBB_EXCLUDES(mu_);

  /// Like try_submit, but refusal throws AdmissionError (typed, carries
  /// the status).
  void submit(PartitionRequest& req) LBB_EXCLUDES(mu_);

  /// Synchronous convenience: submit + wait; throws AdmissionError on
  /// refusal and std::runtime_error on kError/kCancelled/kShutdown.
  [[nodiscard]] std::shared_ptr<const PartitionResult> call(
      const RequestSpec& spec) LBB_EXCLUDES(mu_);

  /// Drains the queue (kShutdown), joins the workers.  Idempotent; called
  /// by the destructor.  In-flight batches complete normally first.
  void stop() LBB_EXCLUDES(mu_);

  [[nodiscard]] std::int32_t workers() const noexcept {
    return static_cast<std::int32_t>(workers_.size());
  }

  /// Point-in-time counters and latency percentiles.
  [[nodiscard]] ServiceStats snapshot() const LBB_EXCLUDES(mu_);

  /// Emits the snapshot as "service.*" named counters (p50/p95/p99,
  /// partitions_per_sec, hit/miss/coalesced/rejected counts, ...) -- the
  /// same MetricsSink channel the sim layer reports through, which is how
  /// the numbers reach the serve_load perf JSON.
  void report(core::MetricsSink& sink) const LBB_EXCLUDES(mu_);

  /// Zeroes counters and the latency window and restarts the stats epoch.
  /// The memo cache is retained -- this is how serve_load separates warm
  /// steady-state measurement from warm-up.
  void reset_stats() LBB_EXCLUDES(mu_);

 private:
  using Clock = std::chrono::steady_clock;

  /// An in-flight compute: one leader request plus every same-key request
  /// that arrived while it ran.  Lives on the computing worker's stack;
  /// reachable from other threads only through inflight_ (under mu_).
  struct Batch {
    core::PartitionCacheKey key;
    PartitionRequest* head = nullptr;
  };

  struct WorkerState {
    core::TrialWorkspace<problems::SyntheticProblem> ws;
    std::thread thread;
  };

  /// Identity of a cached Partitioner instance (creation knobs only;
  /// n and the problem spec are per-request).
  struct PartitionerId {
    std::string algo;
    std::uint32_t alpha_q;
    std::uint32_t beta_q;
    friend bool operator<(const PartitionerId& a,
                          const PartitionerId& b) noexcept {
      if (int c = a.algo.compare(b.algo); c != 0) return c < 0;
      if (a.alpha_q != b.alpha_q) return a.alpha_q < b.alpha_q;
      return a.beta_q < b.beta_q;
    }
  };

  /// How a completion was produced, for the hit/miss/coalesced counters.
  enum class Outcome : std::uint8_t { kHit, kMiss, kCoalesced, kBypass,
                                      kNone };

  void worker_loop(WorkerState& self);
  void handle(WorkerState& self, PartitionRequest* req);
  void dispatch(WorkerState& self, PartitionRequest* req);
  /// The one cache lookup, called by try_submit and by dispatch: kHit sets
  /// `hit` (and the entry's referenced bit), kCoalesced has linked `req`
  /// into the running same-key batch, kMiss means neither.
  [[nodiscard]] Outcome lookup_locked(
      PartitionRequest& req, std::shared_ptr<const PartitionResult>& hit)
      LBB_REQUIRES(mu_);
  /// Computes `batch.key` for `root` and completes every request in the
  /// batch.  A shared batch is registered in inflight_ by the caller.
  void compute_batch(WorkerState& self, PartitionRequest* root,
                     Batch& batch);
  [[nodiscard]] static bool expired(const PartitionRequest& req,
                                    Clock::time_point now) noexcept;
  [[nodiscard]] std::shared_ptr<const PartitionResult> compute(
      WorkerState& self, const core::PartitionCacheKey& key);
  [[nodiscard]] const core::Partitioner& partitioner_for(
      const core::PartitionCacheKey& key) LBB_EXCLUDES(part_mu_);
  void complete(PartitionRequest* req, ServiceStatus status,
                std::shared_ptr<const PartitionResult> result,
                Outcome outcome) LBB_EXCLUDES(mu_);
  [[nodiscard]] PartitionRequest* pop_locked() LBB_REQUIRES(mu_);

  ServiceConfig config_;

  mutable core::Mutex mu_;
  std::condition_variable queue_cv_;  ///< paired with mu_
  std::vector<PartitionRequest*> ring_ LBB_GUARDED_BY(mu_);  ///< fixed cap
  std::size_t queue_head_ LBB_GUARDED_BY(mu_) = 0;
  std::size_t queue_size_ LBB_GUARDED_BY(mu_) = 0;
  bool stop_ LBB_GUARDED_BY(mu_) = false;

  /// A memoized answer plus its position in the clock ring (so a hit can
  /// set the referenced bit without a second lookup).
  struct CacheEntry {
    std::shared_ptr<const PartitionResult> result;
    std::size_t slot = 0;
  };
  /// One clock-ring slot; the ring holds exactly the cached keys, in
  /// insertion order, and clock_hand_ sweeps it for second-chance victims.
  struct ClockSlot {
    core::PartitionCacheKey key;
    bool referenced = false;
  };

  std::unordered_map<core::PartitionCacheKey, CacheEntry,
                     core::PartitionCacheKeyHash>
      cache_ LBB_GUARDED_BY(mu_);
  std::vector<ClockSlot> clock_ LBB_GUARDED_BY(mu_);
  std::size_t clock_hand_ LBB_GUARDED_BY(mu_) = 0;
  std::vector<Batch*> inflight_ LBB_GUARDED_BY(mu_);  ///< <= workers deep

  // Counters (under mu_; complete() folds latency in the same critical
  // section so percentiles and counts never disagree).
  stats::PercentileReservoir latency_ LBB_GUARDED_BY(mu_);
  ServiceStats counters_ LBB_GUARDED_BY(mu_);
  Clock::time_point epoch_ LBB_GUARDED_BY(mu_);

  // Worker-side allocation attribution (atomic: measured outside mu_).
  std::atomic<std::int64_t> alloc_count_{0};
  std::atomic<std::int64_t> alloc_bytes_{0};

  core::Mutex part_mu_;
  std::map<PartitionerId, std::unique_ptr<core::Partitioner>> partitioners_
      LBB_GUARDED_BY(part_mu_);

  std::vector<std::unique_ptr<WorkerState>> workers_;
};

}  // namespace lbb::service
