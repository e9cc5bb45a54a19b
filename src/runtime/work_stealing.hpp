// Work-stealing runtime for the parallel partitioners (ISSUE 6 tentpole).
//
// The BA family is "inherently parallel": after each bisection the two
// recursive calls are independent (Figure 3 of the paper), so the
// recursion's natural processor-range splits ARE the task decomposition.
// This header provides the generic substrate those algorithms run on:
//
//   * TaskSlot      -- a fixed-capacity task frame.  No std::function, no
//                      per-spawn heap allocation: slots live in per-worker
//                      slabs carved out at pool construction, and a task's
//                      state is placement-constructed into the slot's
//                      payload bytes (runtime/par_partition.hpp does the
//                      typed part).
//   * WsDeque       -- a Chase-Lev-style per-worker deque of TaskSlot
//                      pointers.  The owner pushes and pops at the bottom
//                      (LIFO, depth-first -- the hot child stays local);
//                      idle workers steal from the top (FIFO -- thieves
//                      take the shallowest, i.e. largest, subproblems).
//                      All index and buffer accesses are seq_cst atomics:
//                      the classic fence-based formulation (Le et al.,
//                      PPoPP'13) is not modeled by ThreadSanitizer and
//                      would report false positives; strengthening every
//                      access to seq_cst is correct (it only adds ordering)
//                      and keeps the tsan preset clean.  A stale value read
//                      by a thief is discarded when its top CAS fails, so
//                      no torn or reused frame is ever executed.
//   * ParJobBase    -- the per-call join/error/metrics block.  A partition
//                      call is one job: `pending` counts outstanding
//                      tasks, the caller blocks on a condition variable
//                      until the last task completes, and the first task
//                      exception is captured and rethrown at the caller
//                      (remaining tasks bail out early via `failed`).
//   * WorkStealingPool -- the fixed set of worker threads.  Workers run
//                      local-pop -> injection-queue -> steal-sweep, and
//                      park on a Dekker-style epoch protocol when the
//                      whole system is empty (producers bump `epoch_`
//                      seq_cst and then check the parked count; workers
//                      register as parked BEFORE re-checking the epoch, so
//                      a wakeup can never be lost between a failed sweep
//                      and the cv wait).
//
// Determinism contract: the pool makes NO ordering promises -- steal order
// is racy by design.  Deterministic output is the job of the layer above
// (par_partition.hpp), which writes results into pre-sized slots indexed
// by processor range so the partition is byte-identical to the sequential
// algorithms regardless of thread count or steal order.
//
// This is the library's only thread pool.  It serves one shape of work --
// fork-join jobs with a per-call join: the recursive partition jobs of
// par_partition.hpp and the chunked loops of parallel_for.hpp (trial
// chunks, partition execution) -- and multiple jobs from distinct caller
// threads may run concurrently (per-job join state; no pool-wide idle
// wait).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "core/sync.hpp"

namespace lbb::runtime {

class WorkStealingPool;
class ParJobBase;

/// Fixed-capacity task frame.  The header is interpreted by the pool; the
/// payload bytes are interpreted only by `run` (a monomorphized trampoline
/// that moves the typed frame out, destroys it in place, releases the slot
/// back to its owner, and executes the task -- see par_partition.hpp).
struct alignas(64) TaskSlot {
  /// Payload capacity.  Large enough for a ParFrame over any problem type
  /// this library ships (AnyProblem's 48-byte inline buffer plus the range
  /// bookkeeping); par_partition.hpp falls back to the sequential kernel
  /// at compile time for frame types that do not fit.
  static constexpr std::size_t kPayloadBytes = 192;
  /// `owner` value for slots not owned by any worker (the caller's root
  /// slot); releasing such a slot is a no-op.
  static constexpr std::int32_t kCallerOwned = -1;

  void (*run)(TaskSlot*) = nullptr;  ///< may throw; pool catches per task
  ParJobBase* job = nullptr;         ///< join/metrics block of the call
  TaskSlot* next = nullptr;          ///< freelist / reclaim-stack link
  std::int32_t owner = kCallerOwned; ///< worker id of the owning slab
  alignas(alignof(std::max_align_t)) std::byte payload[kPayloadBytes];
};

/// Chase-Lev-style deque of TaskSlot pointers with a fixed power-of-two
/// capacity.  Single owner (push/pop at the bottom), many thieves (steal
/// at the top).  See the header comment for the seq_cst rationale.
class WsDeque {
 public:
  explicit WsDeque(std::size_t capacity_pow2);

  WsDeque(const WsDeque&) = delete;
  WsDeque& operator=(const WsDeque&) = delete;

  /// Owner only.  False when full (cannot happen while the deque's
  /// capacity matches the owner's slot-slab size, since every queued task
  /// occupies one distinct owned slot; callers inline-execute on false as
  /// belt-and-braces).
  [[nodiscard]] bool push(TaskSlot* slot) noexcept;

  /// Owner only: most recently pushed task, or nullptr when empty.
  [[nodiscard]] TaskSlot* pop() noexcept;

  /// Any thread: oldest task, or nullptr when empty or the race was lost.
  [[nodiscard]] TaskSlot* steal() noexcept;

 private:
  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::size_t capacity_;
  std::size_t mask_;
  std::unique_ptr<std::atomic<TaskSlot*>[]> buffer_;
};

/// Per-call join, error and metrics block.  Lives on the caller's stack
/// for the duration of one parallel partition call; tasks reach it through
/// TaskSlot::job.  The caller initializes `pending` to 1 (the root task)
/// before injecting; every spawn increments it before the push, and the
/// pool decrements it after each task's execution and accounting.
class ParJobBase {
 public:
  ParJobBase() = default;
  ParJobBase(const ParJobBase&) = delete;
  ParJobBase& operator=(const ParJobBase&) = delete;

  // -- task-side (workers) --

  /// Records the first task exception (later ones are dropped) and flips
  /// `failed` so in-flight tasks bail out early.
  void record_error(std::exception_ptr err) noexcept LBB_EXCLUDES(mu_);

  /// Marks one task complete; the last completion wakes the caller.
  /// The notification happens under the join mutex so the caller cannot
  /// destroy this block between the flag flip and the notify.
  void complete_one() noexcept LBB_EXCLUDES(mu_);

  // -- caller-side --

  /// Blocks until every task of the job has completed.
  void wait() LBB_EXCLUDES(mu_);

  /// The captured exception, if any (call after wait()).
  [[nodiscard]] std::exception_ptr take_error() noexcept LBB_EXCLUDES(mu_);

  std::atomic<std::int64_t> pending{0};      ///< outstanding tasks
  std::atomic<std::int64_t> spawns{0};       ///< deque pushes (not inlines)
  std::atomic<std::int64_t> steals{0};       ///< tasks executed via steal
  std::atomic<std::int64_t> bisections{0};   ///< algorithm-level counter
  std::atomic<std::int64_t> alloc_count{0};  ///< worker-side allocations
  std::atomic<std::int64_t> alloc_bytes{0};  ///< attributed to this job
  std::atomic<std::int64_t> busy_ns{0};      ///< summed task run time
  std::atomic<bool> failed{false};           ///< a task threw; bail early
  WorkStealingPool* pool = nullptr;          ///< set by inject()

 private:
  core::Mutex mu_;
  std::condition_variable cv_;  ///< paired with mu_
  bool done_ LBB_GUARDED_BY(mu_) = false;
  std::exception_ptr error_ LBB_GUARDED_BY(mu_);
};

/// Fixed set of worker threads running work-stealing partition jobs.
///
/// Threading contract: inject() may be called from any non-worker thread;
/// multiple jobs from distinct caller threads run concurrently.  Do NOT
/// call a blocking parallel partition from a task running on this pool
/// (the join would consume a worker the job needs).  The destructor
/// requires that no job is live.
class WorkStealingPool {
 public:
  /// Number of task slots (and deque entries) per worker.  When a worker
  /// exhausts its slab, spawns degrade to inline execution -- output is
  /// unaffected (the decomposition is structure-determined), only overlap.
  static constexpr std::size_t kSlotsPerWorker = 1024;

  explicit WorkStealingPool(unsigned threads);
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  [[nodiscard]] unsigned size() const noexcept { return threads_; }

  /// Submits the root task of a job.  `job->pending` must already count it
  /// (callers set pending = 1 before injecting).  The caller joins with
  /// job->wait(), NOT with any pool-wide idle state.
  void inject(TaskSlot* root, ParJobBase* job) LBB_EXCLUDES(inject_mu_);

  // -- worker-side API, used by the typed layer (par_partition.hpp) --

  /// Worker record of the calling thread, or nullptr off-pool.
  struct Worker;
  [[nodiscard]] Worker* current_worker() noexcept;

  /// Takes a free slot from `worker`'s slab (splicing the cross-thread
  /// reclaim stack when the local list is empty); nullptr when exhausted.
  [[nodiscard]] TaskSlot* acquire_slot(Worker& worker) noexcept;

  /// Returns `slot` to its owning worker's freelist (local push when the
  /// caller is the owner, lock-free reclaim-stack push otherwise; no-op
  /// for caller-owned slots).
  void release_slot(TaskSlot* slot) noexcept;

  /// Publishes a task pushed to `worker`'s own deque and wakes a parked
  /// worker if any.  False when the deque was full (caller must revert
  /// its pending/spawn accounting and inline-execute).
  [[nodiscard]] bool push_local(Worker& worker, TaskSlot* slot) noexcept;

  struct Worker {
    WorkStealingPool* pool = nullptr;
    std::int32_t id = 0;
    WsDeque deque{kSlotsPerWorker};
    std::unique_ptr<TaskSlot[]> slab;
    TaskSlot* free_head = nullptr;                 ///< owner-local freelist
    std::atomic<TaskSlot*> reclaim_head{nullptr};  ///< MPSC return stack
    std::uint64_t rng = 0;                         ///< victim selection
    std::thread thread;
  };

 private:
  void worker_loop(Worker& self);
  void execute(TaskSlot* slot, bool stolen) noexcept;
  [[nodiscard]] TaskSlot* try_inject() noexcept LBB_EXCLUDES(inject_mu_);
  [[nodiscard]] TaskSlot* try_steal(Worker& self, bool& stolen) noexcept;
  [[nodiscard]] TaskSlot* find_task(Worker& self, bool& stolen) noexcept;
  void notify_work() noexcept LBB_EXCLUDES(park_mu_);

  friend class ParJobBase;  // live-job accounting from complete_one()

  unsigned threads_;
  std::vector<std::unique_ptr<Worker>> workers_;

  // Injection queue (root tasks from caller threads).  The atomic count
  // lets the worker fast path skip the mutex when the queue is empty.
  core::Mutex inject_mu_;
  std::vector<TaskSlot*> inject_q_ LBB_GUARDED_BY(inject_mu_);
  std::size_t inject_head_ LBB_GUARDED_BY(inject_mu_) = 0;
  std::atomic<std::int64_t> inject_count_{0};

  // Parking protocol (see the header comment).
  core::Mutex park_mu_;
  std::condition_variable park_cv_;  ///< paired with park_mu_
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::int32_t> parked_{0};  ///< modified under park_mu_
  std::atomic<bool> stop_{false};

  std::atomic<std::int64_t> live_jobs_{0};
};

}  // namespace lbb::runtime
