#include "runtime/work_stealing.hpp"

#include <cassert>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "stats/alloc_stats.hpp"
#include "stats/rng.hpp"

namespace lbb::runtime {

namespace {

/// Worker record of the current thread (nullptr on non-pool threads).
/// One slot per thread suffices: a thread belongs to at most one pool.
thread_local WorkStealingPool::Worker* tls_worker = nullptr;

/// Small xorshift for victim selection; determinism is NOT required here
/// (steal order never affects output), only decorrelation between workers.
std::uint64_t next_rng(std::uint64_t& state) noexcept {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

}  // namespace

// ---------------------------------------------------------------------------
// WsDeque

WsDeque::WsDeque(std::size_t capacity_pow2)
    : capacity_(capacity_pow2),
      mask_(capacity_pow2 - 1),
      buffer_(new std::atomic<TaskSlot*>[capacity_pow2]) {
  assert(capacity_pow2 != 0 && (capacity_pow2 & mask_) == 0 &&
         "capacity must be a power of two");
  for (std::size_t i = 0; i < capacity_; ++i) {
    buffer_[i].store(nullptr, std::memory_order_relaxed);
  }
}

bool WsDeque::push(TaskSlot* slot) noexcept {
  const std::int64_t b = bottom_.load();
  const std::int64_t t = top_.load();
  if (b - t >= static_cast<std::int64_t>(capacity_)) return false;
  // The capacity check above is what makes a successful thief CAS safe:
  // an index can only be overwritten once top has advanced past its old
  // occupant, so any thief still holding the old value fails its CAS.
  buffer_[static_cast<std::size_t>(b) & mask_].store(slot);
  bottom_.store(b + 1);
  return true;
}

TaskSlot* WsDeque::pop() noexcept {
  const std::int64_t b = bottom_.load() - 1;
  bottom_.store(b);
  const std::int64_t t = top_.load();
  if (t > b) {  // empty: undo the reservation
    bottom_.store(b + 1);
    return nullptr;
  }
  TaskSlot* slot = buffer_[static_cast<std::size_t>(b) & mask_].load();
  if (t == b) {
    // Last element: race thieves for it through top.
    std::int64_t expected = t;
    if (!top_.compare_exchange_strong(expected, t + 1)) slot = nullptr;
    bottom_.store(b + 1);
  }
  return slot;
}

TaskSlot* WsDeque::steal() noexcept {
  std::int64_t t = top_.load();
  const std::int64_t b = bottom_.load();
  if (t >= b) return nullptr;
  TaskSlot* slot = buffer_[static_cast<std::size_t>(t) & mask_].load();
  if (!top_.compare_exchange_strong(t, t + 1)) return nullptr;  // lost race
  return slot;
}

// ---------------------------------------------------------------------------
// ParJobBase

void ParJobBase::record_error(std::exception_ptr err) noexcept {
  {
    core::MutexLock lock(mu_);
    if (!error_) error_ = std::move(err);
  }
  failed.store(true, std::memory_order_release);
}

void ParJobBase::complete_one() noexcept {
  if (pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    if (pool != nullptr) {
      pool->live_jobs_.fetch_sub(1, std::memory_order_relaxed);
    }
    // Notify under the mutex: the waiting caller owns this block and may
    // destroy it the moment wait() returns, which cannot happen before we
    // release mu_.
    core::MutexLock lock(mu_);
    done_ = true;
    cv_.notify_all();
  }
}

void ParJobBase::wait() {
  core::CvLock lock(mu_);
  lock.wait(cv_, [this]() LBB_REQUIRES(mu_) { return done_; });
}

std::exception_ptr ParJobBase::take_error() noexcept {
  core::MutexLock lock(mu_);
  return std::exchange(error_, nullptr);
}

// ---------------------------------------------------------------------------
// WorkStealingPool

WorkStealingPool::WorkStealingPool(unsigned threads) : threads_(threads) {
  if (threads == 0) {
    throw std::invalid_argument("WorkStealingPool: need at least one thread");
  }
  inject_q_.reserve(16);
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    auto w = std::make_unique<Worker>();
    w->pool = this;
    w->id = static_cast<std::int32_t>(i);
    w->slab.reset(new TaskSlot[kSlotsPerWorker]);
    for (std::size_t s = 0; s < kSlotsPerWorker; ++s) {
      TaskSlot& slot = w->slab[s];
      slot.owner = w->id;
      slot.next = w->free_head;
      w->free_head = &slot;
    }
    w->rng = lbb::stats::mix64(0x57ea1u, i + 1);
    workers_.push_back(std::move(w));
  }
  // Threads start only after every worker record exists (steal sweeps walk
  // the whole vector).
  for (auto& w : workers_) {
    Worker* raw = w.get();
    raw->thread = std::thread([this, raw] { worker_loop(*raw); });
  }
}

WorkStealingPool::~WorkStealingPool() {
  assert(live_jobs_.load() == 0 && "destroying a pool with live jobs");
  stop_.store(true);
  epoch_.fetch_add(1);
  {
    core::MutexLock lock(park_mu_);
  }
  park_cv_.notify_all();
  for (auto& w : workers_) w->thread.join();
}

void WorkStealingPool::inject(TaskSlot* root, ParJobBase* job) {
  job->pool = this;
  live_jobs_.fetch_add(1, std::memory_order_relaxed);
  {
    core::MutexLock lock(inject_mu_);
    inject_q_.push_back(root);
    inject_count_.fetch_add(1);
  }
  notify_work();
}

WorkStealingPool::Worker* WorkStealingPool::current_worker() noexcept {
  Worker* w = tls_worker;
  return (w != nullptr && w->pool == this) ? w : nullptr;
}

TaskSlot* WorkStealingPool::acquire_slot(Worker& worker) noexcept {
  if (worker.free_head == nullptr) {
    // Splice slots other workers returned.  Single consumer (the owner),
    // so a plain exchange detaches the whole stack with no ABA concern.
    worker.free_head = worker.reclaim_head.exchange(
        nullptr, std::memory_order_acquire);
  }
  TaskSlot* slot = worker.free_head;
  if (slot != nullptr) worker.free_head = slot->next;
  return slot;
}

void WorkStealingPool::release_slot(TaskSlot* slot) noexcept {
  if (slot->owner == TaskSlot::kCallerOwned) return;
  Worker& owner = *workers_[static_cast<std::size_t>(slot->owner)];
  if (tls_worker == &owner) {
    slot->next = owner.free_head;
    owner.free_head = slot;
    return;
  }
  TaskSlot* head = owner.reclaim_head.load(std::memory_order_relaxed);
  do {
    slot->next = head;
  } while (!owner.reclaim_head.compare_exchange_weak(
      head, slot, std::memory_order_release, std::memory_order_relaxed));
}

bool WorkStealingPool::push_local(Worker& worker, TaskSlot* slot) noexcept {
  if (!worker.deque.push(slot)) return false;
  notify_work();
  return true;
}

void WorkStealingPool::notify_work() noexcept {
  epoch_.fetch_add(1);  // seq_cst: pairs with the parked registration
  if (parked_.load() > 0) {
    {
      core::MutexLock lock(park_mu_);
    }
    park_cv_.notify_all();
  }
}

TaskSlot* WorkStealingPool::try_inject() noexcept {
  if (inject_count_.load(std::memory_order_acquire) == 0) return nullptr;
  core::MutexLock lock(inject_mu_);
  if (inject_head_ == inject_q_.size()) return nullptr;
  TaskSlot* slot = inject_q_[inject_head_++];
  inject_count_.fetch_sub(1);
  if (inject_head_ == inject_q_.size()) {
    inject_q_.clear();  // capacity retained; no steady-state allocation
    inject_head_ = 0;
  }
  return slot;
}

TaskSlot* WorkStealingPool::try_steal(Worker& self, bool& stolen) noexcept {
  const std::size_t count = workers_.size();
  const std::size_t start =
      static_cast<std::size_t>(next_rng(self.rng)) % count;
  for (std::size_t i = 0; i < count; ++i) {
    Worker& victim = *workers_[(start + i) % count];
    if (&victim == &self) continue;
    if (TaskSlot* slot = victim.deque.steal()) {
      stolen = true;
      return slot;
    }
  }
  return nullptr;
}

TaskSlot* WorkStealingPool::find_task(Worker& self, bool& stolen) noexcept {
  stolen = false;
  if (TaskSlot* slot = self.deque.pop()) return slot;
  if (TaskSlot* slot = try_inject()) return slot;
  return try_steal(self, stolen);
}

void WorkStealingPool::execute(TaskSlot* slot, bool stolen) noexcept {
  // The trampoline releases the slot before running the task, so read the
  // header first.
  ParJobBase* job = slot->job;
  if (stolen) job->steals.fetch_add(1, std::memory_order_relaxed);
  // Allocation counters are per-thread (stats/alloc_stats.hpp), so the
  // delta around the execution attributes worker-side allocations to the
  // job -- the caller cannot observe them from its own thread.  The run
  // time is summed into the job too; the caller derives its own idle time
  // from it (ParStats::idle_ns).
  const auto allocs_before = lbb::stats::alloc_stats();
  const auto start = std::chrono::steady_clock::now();
  try {
    slot->run(slot);
  } catch (...) {
    job->record_error(std::current_exception());
  }
  job->busy_ns.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count(),
                         std::memory_order_relaxed);
  const auto allocs = lbb::stats::alloc_stats() - allocs_before;
  if (allocs.count != 0) {
    job->alloc_count.fetch_add(allocs.count, std::memory_order_relaxed);
    job->alloc_bytes.fetch_add(allocs.bytes, std::memory_order_relaxed);
  }
  job->complete_one();  // must be last: the caller may now free the job
}

void WorkStealingPool::worker_loop(Worker& self) {
  tls_worker = &self;
  for (;;) {
    bool stolen = false;
    if (TaskSlot* slot = find_task(self, stolen)) {
      execute(slot, stolen);
      continue;
    }
    // Nothing found: snapshot the epoch, re-sweep once (a producer may
    // have published between the sweep and the snapshot), then park.
    const std::uint64_t epoch = epoch_.load();
    if (TaskSlot* slot = find_task(self, stolen)) {
      execute(slot, stolen);
      continue;
    }
    if (stop_.load()) return;  // queues drained and shutting down
    {
      core::CvLock lock(park_mu_);
      parked_.fetch_add(1);
      // Registered as parked BEFORE re-checking the epoch: a producer that
      // bumps the epoch after our check must then observe parked_ > 0 and
      // take the mutex to notify (Dekker-style; both orders are seq_cst).
      lock.wait(park_cv_, [&] {
        return stop_.load() || epoch_.load() != epoch;
      });
      parked_.fetch_sub(1);
    }
  }
}

}  // namespace lbb::runtime
