// Chunked fork-join loops on a WorkStealingPool.
//
// parallel_for splits an index range into fixed-size chunks and runs them on
// the pool, blocking until all chunks finish.  The chunk boundaries depend
// only on (begin, end, chunk) -- NOT on the pool's thread count -- so callers
// that reduce per-chunk results in chunk order obtain results that are
// bit-identical for every thread count (the experiment engine relies on
// this; see src/experiments/trial_engine.hpp).
//
// Scheduling: one call is one pool job with exactly one injected root task
// (the pool counts one root per job in its live-job/idle accounting).  A
// task owns a range of chunk indices; while it holds more than one it
// spawns the upper half onto its worker's deque, where idle workers steal
// it, and keeps the lower half -- the same spawn path as the parallel
// partitioners (par_partition.hpp).
//
// Exception semantics: every chunk runs to completion or failure.  Each
// chunk catches its own exception into a chunk-indexed slot, so no task
// throws into the pool; after the join the exception of the LOWEST-indexed
// failing chunk is rethrown on the calling thread (deterministic choice,
// unlike first-to-fail timing races).
//
// Nesting: a call from a task running on the same pool would block a
// worker on a join that may need it, so it throws std::logic_error instead.
// Calls from a worker of a different pool are fine.
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <new>
#include <stdexcept>
#include <vector>

#include "runtime/work_stealing.hpp"

namespace lbb::runtime {

namespace detail {

/// Join block of one parallel_for_chunks call (lives on the caller's stack).
template <typename ChunkFn>
struct ForJob : ParJobBase {
  const ChunkFn* fn = nullptr;
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::int64_t chunk = 1;
  std::exception_ptr* errors = nullptr;  ///< one slot per chunk index
};

/// A task's share of the loop: chunk indices [lo, hi).  Trivially
/// copyable, so the trampoline needs no in-place destruction.
template <typename ChunkFn>
struct ForFrame {
  ForJob<ChunkFn>* job;
  std::int64_t lo;
  std::int64_t hi;
};

template <typename ChunkFn>
void run_chunk_range(ForJob<ChunkFn>& job, std::int64_t lo, std::int64_t hi);

template <typename ChunkFn>
void for_trampoline(TaskSlot* slot) {
  const ForFrame<ChunkFn> frame = *std::launder(
      reinterpret_cast<const ForFrame<ChunkFn>*>(slot->payload));
  frame.job->pool->release_slot(slot);
  run_chunk_range(*frame.job, frame.lo, frame.hi);
}

/// Splits off the upper half of [lo, hi) as a stealable task until one
/// chunk is left (or no slot is free), then runs the rest in order.  Runs
/// only as a task, i.e. on a worker of job.pool.
template <typename ChunkFn>
void run_chunk_range(ForJob<ChunkFn>& job, std::int64_t lo, std::int64_t hi) {
  WorkStealingPool& pool = *job.pool;
  WorkStealingPool::Worker& worker = *pool.current_worker();
  while (hi - lo > 1) {
    TaskSlot* slot = pool.acquire_slot(worker);
    if (slot == nullptr) break;
    const std::int64_t mid = lo + (hi - lo) / 2;
    ::new (static_cast<void*>(slot->payload))
        ForFrame<ChunkFn>{&job, mid, hi};
    slot->run = &for_trampoline<ChunkFn>;
    slot->job = &job;
    // Count the task before publishing it; its complete_one() balances it.
    job.pending.fetch_add(1);
    if (!pool.push_local(worker, slot)) {
      job.pending.fetch_sub(1);
      pool.release_slot(slot);
      break;
    }
    job.spawns.fetch_add(1);
    hi = mid;
  }
  for (std::int64_t index = lo; index < hi; ++index) {
    const std::int64_t first = job.begin + index * job.chunk;
    try {
      (*job.fn)(index, first, std::min(first + job.chunk, job.end));
    } catch (...) {
      job.errors[index] = std::current_exception();
    }
  }
}

}  // namespace detail

/// Calls fn(chunk_index, lo, hi) for every chunk [lo, hi) of the index
/// range [begin, end), chunked by `chunk`, concurrently on `pool`.
/// Blocks until all chunks are done.  `fn` is shared by all workers and
/// invoked through a const reference.
template <typename ChunkFn>
void parallel_for_chunks(WorkStealingPool& pool, std::int64_t begin,
                         std::int64_t end, std::int64_t chunk, ChunkFn fn) {
  if (chunk <= 0) {
    throw std::invalid_argument("parallel_for: chunk must be >= 1");
  }
  if (pool.current_worker() != nullptr) {
    throw std::logic_error(
        "parallel_for: blocking call from a worker of the same pool would "
        "deadlock the join");
  }
  if (begin >= end) return;
  const std::int64_t chunks = (end - begin + chunk - 1) / chunk;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(chunks));

  detail::ForJob<ChunkFn> job;
  job.fn = &fn;
  job.begin = begin;
  job.end = end;
  job.chunk = chunk;
  job.errors = errors.data();
  TaskSlot root;  // caller-owned: its release is a no-op
  ::new (static_cast<void*>(root.payload))
      detail::ForFrame<ChunkFn>{&job, 0, chunks};
  root.run = &detail::for_trampoline<ChunkFn>;
  root.job = &job;
  job.pending.store(1);
  pool.inject(&root, &job);
  job.wait();

  for (const std::exception_ptr& err : errors) {
    if (err) std::rethrow_exception(err);
  }
}

/// Calls fn(i) for every i in [begin, end), chunked by `chunk`, concurrently
/// on `pool`.  Blocks until done; see parallel_for_chunks for exception,
/// nesting and determinism guarantees.
template <typename Fn>
void parallel_for(WorkStealingPool& pool, std::int64_t begin,
                  std::int64_t end, std::int64_t chunk, Fn fn) {
  const Fn& body = fn;
  parallel_for_chunks(pool, begin, end, chunk,
                      [&body](std::int64_t /*chunk_index*/, std::int64_t lo,
                              std::int64_t hi) {
                        for (std::int64_t i = lo; i < hi; ++i) body(i);
                      });
}

}  // namespace lbb::runtime
