// Annotated synchronization primitives for the thread-safety analysis.
//
// libstdc++'s std::mutex and lock guards carry no capability attributes,
// so code locking them is invisible to clang's -Wthread-safety.  These
// wrappers add the attributes and nothing else: Mutex is exactly a
// std::mutex, MutexLock is exactly a std::scoped_lock over one mutex, and
// CvLock is exactly a std::unique_lock that condition variables can wait
// on.  Every annotated class in the library (WorkStealingPool and its
// ParJobBase, PartitionerRegistry, PartitionService, the AlphaDistribution
// intern pool, ...) states its lock discipline in terms of these types;
// see src/core/thread_annotations.hpp for the macro definitions and the
// `tidy` preset that enforces them.
#pragma once

#include <condition_variable>
#include <mutex>

#include "core/thread_annotations.hpp"

namespace lbb::core {

/// std::mutex with capability annotations.
class LBB_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() LBB_ACQUIRE() { mu_.lock(); }
  void unlock() LBB_RELEASE() { mu_.unlock(); }
  [[nodiscard]] bool try_lock() LBB_TRY_ACQUIRE(true) {
    return mu_.try_lock();
  }

  /// The wrapped mutex, for interop that the analysis cannot model
  /// (CvLock's std::unique_lock).  Callers must hold the capability.
  [[nodiscard]] std::mutex& native() LBB_REQUIRES(this) { return mu_; }

 private:
  friend class CvLock;
  std::mutex mu_;
};

/// Scoped lock (std::scoped_lock equivalent) holding one Mutex.
class LBB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) LBB_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() LBB_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Unique lock for condition-variable waits.  wait() releases and
/// reacquires the SAME capability internally, which is a net no-op from
/// the analysis' point of view, so the method itself needs no annotation
/// escape; the capability is simply held across the call.
class LBB_SCOPED_CAPABILITY CvLock {
 public:
  explicit CvLock(Mutex& mu) LBB_ACQUIRE(mu) : lock_(mu.mu_) {}
  ~CvLock() LBB_RELEASE() = default;

  CvLock(const CvLock&) = delete;
  CvLock& operator=(const CvLock&) = delete;

  /// Waits on `cv` until `pred` holds (std::condition_variable::wait).
  template <typename Pred>
  void wait(std::condition_variable& cv, Pred pred)
      LBB_NO_THREAD_SAFETY_ANALYSIS {
    cv.wait(lock_, std::move(pred));
  }

  /// Drops the lock early (std::unique_lock::unlock); the destructor then
  /// has nothing to release.
  void unlock() LBB_RELEASE() { lock_.unlock(); }

 private:
  std::unique_lock<std::mutex> lock_;
};

}  // namespace lbb::core
