#pragma once
// Annotated synchronization primitives (DESIGN.md §10).
//
// Thin wrappers over the std primitives that carry the capability
// attributes from util/thread_annotations.hpp. Code that wants its
// locking discipline checked by clang's -Wthread-safety holds these
// instead of raw std::mutex; the wrappers add no state and no behavior.

#include <mutex>

#include "util/thread_annotations.hpp"

namespace dmps::util {

// A std::mutex the analysis knows about.
class DMPS_CAPABILITY("mutex") Mutex {
 public:
  void lock() DMPS_ACQUIRE() { mu_.lock(); }
  void unlock() DMPS_RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

// std::lock_guard replacement for Mutex. Always owns the lock for its
// full scope (no deferred/adopted modes — nothing in the codebase needs
// them, and fewer modes means the analysis models it exactly).
class DMPS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) DMPS_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() DMPS_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// A data-less capability naming a thread-affinity contract ("the loop
// thread", "this tracer's writer"). Fields declared
// DMPS_GUARDED_BY(role_) can only be reached through functions that
// assert_held() the role — so a foreign thread calling into, say,
// UdpLoop's internals is a -Wthread-safety build break. The check is
// static only: assert_held() is empty and costs nothing at run time.
class DMPS_CAPABILITY("role") ThreadRole {
 public:
  // Entry points of the owning thread call this; past it, the analysis
  // treats the role as held.
  void assert_held() const DMPS_ASSERT_CAPABILITY(this) {}
};

}  // namespace dmps::util
