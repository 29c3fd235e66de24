// Allocation-counting replacements of the global operator new and delete.
//
// Every heap allocation in a binary built with this file bumps the calling
// thread's alloc probe (util/alloc_probe.hpp), which is how the
// million-member sweep in bench_fcm_arbitrate and the DaemonAllocations
// tests PROVE their zero-steady-state-allocation claims instead of
// asserting them in a comment. Frees are not counted (recycling buffers is
// the design).
//
// It is a source of exactly those two executables, never of the dmps
// library: a replacement operator new is program-wide, and one linked
// from a static library would be kept or skipped at the linker's whim.
// Disabled under sanitizers — their interposed allocators must keep full
// ownership of malloc.

#include <cstddef>
#include <cstdlib>
#include <new>

#include "util/alloc_probe.hpp"
#include "util/sanitizers.hpp"

#if !defined(DMPS_SANITIZED)
// The compiler cannot see that these replacements pair new->malloc with
// delete->free program-wide, so silence its default-new/free mismatch
// heuristic here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  dmps::util::alloc_probe_bump();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  dmps::util::alloc_probe_bump();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  dmps::util::alloc_probe_bump();
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  dmps::util::alloc_probe_bump();
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif  // !DMPS_SANITIZED
