#pragma once
// AllocProbe: a per-thread heap-allocation counter that
// src/util/counting_new.cpp feeds.
//
// The library never counts allocations itself — it only reads the counter.
// A binary that wants real numbers compiles counting_new.cpp in, whose
// global operator new calls alloc_probe_bump() (bench_fcm_arbitrate and
// dmps_alloc_tests do, outside sanitizer builds, where replacing operator
// new would fight the sanitizer's own interceptors); everywhere else the
// counter just stays at zero. This lets the million-station sweep
// and the DaemonAllocations tests assert "zero steady-state allocations"
// with an actual counter instead of a code-review promise, while costing
// production consumers nothing.

#include <cstdint>

namespace dmps::util {

/// Heap allocations observed on the calling thread (0 unless the binary
/// installed a counting operator new).
std::uint64_t alloc_probe_count();

/// Called by counting_new.cpp's operator new. Never called by the library.
void alloc_probe_bump();

}  // namespace dmps::util
