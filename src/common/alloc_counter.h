// Thread-local heap-allocation event counter — the hook behind the
// zero-allocation hot-path guarantee.
//
// The library itself never counts anything: `thread_alloc_events` only moves
// when a binary (bench_hotpath, test_workspace) links the counting operator
// new/delete of common/counting_new.cpp. The symbolic/numeric passes
// snapshot the counter around every block body and accumulate the delta into
// `PassStats::hot_path_allocs`, so "allocations per block" is measured over
// exactly the per-block hot path — not over per-multiply setup such as
// output buffers or launch bookkeeping. In binaries without the override the
// counter stays 0 and the accounting is free apart from two thread-local
// reads per block.
#pragma once

#include <cstddef>

namespace speck::detail {

/// Heap allocations observed on the current thread. Incremented by binaries
/// that install a counting operator new; read by the kernel passes.
/// `constinit` tells every translation unit that the variable needs no
/// dynamic initialization, so accesses read the thread's slot directly
/// instead of going through a TLS init wrapper — the wrapper is what an
/// optimized UBSan build reported as a null load.
extern thread_local constinit std::size_t thread_alloc_events;

inline std::size_t alloc_events_now() { return thread_alloc_events; }

// Defined only by the counting allocator (common/counting_new.cpp, the CMake
// object library speck_counting_new): a binary that calls them does not
// link without it.

/// True when a probe allocation moves this thread's event counter, i.e. the
/// counting operator new is the one in use, so a 0 from the kernel passes'
/// hot_path_allocs was measured rather than never counted.
bool counting_new_live();

/// Bytes this thread allocated through global operator new minus the bytes
/// it freed, modulo 2^64: only differences between two readings mean
/// anything.
std::size_t thread_heap_bytes();

}  // namespace speck::detail
