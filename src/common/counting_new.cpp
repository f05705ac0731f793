// Counting global operator new/delete for binaries that check the
// zero-allocation hot path (PassStats::hot_path_allocs) or measure heap
// footprints: the gate benches bench_{hotpath,reuse,masked,service,scaleout}
// and the allocation-checking test suites. Every successful allocation bumps
// the thread-local event counter that the kernel passes snapshot around
// block bodies (common/alloc_counter.h). Each block also carries a size
// header, so the calling thread's net heap bytes are known too.
//
// CMake links this file as the OBJECT library speck_counting_new, never from
// a static archive, so the linker cannot leave it out; counting_new_live()
// checks at run time that it is the operator new in use.
#include <cstddef>
#include <cstdlib>
#include <new>

#include "common/alloc_counter.h"

namespace {

/// Bytes in front of each block: its size, keeping max_align_t alignment.
constexpr std::size_t kHeader = alignof(std::max_align_t);

/// Bytes allocated minus bytes freed on this thread, modulo 2^64.
constinit thread_local std::size_t thread_heap = 0;

}  // namespace

namespace speck::detail {

bool counting_new_live() {
  const std::size_t before = alloc_events_now();
  void* volatile probe = ::operator new(1);
  ::operator delete(probe);
  return alloc_events_now() != before;
}

std::size_t thread_heap_bytes() { return thread_heap; }

}  // namespace speck::detail

void* operator new(std::size_t size) {
  void* raw = std::malloc(size + kHeader);
  if (raw == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(raw) = size;
  thread_heap += size;
  ++speck::detail::thread_alloc_events;
  return static_cast<char*>(raw) + kHeader;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  void* raw = static_cast<char*>(p) - kHeader;
  thread_heap -= *static_cast<std::size_t*>(raw);
  std::free(raw);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
