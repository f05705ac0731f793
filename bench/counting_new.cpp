// Counting global operator new for the gate benches that check
// PassStats::hot_path_allocs (bench_{hotpath,reuse,masked,service,scaleout}).
// Every successful allocation bumps the thread-local event counter that the
// kernel passes snapshot around block bodies (common/alloc_counter.h). Frees
// are not counted: the gate is about allocations, and in a steady state they
// pair up anyway. bench/CMakeLists.txt links this file as an object library,
// never from a static archive, so the linker cannot leave it out;
// zero_alloc_gate() checks at run time that it is live.
#include <cstdlib>
#include <new>

#include "common/alloc_counter.h"

void* operator new(std::size_t size) {
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  ++speck::detail::thread_alloc_events;
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
