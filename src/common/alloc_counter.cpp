#include "common/alloc_counter.h"

namespace speck::detail {

constinit thread_local std::size_t thread_alloc_events = 0;

}  // namespace speck::detail
