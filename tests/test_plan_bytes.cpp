// Byte-accounting test for cached plans: SpeckPlan::byte_size() — the
// quantity the plan-cache budget charges — must match the real heap
// footprint of the plan, measured by a size-tracking global allocator.
// Guards against the undercount class of bug where the budget admits more
// plans than the configured bytes (the pre-sharding accounting missed the
// replay program, heap slack and every string).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "gen/generators.h"
#include "speck/plan.h"
#include "speck/speck.h"

namespace {

// Live heap bytes allocated through global new, tracked with a size header
// in front of each block so delete knows what it frees.
std::atomic<std::size_t> g_live_bytes{0};
constexpr std::size_t kHeader = alignof(std::max_align_t);

std::size_t live_bytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t size) {
  void* raw = std::malloc(size + kHeader);
  if (raw == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(raw) = size;
  g_live_bytes.fetch_add(size, std::memory_order_relaxed);
  return static_cast<char*>(raw) + kHeader;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  void* raw = static_cast<char*>(p) - kHeader;
  g_live_bytes.fetch_sub(*static_cast<std::size_t*>(raw),
                         std::memory_order_relaxed);
  std::free(raw);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace speck {
namespace {

/// Heap bytes released when a freshly built plan is destroyed — exactly the
/// bytes the plan pinned, independent of anything the pipeline retains.
std::size_t measured_plan_heap(Speck& sp, const Csr& a, const Csr& b,
                               std::size_t* reported) {
  auto plan = std::make_unique<SpeckPlan>(sp.plan(a, b));
  EXPECT_TRUE(plan->complete) << plan->incomplete_reason;
  *reported = plan->byte_size();
  const std::size_t before = live_bytes();
  plan.reset();
  return before - live_bytes();
}

TEST(PlanBytes, ByteSizeMatchesMeasuredHeapFootprint) {
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const Csr banded = gen::banded(256, 12, 9, 5);
  const Csr scale_free = gen::power_law(200, 200, 7, 2.1, 50, 9);
  (void)sp.plan(banded, banded);  // warm pools outside the measured window

  for (const Csr* m : {&banded, &scale_free}) {
    std::size_t reported = 0;
    // measured counts the heap blocks only; byte_size additionally counts
    // the SpeckPlan object itself (here on the heap via unique_ptr, so the
    // header block shows up in measured too — both sides include it).
    const std::size_t measured = measured_plan_heap(sp, *m, *m, &reported);
    ASSERT_GT(measured, 10u * 1024u) << "plan suspiciously small";
    // Capacity-based accounting: every vector charges capacity * element
    // size and every spilled string capacity + 1, which is exactly what the
    // tracking allocator saw. Allow 5% + a constant for allocator-internal
    // noise (node containers, unmeasured sub-objects).
    const std::size_t slack = measured / 20 + 512;
    EXPECT_LE(reported, measured + slack)
        << "byte_size overcounts: reported " << reported << " vs measured "
        << measured;
    EXPECT_GE(reported + slack, measured)
        << "byte_size undercounts (cache budget would over-admit): reported "
        << reported << " vs measured " << measured;
  }
}

TEST(PlanBytes, EstimateIsAnAdmissionSafeUpperBoundOnTheProgram) {
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const Csr a = gen::banded(192, 10, 8, 21);
  SpeckPlan plan = sp.plan(a, a);
  ASSERT_TRUE(plan.complete) << plan.incomplete_reason;

  const std::size_t estimate = estimate_plan_bytes(a, a);
  // The estimate is what admission control charges before planning; it must
  // dominate the replay program + C pattern it predicts.
  const std::size_t pattern_bytes =
      plan.c_row_offsets.capacity() * sizeof(offset_t) +
      plan.c_col_indices.capacity() * sizeof(index_t);
  EXPECT_GE(estimate, plan.program.byte_size() + pattern_bytes);
  // ...and stay within an order of magnitude of the true footprint so the
  // budget is useful, not just safe.
  EXPECT_LT(estimate, 10u * plan.byte_size());
}

TEST(PlanBytes, ReplayIndicesFitBelowTwoToThe31) {
  // Each nnz is checked on its own: 2^31 - 1 is the last that fits the
  // 31-bit value slot, 2^31 collides with the kAssignFirst flag.
  constexpr std::uint64_t kLast = (1ULL << 31) - 1;
  constexpr std::uint64_t kFirstTooBig = 1ULL << 31;
  EXPECT_TRUE(replay_indices_fit(kLast, kLast, kLast));
  EXPECT_FALSE(replay_indices_fit(kFirstTooBig, 0, 0));
  EXPECT_FALSE(replay_indices_fit(0, kFirstTooBig, 0));
  EXPECT_FALSE(replay_indices_fit(0, 0, kFirstTooBig));
  EXPECT_TRUE(replay_indices_fit(kLast, 0, 0));
  EXPECT_TRUE(replay_indices_fit(0, kLast, 0));
  EXPECT_TRUE(replay_indices_fit(0, 0, kLast));
}

}  // namespace
}  // namespace speck
