// Byte-accounting test for cached plans: SpeckPlan::byte_size() — the
// quantity the plan-cache budget charges — must match the real heap
// footprint of the plan, measured by a size-tracking global allocator.
// Guards against the undercount class of bug where the budget admits more
// plans than the configured bytes (the pre-sharding accounting missed the
// replay program, heap slack and every string). The heap bytes come from
// the shared counting allocator (common/counting_new.cpp), which keeps each
// block's size in a header.
#include <gtest/gtest.h>

#include <memory>

#include "common/alloc_counter.h"
#include "gen/generators.h"
#include "speck/plan.h"
#include "speck/speck.h"

namespace speck {
namespace {

/// Heap bytes released when a freshly built plan is destroyed — exactly the
/// bytes the plan pinned, independent of anything the pipeline retains. The
/// plan is destroyed on this thread, so this thread's count sees every free.
std::size_t measured_plan_heap(Speck& sp, const Csr& a, const Csr& b,
                               std::size_t* reported) {
  auto plan = std::make_unique<SpeckPlan>(sp.plan(a, b));
  EXPECT_TRUE(plan->complete) << plan->incomplete_reason;
  *reported = plan->byte_size();
  const std::size_t before = detail::thread_heap_bytes();
  plan.reset();
  return before - detail::thread_heap_bytes();
}

TEST(PlanBytes, ByteSizeMatchesMeasuredHeapFootprint) {
  ASSERT_TRUE(detail::counting_new_live()) << "the counting operator new is not linked";
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

/// The admission estimate must dominate the C pattern + replay start bits it
/// predicts, and the whole plan, so a structure it admits can be retained.
void expect_estimate_bounds_plan(const SpeckPlan& plan, const Csr& a, const Csr& b,
                                 const char* what) {
  ASSERT_TRUE(plan.complete) << what << ": " << plan.incomplete_reason;
  const std::size_t estimate = estimate_plan_bytes(a, b);
  const std::size_t pattern_bytes =
      plan.c_row_offsets.capacity() * sizeof(offset_t) +
      plan.c_col_indices.capacity() * sizeof(index_t);
  EXPECT_GE(estimate, plan.program.byte_size() + pattern_bytes) << what;
  EXPECT_GE(estimate, plan.byte_size()) << what;
}

TEST(PlanBytes, EstimateIsAnAdmissionSafeUpperBoundOnTheProgram) {
  // Banded, one product per C entry (no slack in the pattern bound), and
  // rows too long to merge (one block per row).
  const Csr inputs[] = {gen::banded(192, 10, 8, 21),
                        gen::random_uniform(3000, 3000, 1, 23),
                        gen::random_uniform(500, 500, 64, 25)};
  for (const Csr& a : inputs) {
    Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
    const SpeckPlan plan = sp.plan(a, a);
    expect_estimate_bounds_plan(plan, a, a, "exact");
    // ...and stay within an order of magnitude of the true footprint so the
    // budget is useful, not just safe.
    EXPECT_LT(estimate_plan_bytes(a, a), 10u * plan.byte_size());
  }

  SpeckConfig exact;
  exact.planning = PlanningMode::kExact;
  SpeckConfig estimated;
  estimated.planning = PlanningMode::kEstimated;
  // Underflowed estimates add the exact-fallback launch to the replay trace.
  SpeckConfig underflow = estimated;
  underflow.faults.estimator_scale = 0.25;

  // A reduced copy of the fixed-pattern iteration set: stencils, banded and
  // power-law, plus an empty matrix and a 1-row product.
  const Csr shapes[] = {gen::stencil_2d(40, 40),
                        gen::stencil_3d(8),
                        gen::banded(1500, 50, 12, 31),
                        gen::banded(800, 100, 10, 33),
                        gen::power_law(1000, 1000, 6, 2.0, 100, 35),
                        Csr::zeros(64, 64)};
  for (const SpeckConfig* cfg : {&exact, &estimated, &underflow}) {
    SCOPED_TRACE(cfg == &exact ? "exact" : cfg == &estimated ? "estimated" : "underflow");
    for (const Csr& a : shapes) {
      Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{}, *cfg);
      expect_estimate_bounds_plan(sp.plan(a, a), a, a, "square");
      // Masked by the operand's own pattern.
      expect_estimate_bounds_plan(sp.plan_masked(a, a, a), a, a, "masked");
    }
    const Csr row = gen::random_uniform(1, 400, 40, 37);
    const Csr b = gen::random_uniform(400, 400, 8, 39);
    Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{}, *cfg);
    expect_estimate_bounds_plan(sp.plan(row, b), row, b, "1-row");
    // Times the identity: one product per C entry, so the pattern bound has
    // no slack, while the row lengths spread over every kernel config and
    // the replay trace holds one launch per config.
    const Csr skewed = gen::power_law(2000, 2000, 12, 1.6, 1500, 41);
    const Csr eye = Csr::identity(2000);
    expect_estimate_bounds_plan(sp.plan(skewed, eye), skewed, eye, "identity");
  }
}

TEST(PlanBytes, EstimateChargesMismatchedOperandsNothing) {
  // The service estimates before the pipeline validates the operands; with
  // more columns in A than rows in B, a product walk would read past B's
  // row offsets.
  const Csr a = gen::random_uniform(48, 48, 6, 27);
  const Csr b = gen::random_uniform(32, 32, 6, 29);
  EXPECT_EQ(estimate_plan_bytes(a, b), sizeof(SpeckPlan));
}

}  // namespace
}  // namespace speck
