#include "speck/executor.h"

namespace speck {

SpeckPlan SpeckExecutor::inspect(const Csr& a, const Csr& b) {
  SPECK_REQUIRE(a.cols() == b.rows(), "inner dimensions must agree");
  return speck_.plan(a, b);
}

SpGemmResult SpeckExecutor::execute(const SpeckPlan& plan, const Csr& a,
                                    const Csr& b) {
  SPECK_REQUIRE(a.cols() == b.rows(), "inner dimensions must agree");
  const PlanFingerprint now =
      plan_fingerprint(a, b, speck_.config(), /*with_pattern_hashes=*/false);
  SPECK_REQUIRE(plan.complete && now.matches_quick(plan.fingerprint),
                "matrix structure does not match the inspected plan");
  return speck_.multiply_with_plan(plan, a, b);
}

}  // namespace speck
