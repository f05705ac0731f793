#include "speck/chain.h"

#include <algorithm>

#include "matrix/matrix_stats.h"

namespace speck {
namespace {

/// The greedy contraction loop. `contract(a, b, plan_reused)` multiplies
/// one adjacent pair and says whether it replayed a cached plan.
template <typename Contract>
ChainResult contract_greedily(std::vector<Csr> chain, Contract&& contract) {
  ChainResult result;
  SPECK_REQUIRE(!chain.empty(), "chain must contain at least one matrix");
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    SPECK_REQUIRE(chain[i].cols() == chain[i + 1].rows(),
                  "chain matrices must be conformable");
  }

  while (chain.size() > 1) {
    const std::vector<offset_t> pair_products = chain_pair_products(chain);
    const auto cheapest =
        std::min_element(pair_products.begin(), pair_products.end());
    const auto index =
        static_cast<std::size_t>(cheapest - pair_products.begin());

    bool reused = false;
    SpGemmResult step = contract(chain[index], chain[index + 1], reused);
    if (!step.ok()) {
      result.status = step.status;
      result.failure_reason = "contracting pair " + std::to_string(index) + ": " +
                              step.failure_reason;
      return result;
    }
    result.steps.push_back(ChainStep{index, *cheapest, step.seconds, reused});
    result.seconds += step.seconds;
    result.total_products += *cheapest;

    chain[index] = std::move(step.c);
    chain.erase(chain.begin() + static_cast<std::ptrdiff_t>(index) + 1);
  }
  result.c = std::move(chain.front());
  return result;
}

}  // namespace

std::vector<offset_t> chain_pair_products(const std::vector<Csr>& chain) {
  std::vector<offset_t> products;
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    products.push_back(count_products(chain[i], chain[i + 1]));
  }
  return products;
}

ChainResult multiply_chain(std::vector<Csr> chain, SpGemmAlgorithm& algorithm) {
  return contract_greedily(std::move(chain),
                           [&](const Csr& a, const Csr& b, bool&) {
                             return algorithm.multiply(a, b);
                           });
}

ChainResult multiply_chain(std::vector<Csr> chain, Speck& speck,
                           PlanCache& cache) {
  return contract_greedily(
      std::move(chain), [&](const Csr& a, const Csr& b, bool& reused) {
        // The key Speck::plan files the link's (unmasked) plan under.
        const PlanFingerprint fp =
            plan_fingerprint(a, b, /*mask=*/nullptr, speck.config());
        if (const std::shared_ptr<const SpeckPlan> plan = cache.find(fp)) {
          SpGemmResult step = speck.multiply_with_plan(*plan, a, b);
          reused = !speck.last_diagnostics().plan_fallback;
          return step;
        }
        SpGemmResult step;
        auto fresh = std::make_shared<const SpeckPlan>(speck.plan(a, b, &step));
        if (fresh->complete) cache.insert(std::move(fresh));
        return step;
      });
}

}  // namespace speck
