// Tests for cost-driven chain multiplication.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/prng.h"
#include "gen/generators.h"
#include "matrix/coo.h"
#include "matrix/matrix_stats.h"
#include "matrix/ops.h"
#include "ref/gustavson.h"
#include "speck/chain.h"
#include "speck/speck.h"

namespace speck {
namespace {

Speck make_speck() { return Speck(sim::DeviceSpec::titan_v(), sim::CostModel{}); }

TEST(Chain, SingleMatrixPassesThrough) {
  Speck speck = make_speck();
  const Csr a = gen::random_uniform(50, 50, 4, 1201);
  const ChainResult result = multiply_chain({a}, speck);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.steps.empty());
  EXPECT_FALSE(compare(result.c, a).has_value());
}

TEST(Chain, PairMatchesDirectMultiply) {
  Speck speck = make_speck();
  const Csr a = gen::random_uniform(80, 80, 4, 1203);
  const Csr b = gen::banded(80, 6, 3, 1205);
  const ChainResult result = multiply_chain({a, b}, speck);
  ASSERT_TRUE(result.ok());
  const auto diff = compare(result.c, gustavson_spgemm(a, b));
  EXPECT_FALSE(diff.has_value()) << diff->description;
  ASSERT_EQ(result.steps.size(), 1u);
  EXPECT_EQ(result.steps[0].products, count_products(a, b));
}

TEST(Chain, TripleProductCorrectEitherOrder) {
  Speck speck = make_speck();
  const Csr r = gen::rectangular_lp(40, 200, 6, 1207);
  const Csr a = gen::random_uniform(200, 200, 5, 1209);
  const Csr p = transpose(r);
  const ChainResult result = multiply_chain({r, a, p}, speck);
  ASSERT_TRUE(result.ok());
  const Csr expected = gustavson_spgemm(gustavson_spgemm(r, a), p);
  const auto diff = compare(result.c, expected, 1e-8);
  EXPECT_FALSE(diff.has_value()) << diff->description;
  EXPECT_EQ(result.steps.size(), 2u);
}

TEST(Chain, GreedyPicksCheapPairFirst) {
  // D1 * D2 * F where D1,D2 are diagonal (trivial products) and F is dense:
  // the greedy order must contract D1*D2 first.
  Speck speck = make_speck();
  const Csr d1 = Csr::identity(100);
  const Csr d2 = scaled(Csr::identity(100), 2.0);
  const Csr f = gen::random_uniform(100, 100, 40, 1211);
  const ChainResult result = multiply_chain({d1, d2, f}, speck);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.steps[0].left_index, 0u) << "diagonal pair first";
  const auto diff = compare(result.c, scaled(f, 2.0), 1e-9);
  EXPECT_FALSE(diff.has_value()) << diff->description;
}

TEST(Chain, GreedyBeatsLeftToRightOnProducts) {
  // X (dense-ish) * Y (dense-ish) * S (column selector): contracting Y*S
  // first shrinks Y to ten columns, so the expensive X multiply sees a tiny
  // operand. Left-to-right would pay the full X*Y expansion.
  const Csr x = gen::random_uniform(100, 100, 40, 1213);
  const Csr y = gen::random_uniform(100, 100, 40, 1215);
  Coo s_coo(100, 10);  // selector: each column sourced from one row
  for (index_t c = 0; c < 10; ++c) s_coo.add(c * 10, c, 1.0);
  const Csr s = s_coo.to_csr();

  Speck speck = make_speck();
  const ChainResult greedy = multiply_chain({x, y, s}, speck);
  ASSERT_TRUE(greedy.ok());
  EXPECT_EQ(greedy.steps[0].left_index, 1u) << "must contract Y*S first";

  // Left-to-right order: (X*Y) then (*S).
  const Csr xy = gustavson_spgemm(x, y);
  const offset_t left_to_right = count_products(x, y) + count_products(xy, s);
  EXPECT_LT(greedy.total_products, left_to_right / 2);
  // And correct.
  const Csr expected = gustavson_spgemm(xy, s);
  const auto diff = compare(greedy.c, expected, 1e-8);
  EXPECT_FALSE(diff.has_value()) << diff->description;
}

TEST(Chain, FiveMatrixChain) {
  Speck speck = make_speck();
  std::vector<Csr> chain;
  for (int i = 0; i < 5; ++i) {
    chain.push_back(gen::banded(120, 5, 3, 1300 + static_cast<std::uint64_t>(i)));
  }
  const ChainResult result = multiply_chain(chain, speck);
  ASSERT_TRUE(result.ok());
  Csr expected = chain[0];
  for (int i = 1; i < 5; ++i) expected = gustavson_spgemm(expected, chain[static_cast<std::size_t>(i)]);
  const auto diff = compare(result.c, expected, 1e-6);
  EXPECT_FALSE(diff.has_value()) << diff->description;
  EXPECT_EQ(result.steps.size(), 4u);
  EXPECT_GT(result.seconds, 0.0);
}

TEST(Chain, RejectsNonConformable) {
  Speck speck = make_speck();
  EXPECT_THROW(multiply_chain({Csr::zeros(3, 4), Csr::zeros(5, 6)}, speck),
               InvalidArgument);
  EXPECT_THROW(multiply_chain({}, speck), InvalidArgument);
}

/// Same structure, fresh values.
Csr chain_reweighted(const Csr& a, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<offset_t> offsets(a.row_offsets().begin(), a.row_offsets().end());
  std::vector<index_t> cols(a.col_indices().begin(), a.col_indices().end());
  std::vector<value_t> vals(static_cast<std::size_t>(a.nnz()));
  for (auto& v : vals) v = rng.next_double(-2.0, 2.0);
  return Csr(a.rows(), a.cols(), std::move(offsets), std::move(cols),
             std::move(vals));
}

TEST(ChainPlanReuse, SecondPassReplaysCachedPlans) {
  Speck speck = make_speck();
  PlanCache cache(1, SIZE_MAX);
  const Csr a = gen::random_uniform(60, 60, 4, 1407);
  const Csr b = gen::banded(60, 5, 2, 1409);
  const Csr c = gen::random_uniform(60, 60, 3, 1411);

  // First pass populates the cache with one plan per contraction.
  const ChainResult first = multiply_chain({a, b, c}, speck, cache);
  ASSERT_TRUE(first.ok()) << first.failure_reason;
  EXPECT_EQ(cache.entries(), first.steps.size());
  EXPECT_GT(cache.bytes(), 0u);
  for (const ChainStep& step : first.steps) {
    EXPECT_FALSE(step.plan_reused);
  }

  // Second pass, fresh values and the same structures: the greedy
  // contraction order is value-independent, so every link replays.
  const Csr a2 = chain_reweighted(a, 1413);
  const Csr b2 = chain_reweighted(b, 1415);
  const Csr c2 = chain_reweighted(c, 1417);
  const ChainResult second = multiply_chain({a2, b2, c2}, speck, cache);
  ASSERT_TRUE(second.ok()) << second.failure_reason;
  EXPECT_EQ(cache.entries(), first.steps.size());  // no new plans needed
  ASSERT_EQ(second.steps.size(), first.steps.size());
  for (const ChainStep& step : second.steps) {
    EXPECT_TRUE(step.plan_reused);
  }
  EXPECT_LT(second.seconds, first.seconds);

  // Replayed chain result matches a from-scratch recompute exactly.
  Speck reference = make_speck();
  const ChainResult recompute = multiply_chain({a2, b2, c2}, reference);
  ASSERT_TRUE(recompute.ok());
  const auto diff = compare(second.c, recompute.c, 0.0);
  EXPECT_FALSE(diff.has_value()) << diff->description;
}

TEST(ChainPlanReuse, PlanAwareMatchesPlain) {
  Speck speck = make_speck();
  PlanCache cache(1, SIZE_MAX);
  const Csr a = gen::power_law(50, 50, 5, 1.8, 25, 1419);
  const ChainResult planned = multiply_chain({a, a, a}, speck, cache);
  ASSERT_TRUE(planned.ok()) << planned.failure_reason;

  Speck reference = make_speck();
  const ChainResult plain = multiply_chain({a, a, a}, reference);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(planned.total_products, plain.total_products);
  const auto diff = compare(planned.c, plain.c, 0.0);
  EXPECT_FALSE(diff.has_value()) << diff->description;
}

TEST(ChainPairProducts, MatchesCountProducts) {
  const Csr a = gen::random_uniform(30, 30, 3, 1401);
  const Csr b = gen::random_uniform(30, 30, 5, 1403);
  const Csr c = gen::random_uniform(30, 30, 7, 1405);
  const auto products = chain_pair_products({a, b, c});
  ASSERT_EQ(products.size(), 2u);
  EXPECT_EQ(products[0], count_products(a, b));
  EXPECT_EQ(products[1], count_products(b, c));
}

}  // namespace
}  // namespace speck
