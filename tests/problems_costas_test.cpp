// Costas Array Problem model tests.
#include "problems/costas.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/adaptive_search.hpp"
#include "util/rng.hpp"

namespace cspls::problems {
namespace {

using csp::Cost;

// The order-5 Costas array shown in the paper: [3, 4, 2, 1, 5].
const std::vector<int> kPaperExample = {3, 4, 2, 1, 5};

TEST(Costas, RejectsDegenerateOrders) {
  EXPECT_THROW(Costas(0), std::invalid_argument);
  EXPECT_THROW(Costas(1), std::invalid_argument);
}

TEST(Costas, PaperExampleIsACostasArray) {
  Costas p(5);
  EXPECT_EQ(p.assign(kPaperExample), 0);
  EXPECT_TRUE(p.verify(kPaperExample));
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(p.cost_on_variable(i), 0);
  }
}

TEST(Costas, SmallestOrdersAreTrivial) {
  Costas p2(2);
  EXPECT_EQ(p2.assign(std::vector<int>{1, 2}), 0);
  EXPECT_TRUE(p2.verify(std::vector<int>{2, 1}));
  Costas p3(3);
  // [1, 3, 2]: row-1 diffs {2, -1}, row-2 diff {1}: all distinct per row.
  EXPECT_TRUE(p3.verify(std::vector<int>{1, 3, 2}));
}

TEST(Costas, IdentityIsMaximallyRepetitive) {
  Costas p(6);
  std::vector<int> identity(6);
  std::iota(identity.begin(), identity.end(), 1);
  // Row d has 6-d pairs, all with difference d: surplus (6-d-1) each.
  // Total = sum_{d=1..5} (5-d) = 10.
  EXPECT_EQ(p.assign(identity), 10);
  EXPECT_FALSE(p.verify(identity));
}

TEST(Costas, CostOnVariableCountsPairSurpluses) {
  Costas p(4);
  std::vector<int> identity{1, 2, 3, 4};
  p.assign(identity);
  // Row 1 diffs: (0,1),(1,2),(2,3) all 1 -> occ 3.  Row 2: (0,2),(1,3)
  // both 2 -> occ 2.  Row 3: single pair.
  // Position 0 is in pairs (0,1) [occ3], (0,2) [occ2], (0,3) [occ1]:
  // err = 2 + 1 + 0 = 3.
  EXPECT_EQ(p.cost_on_variable(0), 3);
  // Position 1: pairs (0,1) and (1,2) in row 1 [2+2], (1,3) row 2 [1]: 5.
  EXPECT_EQ(p.cost_on_variable(1), 5);
}

TEST(Costas, SwapProbesMatchCommitsEverywhere) {
  Costas p(9);
  util::Xoshiro256 rng(4);
  p.randomize(rng);
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = i + 1; j < 9; ++j) {
      const Cost probed = p.cost_if_swap(i, j);
      const Cost committed = p.swap(i, j);
      ASSERT_EQ(probed, committed) << i << "," << j;
      ASSERT_EQ(committed, p.full_cost());
      p.swap(i, j);  // restore
    }
  }
}

TEST(Costas, VerifyRejectsMalformedInputs) {
  Costas p(5);
  EXPECT_FALSE(p.verify(std::vector<int>{1, 2, 3}));            // size
  EXPECT_FALSE(p.verify(std::vector<int>{1, 1, 2, 3, 4}));      // not perm
  EXPECT_FALSE(p.verify(std::vector<int>{1, 2, 3, 4, 5}));      // identity
}

TEST(Costas, VerifierAgreesWithCostOnRandomConfigurations) {
  Costas p(7);
  util::Xoshiro256 rng(12);
  for (int trial = 0; trial < 300; ++trial) {
    p.randomize(rng);
    const bool zero = p.total_cost() == 0;
    const std::vector<int> vals(p.values().begin(), p.values().end());
    EXPECT_EQ(p.verify(vals), zero);
  }
}

TEST(Costas, EngineSolvesUpToOrderTwelve) {
  for (const std::size_t n : {8u, 10u, 12u}) {
    Costas p(n);
    auto params = core::Params::from_hints(p.tuning(), p.num_variables());
    params.max_restarts = 50;
    const core::AdaptiveSearch engine(params);
    util::Xoshiro256 rng(n * 7);
    const auto result = engine.solve(p, rng);
    ASSERT_TRUE(result.solved) << "n=" << n;
    EXPECT_TRUE(p.verify(result.solution)) << "n=" << n;
  }
}

TEST(Costas, RandomWalkKeepsCacheCoherent) {
  Costas p(11);
  util::Xoshiro256 rng(13);
  p.randomize(rng);
  for (int step = 0; step < 1000; ++step) {
    const auto i = static_cast<std::size_t>(rng.below(11));
    auto j = static_cast<std::size_t>(rng.below(11));
    if (i == j) j = (j + 1) % 11;
    p.swap(i, j);
  }
  EXPECT_EQ(p.total_cost(), p.full_cost());
}

TEST(Costas, CloneCarriesFullState) {
  Costas p(8);
  util::Xoshiro256 rng(14);
  p.randomize(rng);
  auto clone = p.clone();
  EXPECT_EQ(clone->total_cost(), p.total_cost());
  // Identical swap sequences must produce identical costs.
  for (int step = 0; step < 50; ++step) {
    const auto i = static_cast<std::size_t>(rng.below(8));
    auto j = static_cast<std::size_t>(rng.below(8));
    if (i == j) j = (j + 1) % 8;
    ASSERT_EQ(p.swap(i, j), clone->swap(i, j));
  }
}

TEST(Costas, ClonesShareTablesButNotOccurrenceState) {
  // Clones share the order's slot tables; each owns its occurrence counts.
  Costas p(10);
  util::Xoshiro256 rng(15);
  p.randomize(rng);
  const Cost before = p.total_cost();
  auto clone = p.clone();
  auto fresh = Costas(10).clone();
  ASSERT_EQ(fresh->assign(p.values()), before);
  for (int step = 0; step < 200; ++step) {
    const auto i = static_cast<std::size_t>(rng.below(10));
    auto j = static_cast<std::size_t>(rng.below(10));
    if (i == j) j = (j + 1) % 10;
    ASSERT_EQ(clone->swap(i, j), fresh->swap(i, j));
  }
  EXPECT_EQ(clone->total_cost(), clone->full_cost());
  EXPECT_EQ(p.total_cost(), before);
  EXPECT_EQ(p.full_cost(), before);
  std::size_t j = 0;
  Cost best = 0;
  std::size_t ties = 0;
  util::Xoshiro256 a(7);
  util::Xoshiro256 b(7);
  (void)p.best_swap_for(0, a, j, best, ties);
  const Cost original_best = best;
  auto copy = p.clone();
  (void)copy->best_swap_for(0, b, j, best, ties);
  EXPECT_EQ(best, original_best);
}

/// Property sweep over orders: the difference-triangle accounting stays
/// exact through random trajectories.
class CostasOrderSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CostasOrderSweep, TrajectoryConsistency) {
  const std::size_t n = GetParam();
  Costas p(n);
  util::Xoshiro256 rng(n);
  p.randomize(rng);
  for (int step = 0; step < 300; ++step) {
    const auto i = static_cast<std::size_t>(rng.below(n));
    auto j = static_cast<std::size_t>(rng.below(n));
    if (i == j) j = (j + 1) % n;
    const Cost probed = p.cost_if_swap(i, j);
    ASSERT_EQ(p.swap(i, j), probed);
  }
  EXPECT_EQ(p.total_cost(), p.full_cost());
}

INSTANTIATE_TEST_SUITE_P(Orders, CostasOrderSweep,
                         ::testing::Values(2u, 3u, 5u, 8u, 13u, 17u));

}  // namespace
}  // namespace cspls::problems
