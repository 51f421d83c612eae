// Multi-walk race tests on WalkerPool: the first-finisher protocol,
// thread capping, best-effort reporting on unsolvable instances, shared-elite
// communication, stream seeding, determinism and prefix stability of the
// sequential paths, emulated-race winner selection, and ElitePool slot
// semantics.
#include "parallel/walker_pool.hpp"

#include <gtest/gtest.h>

#include <set>

#include "parallel/elite_pool.hpp"
#include "problems/costas.hpp"
#include "problems/langford.hpp"

namespace cspls::parallel {
namespace {

WalkerPoolOptions sequential_options(std::size_t num_walkers,
                                     std::uint64_t master_seed) {
  WalkerPoolOptions pool;
  pool.num_walkers = num_walkers;
  pool.master_seed = master_seed;
  pool.scheduling = Scheduling::kSequential;
  pool.termination = Termination::kBestAfterBudget;
  return pool;
}

/// The paper's racing configuration: real threads, independent walkers,
/// first-finisher termination (the WalkerPoolOptions defaults).
WalkerPoolOptions race_options(std::size_t num_walkers,
                               std::uint64_t master_seed) {
  WalkerPoolOptions pool;
  pool.num_walkers = num_walkers;
  pool.master_seed = master_seed;
  return pool;
}

TEST(WalkerPool, EveryRacingWalkerEitherFinishedOrWasInterrupted) {
  problems::Costas costas(11);
  const auto report = WalkerPool(race_options(6, 2)).run(costas);
  ASSERT_TRUE(report.solved);
  for (const auto& w : report.walkers) {
    EXPECT_TRUE(w.result.solved || w.result.interrupted)
        << "walker " << w.walker_id;
  }
  // The winner must have finished on its own.
  EXPECT_FALSE(report.walkers[report.winner].result.interrupted);
}

TEST(WalkerPool, SingleWalkerRaceDegeneratesToSequential) {
  problems::Costas costas(9);
  const auto report = WalkerPool(race_options(1, 3)).run(costas);
  ASSERT_TRUE(report.solved);
  EXPECT_EQ(report.winner, 0u);
}

TEST(WalkerPool, ThreadCapStillCompletesAllWalkers) {
  problems::Costas costas(9);
  WalkerPoolOptions pool = race_options(8, 4);
  pool.max_threads = 2;
  const auto report = WalkerPool(pool).run(costas);
  ASSERT_TRUE(report.solved);
  EXPECT_EQ(report.walkers.size(), 8u);
}

TEST(WalkerPool, UnsolvableInstanceReportsBestEffort) {
  // L(2,5) has no solution (n must be = 0 or 3 mod 4).
  problems::Langford langford(5);
  WalkerPoolOptions pool = race_options(3, 5);
  core::Params params =
      core::Params::from_hints(langford.tuning(), langford.num_variables());
  params.restart_limit = 2'000;
  params.max_restarts = 2;
  pool.params = params;
  const auto report = WalkerPool(pool).run(langford);
  EXPECT_FALSE(report.solved);
  EXPECT_EQ(report.winner, kNoWinner);
  EXPECT_FALSE(report.has_winner());
  EXPECT_GT(report.best.cost, 0);
  EXPECT_FALSE(report.best.solution.empty());
}

TEST(WalkerPool, SharedEliteRaceSolves) {
  // The paper's future-work prototype: periodic elite exchange through one
  // shared slot, with first-finisher termination.
  problems::Costas costas(10);
  WalkerPoolOptions pool = race_options(4, 6);
  pool.communication.neighborhood = Neighborhood::kComplete;
  pool.communication.exchange = Exchange::kElite;
  pool.communication.period = 50;
  pool.communication.adopt_probability = 0.5;
  const auto report = WalkerPool(pool).run(costas);
  ASSERT_TRUE(report.solved);
  EXPECT_TRUE(costas.verify(report.best.solution));
}

TEST(WalkerPool, SequentialWalksAreDeterministicPerStream) {
  problems::Costas costas(10);
  const auto a = WalkerPool(sequential_options(5, 42)).run(costas).walkers;
  const auto b = WalkerPool(sequential_options(5, 42)).run(costas).walkers;
  ASSERT_EQ(a.size(), 5u);
  ASSERT_EQ(b.size(), 5u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].result.stats.iterations, b[i].result.stats.iterations);
    EXPECT_EQ(a[i].result.solution, b[i].result.solution);
  }
}

TEST(WalkerPool, SequentialStreamsExploreIndependently) {
  problems::Costas costas(11);
  const auto walks = WalkerPool(sequential_options(8, 7)).run(costas).walkers;
  std::set<std::uint64_t> iteration_counts;
  for (const auto& w : walks) {
    EXPECT_TRUE(w.result.solved);
    iteration_counts.insert(w.result.stats.iterations);
  }
  // Eight independent heavy-tailed walks almost surely differ.
  EXPECT_GT(iteration_counts.size(), 4u);
}

TEST(WalkerPool, PrefixStabilityAcrossPopulationSize) {
  // Walker i's trajectory must not depend on how many walkers run: this is
  // what makes offline min-of-k analysis equivalent to the racing version.
  problems::Costas costas(9);
  const auto small = WalkerPool(sequential_options(3, 99)).run(costas).walkers;
  const auto large = WalkerPool(sequential_options(6, 99)).run(costas).walkers;
  ASSERT_EQ(small.size(), 3u);
  ASSERT_EQ(large.size(), 6u);
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(small[i].result.stats.iterations,
              large[i].result.stats.iterations);
  }
}

TEST(WalkerPool, EmulatedRacePicksFewestIterations) {
  problems::Costas costas(10);
  WalkerPoolOptions pool = sequential_options(6, 11);
  pool.scheduling = Scheduling::kEmulatedRace;
  pool.termination = Termination::kFirstFinisher;
  const auto report = WalkerPool(pool).run(costas);
  ASSERT_TRUE(report.solved);
  const auto& winner = report.walkers[report.winner];
  for (const auto& w : report.walkers) {
    if (w.result.solved) {
      EXPECT_LE(winner.result.stats.iterations, w.result.stats.iterations);
    }
  }
  EXPECT_EQ(report.best.stats.iterations, winner.result.stats.iterations);
}

TEST(WalkerPool, EmulatedRaceHandlesAllFailed) {
  problems::Langford langford(5);  // unsolvable
  WalkerPoolOptions pool = sequential_options(3, 1);
  core::Params params =
      core::Params::from_hints(langford.tuning(), langford.num_variables());
  params.restart_limit = 500;
  params.max_restarts = 0;
  pool.params = params;
  pool.scheduling = Scheduling::kEmulatedRace;
  pool.termination = Termination::kFirstFinisher;
  const auto report = WalkerPool(pool).run(langford);
  EXPECT_FALSE(report.solved);
  EXPECT_GT(report.best.cost, 0);
}

/// Sweep: the threaded race must succeed across walker counts and seeds.
class ThreadedRaceSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(ThreadedRaceSweep, AlwaysSolvesCostas9) {
  const auto [walkers, seed] = GetParam();
  problems::Costas costas(9);
  const auto report = WalkerPool(race_options(walkers, seed)).run(costas);
  ASSERT_TRUE(report.solved);
  EXPECT_TRUE(costas.verify(report.best.solution));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ThreadedRaceSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 8u),
                       ::testing::Values(1ULL, 77ULL)));

TEST(ElitePool, OfferAcceptsOnlyStrictImprovements) {
  ElitePool pool;  // decay 0: the keep-best slot
  const std::vector<int> a{1, 2, 3};
  const std::vector<int> b{3, 2, 1};
  EXPECT_TRUE(pool.offer(1, 10, a));
  EXPECT_FALSE(pool.offer(2, 10, b));  // equal is rejected
  EXPECT_FALSE(pool.offer(3, 11, b));
  EXPECT_TRUE(pool.offer(4, 9, b));
  EXPECT_EQ(pool.best_cost(), 9);
  EXPECT_EQ(pool.accepted_offers(), 2u);
}

TEST(ElitePool, TakeIfBetterHonoursThreshold) {
  ElitePool pool;
  std::vector<int> out;
  EXPECT_EQ(pool.take_if_better(1, 100, out), csp::kInfiniteCost);  // empty
  pool.offer(1, 10, std::vector<int>{4, 5, 6});
  EXPECT_EQ(pool.take_if_better(2, 10, out), csp::kInfiniteCost);  // not better
  EXPECT_EQ(pool.take_if_better(2, 11, out), 10);
  EXPECT_EQ(out, (std::vector<int>{4, 5, 6}));
}

}  // namespace
}  // namespace cspls::parallel
