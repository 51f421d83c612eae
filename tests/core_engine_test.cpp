// Adaptive Search engine tests: correctness, determinism, budgets, hooks.
#include "core/adaptive_search.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "problems/costas.hpp"
#include "problems/queens.hpp"
#include "util/rng.hpp"

namespace cspls::core {
namespace {

Params quick_params(const csp::Problem& p) {
  Params params = Params::from_hints(p.tuning(), p.num_variables());
  params.max_restarts = 50;
  return params;
}

TEST(AdaptiveSearch, SolvesQueensAndSolutionVerifies) {
  problems::Queens queens(30);
  const AdaptiveSearch engine(quick_params(queens));
  util::Xoshiro256 rng(1);
  const Result result = engine.solve(queens, rng);
  ASSERT_TRUE(result.solved);
  EXPECT_EQ(result.cost, 0);
  EXPECT_TRUE(queens.verify(result.solution));
  EXPECT_FALSE(result.interrupted);
  EXPECT_GT(result.stats.iterations, 0u);
}

TEST(AdaptiveSearch, ProblemLeftBoundToReportedSolution) {
  problems::Costas costas(9);
  const AdaptiveSearch engine(quick_params(costas));
  util::Xoshiro256 rng(2);
  const Result result = engine.solve(costas, rng);
  ASSERT_TRUE(result.solved);
  EXPECT_TRUE(std::equal(result.solution.begin(), result.solution.end(),
                         costas.values().begin()));
  EXPECT_EQ(costas.total_cost(), result.cost);
}

TEST(AdaptiveSearch, DeterministicGivenSeed) {
  problems::Costas costas(10);
  const AdaptiveSearch engine(quick_params(costas));
  util::Xoshiro256 rng_a(77);
  util::Xoshiro256 rng_b(77);
  auto clone_a = costas.clone();
  auto clone_b = costas.clone();
  const Result a = engine.solve(*clone_a, rng_a);
  const Result b = engine.solve(*clone_b, rng_b);
  EXPECT_EQ(a.solved, b.solved);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.stats.iterations, b.stats.iterations);
  EXPECT_EQ(a.stats.swaps, b.stats.swaps);
  EXPECT_EQ(a.stats.resets, b.stats.resets);
  EXPECT_EQ(a.solution, b.solution);
}

TEST(AdaptiveSearch, DifferentSeedsExploreDifferently) {
  problems::Costas costas(11);
  const AdaptiveSearch engine(quick_params(costas));
  util::Xoshiro256 rng_a(1);
  util::Xoshiro256 rng_b(2);
  auto clone_a = costas.clone();
  auto clone_b = costas.clone();
  const Result a = engine.solve(*clone_a, rng_a);
  const Result b = engine.solve(*clone_b, rng_b);
  EXPECT_NE(a.stats.iterations, b.stats.iterations);
}

TEST(AdaptiveSearch, RelaxedTargetCostStopsImmediately) {
  problems::Queens queens(20);
  Params params = quick_params(queens);
  params.target_cost = 1'000'000;  // any random configuration qualifies
  const AdaptiveSearch engine(params);
  util::Xoshiro256 rng(3);
  const Result result = engine.solve(queens, rng);
  EXPECT_TRUE(result.solved);
  EXPECT_EQ(result.stats.iterations, 0u);
  EXPECT_LE(result.cost, params.target_cost);
}

TEST(AdaptiveSearch, PresetStopFlagInterruptsBeforeWork) {
  problems::Costas costas(12);
  const AdaptiveSearch engine(quick_params(costas));
  util::Xoshiro256 rng(4);
  std::atomic<bool> stop{true};
  const Result result = engine.solve(costas, rng, StopToken(&stop));
  EXPECT_TRUE(result.interrupted);
  EXPECT_FALSE(result.solved);
  EXPECT_EQ(result.stats.iterations, 0u);
}

TEST(AdaptiveSearch, RestartBudgetIsHonoured) {
  problems::Costas costas(13);
  Params params = quick_params(costas);
  params.restart_limit = 10;  // absurdly small walks
  params.max_restarts = 7;
  const AdaptiveSearch engine(params);
  util::Xoshiro256 rng(5);
  const Result result = engine.solve(costas, rng);
  EXPECT_LE(result.stats.restarts, 7u);
  EXPECT_LE(result.stats.iterations, 10u * 8u);
  if (!result.solved) {
    EXPECT_EQ(result.stats.restarts, 7u);
  }
}

TEST(AdaptiveSearch, ZeroRestartsMeansSingleWalk) {
  problems::Costas costas(13);
  Params params = quick_params(costas);
  params.restart_limit = 5;
  params.max_restarts = 0;
  const AdaptiveSearch engine(params);
  util::Xoshiro256 rng(6);
  const Result result = engine.solve(costas, rng);
  EXPECT_EQ(result.stats.restarts, 0u);
  EXPECT_LE(result.stats.iterations, 5u);
}

TEST(AdaptiveSearch, ResetsFireAtResetLimit) {
  problems::Costas costas(10);
  Params params = quick_params(costas);
  params.reset_limit = 1;  // every local minimum triggers a reset
  const AdaptiveSearch engine(params);
  util::Xoshiro256 rng(7);
  const Result result = engine.solve(costas, rng);
  EXPECT_EQ(result.stats.resets, result.stats.local_minima);
}

TEST(AdaptiveSearch, StatsAreInternallyConsistent) {
  problems::Costas costas(10);
  const AdaptiveSearch engine(quick_params(costas));
  util::Xoshiro256 rng(8);
  const Result result = engine.solve(costas, rng);
  const auto& s = result.stats;
  EXPECT_LE(s.swaps + s.plateau_moves, s.iterations);
  EXPECT_LE(s.resets, s.local_minima + 1);
  // Each iteration probes at most n-1 moves.
  EXPECT_LE(s.cost_evaluations, s.iterations * (costas.order() - 1));
  EXPECT_GE(s.seconds, 0.0);
}

TEST(AdaptiveSearch, BestCostIsNeverWorseThanReported) {
  problems::Costas costas(14);
  Params params = quick_params(costas);
  params.restart_limit = 200;  // likely fails: check best tracking
  params.max_restarts = 2;
  const AdaptiveSearch engine(params);
  util::Xoshiro256 rng(9);
  const Result result = engine.solve(costas, rng);
  EXPECT_EQ(costas.total_cost(), result.cost);
  EXPECT_EQ(costas.full_cost(), result.cost);
  EXPECT_GE(result.cost, 0);
}

TEST(AdaptiveSearch, ObserverFiresAtRequestedPeriod) {
  problems::Costas costas(12);
  Params params = quick_params(costas);
  params.restart_limit = 5000;
  params.max_restarts = 0;
  const AdaptiveSearch engine(params);
  util::Xoshiro256 rng(10);

  std::uint64_t calls = 0;
  std::uint64_t last_iter = 0;
  Hooks hooks;
  hooks.observer_period = 100;
  hooks.observer = [&](std::uint64_t iter, csp::Cost cost,
                       std::span<const int> values) {
    ++calls;
    EXPECT_EQ(iter % 100, 0u);
    EXPECT_GT(iter, last_iter);
    last_iter = iter;
    EXPECT_GE(cost, 0);
    EXPECT_EQ(values.size(), costas.num_variables());
  };
  const Result result = engine.solve(costas, rng, {}, hooks);
  EXPECT_EQ(calls, result.stats.iterations / 100);
}

TEST(AdaptiveSearch, OnResetHookCanAdoptConfiguration) {
  problems::Costas costas(10);
  Params params = quick_params(costas);
  params.reset_limit = 1;
  params.restart_limit = 2000;
  params.max_restarts = 0;
  const AdaptiveSearch engine(params);
  util::Xoshiro256 rng(11);

  // The hook plants a fixed configuration at every reset.
  auto planted = costas.clone();
  util::Xoshiro256 plant_rng(1234);
  planted->randomize(plant_rng);
  const std::vector<int> plant(planted->values().begin(),
                               planted->values().end());

  std::uint64_t adoptions = 0;
  Hooks hooks;
  hooks.on_reset = [&](csp::Problem& problem, util::Xoshiro256&) {
    ++adoptions;
    problem.assign(plant);
    return true;
  };
  const Result result = engine.solve(costas, rng, {}, hooks);
  (void)result;
  EXPECT_GT(adoptions, 0u);
}

TEST(Params, FromHintsDerivesSizeDependentDefaults) {
  csp::TuningHints hints;  // all defaults: derive from size
  const Params p = Params::from_hints(hints, 100);
  EXPECT_EQ(p.reset_limit, 10u);
  EXPECT_EQ(p.restart_limit, 100'000u);
  const Params tiny = Params::from_hints(hints, 3);
  EXPECT_GE(tiny.reset_limit, 2u);
}

TEST(Params, ExplicitHintsPassThrough) {
  csp::TuningHints hints;
  hints.reset_limit = 42;
  hints.restart_limit = 777;
  hints.freeze_loc_min = 9;
  hints.prob_accept_plateau = 0.25;
  const Params p = Params::from_hints(hints, 50);
  EXPECT_EQ(p.reset_limit, 42u);
  EXPECT_EQ(p.restart_limit, 777u);
  EXPECT_EQ(p.freeze_loc_min, 9u);
  EXPECT_DOUBLE_EQ(p.prob_accept_plateau, 0.25);
}

TEST(Params, DescribeMentionsKeyFields) {
  const Params p;
  const std::string s = p.describe();
  EXPECT_NE(s.find("restart_limit"), std::string::npos);
  EXPECT_NE(s.find("reset_limit"), std::string::npos);
}

TEST(RunStats, ToStringMentionsCounters) {
  RunStats s;
  s.iterations = 5;
  const std::string out = s.to_string();
  EXPECT_NE(out.find("iters=5"), std::string::npos);
}

/// Determinism sweep across seeds and problems sizes: the engine is a pure
/// function of (problem, params, seed).
class EngineDeterminismSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
};

TEST_P(EngineDeterminismSweep, SameSeedSameTrace) {
  const auto [seed, n] = GetParam();
  problems::Queens queens(n);
  const AdaptiveSearch engine(quick_params(queens));
  util::Xoshiro256 rng_a(seed);
  util::Xoshiro256 rng_b(seed);
  auto a = queens.clone();
  auto b = queens.clone();
  const Result ra = engine.solve(*a, rng_a);
  const Result rb = engine.solve(*b, rng_b);
  EXPECT_EQ(ra.stats.iterations, rb.stats.iterations);
  EXPECT_EQ(ra.solution, rb.solution);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineDeterminismSweep,
    ::testing::Combine(::testing::Values(1ULL, 99ULL, 4242ULL),
                       ::testing::Values(8u, 20u, 40u)));

}  // namespace
}  // namespace cspls::core
