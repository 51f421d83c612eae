// End-to-end integration: the full experiment pipeline in miniature —
// sample real walks, build the empirical law, simulate the paper's
// platforms, check the figures' qualitative shape.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/adaptive_search.hpp"
#include "parallel/walker_pool.hpp"
#include "problems/registry.hpp"
#include "sim/platform.hpp"
#include "sim/sampling.hpp"
#include "sim/speedup.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"

namespace cspls {
namespace {

TEST(Integration, SamplingProducesAFullySolvedSampleSet) {
  auto costas = problems::make_problem("costas", 9);
  sim::SamplingOptions options;
  options.num_samples = 40;
  options.master_seed = 1;
  const sim::SampleSet set = sim::collect_walk_samples(*costas, options);
  ASSERT_EQ(set.samples.size(), 40u);
  EXPECT_DOUBLE_EQ(set.solve_rate(), 1.0);
  EXPECT_GT(set.seconds_per_iteration(), 0.0);
  const auto iters = set.iterations_distribution();
  EXPECT_EQ(iters.size(), 40u);
  EXPECT_GT(iters.max(), iters.min());  // non-degenerate law
}

TEST(Integration, SamplingIsExactlyReproducibleInIterations) {
  auto costas = problems::make_problem("costas", 9);
  sim::SamplingOptions options;
  options.num_samples = 15;
  options.master_seed = 7;
  const auto a = sim::collect_walk_samples(*costas, options);
  const auto b = sim::collect_walk_samples(*costas, options);
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].iterations, b.samples[i].iterations);
    EXPECT_EQ(a.samples[i].solved, b.samples[i].solved);
  }
}

TEST(Integration, SamplingTracesExposeCostOverTime) {
  // The trace API behind the runtime-distribution sampling: per-walk
  // counters plus a cost-over-time series, without perturbing the samples.
  auto costas = problems::make_problem("costas", 9);
  sim::SamplingOptions options;
  options.num_samples = 12;
  options.master_seed = 7;
  options.trace_sample_period = 50;
  const auto set = sim::collect_walk_samples(*costas, options);
  ASSERT_EQ(set.traces.size(), set.samples.size());

  sim::SamplingOptions untraced = options;
  untraced.trace_sample_period = 0;
  const auto plain = sim::collect_walk_samples(*costas, untraced);
  for (std::size_t i = 0; i < set.samples.size(); ++i) {
    // Recording is passive: iteration counts match the untraced run.
    EXPECT_EQ(set.samples[i].iterations, plain.samples[i].iterations);
    const auto& trace = set.traces[i];
    EXPECT_EQ(trace.iterations, set.samples[i].iterations);
    EXPECT_EQ(trace.solved, set.samples[i].solved);
    ASSERT_GE(trace.cost_samples.size(), 2u);
    EXPECT_EQ(trace.cost_samples.front().iteration, 0u);
    EXPECT_EQ(trace.cost_samples.back().iteration, trace.iterations);
    if (trace.solved) EXPECT_EQ(trace.cost_samples.back().cost, 0);
  }
}

TEST(Integration, MiniFigureOnePipeline) {
  // Miniature of bench_fig1: costas walk law -> HA8000 model -> speedups.
  auto costas = problems::make_problem("costas", 10);
  sim::SamplingOptions options;
  options.num_samples = 60;
  options.master_seed = 2;
  const auto set = sim::collect_walk_samples(*costas, options);
  ASSERT_GT(set.solve_rate(), 0.95);

  const auto seconds = set.iterations_distribution();  // effort units
  const auto curve = sim::compute_speedup_curve(
      seconds, sim::ha8000(), {1, 2, 4, 8, 16}, "costas-10");
  EXPECT_EQ(curve.platform, "HA8000");
  // Qualitative shape of the paper's figures: monotone gains that grow
  // sublinearly once overheads bite.
  EXPECT_GT(curve.at(2).speedup, 1.1);
  EXPECT_GT(curve.at(16).speedup, curve.at(4).speedup);
  EXPECT_GE(curve.at(4).speedup, curve.at(2).speedup * 0.9);
}

TEST(Integration, RacingAndOfflineFirstFinisherAgreeOnWinnersLaw) {
  // The racing solver's accepted solutions and the offline emulation must
  // both be valid solutions of the same instance.
  auto costas = problems::make_problem("costas", 10);
  parallel::WalkerPoolOptions options;
  options.num_walkers = 4;
  options.master_seed = 3;
  const auto report = parallel::WalkerPool(options).run(*costas);
  ASSERT_TRUE(report.solved);
  ASSERT_TRUE(costas->verify(report.best.solution));

  options.scheduling = parallel::Scheduling::kEmulatedRace;
  const auto offline = parallel::WalkerPool(options).run(*costas);
  ASSERT_TRUE(offline.solved);
  EXPECT_TRUE(costas->verify(offline.best.solution));
}

TEST(Integration, MoreWalkersNeverSlowTheOfflineCompletionEffort) {
  // min-of-k in iterations is monotone in k on the same stream prefix —
  // the defining property that makes multi-walk parallelism pay.
  auto costas = problems::make_problem("costas", 11);
  parallel::WalkerPoolOptions options;
  options.num_walkers = 16;
  options.master_seed = 5;
  options.scheduling = parallel::Scheduling::kSequential;
  options.termination = parallel::Termination::kBestAfterBudget;
  const auto walks16 = parallel::WalkerPool(options).run(*costas).walkers;
  const auto effort_of = [&](std::size_t k) {
    std::uint64_t best = UINT64_MAX;
    for (std::size_t i = 0; i < k; ++i) {
      if (walks16[i].result.solved) {
        best = std::min(best, walks16[i].result.stats.iterations);
      }
    }
    return best;
  };
  EXPECT_LE(effort_of(16), effort_of(8));
  EXPECT_LE(effort_of(8), effort_of(4));
  EXPECT_LE(effort_of(4), effort_of(1));
}

TEST(Integration, PaperPlatformsProduceComparableCurves) {
  // The paper's observation: HA8000 and Grid'5000 speedups are "more or
  // less equivalent".  With the same walk law, our platform models must
  // stay within a modest factor of each other.
  auto problem = problems::make_problem("all-interval", 14);
  sim::SamplingOptions options;
  options.num_samples = 50;
  options.master_seed = 4;
  const auto set = sim::collect_walk_samples(*problem, options);
  ASSERT_GT(set.solve_rate(), 0.9);
  const auto law = set.iterations_distribution();

  const auto grid = std::vector<std::size_t>{1, 4, 16, 64};
  const auto ha = sim::compute_speedup_curve(law, sim::ha8000(), grid, "ai");
  const auto suno =
      sim::compute_speedup_curve(law, sim::grid5000_suno(), grid, "ai");
  for (const std::size_t cores : grid) {
    const double a = ha.at(cores).speedup;
    const double b = suno.at(cores).speedup;
    EXPECT_LT(std::abs(a - b) / std::max(a, b), 0.5)
        << "cores=" << cores << " ha=" << a << " suno=" << b;
  }
}

TEST(Integration, CsvMirrorsSurviveRoundTrip) {
  const auto path =
      (std::filesystem::temp_directory_path() / "cspls_integration.csv")
          .string();
  {
    util::CsvWriter csv(path);
    csv.write_all({"benchmark", "cores", "speedup"},
                  {{"costas", "64", "48.5"}, {"magic-square", "64", "30.1"}});
  }
  std::ifstream in(path);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("costas,64,48.5"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Integration, WholeSuiteSolvesAtDefaultSizes) {
  // The examples' promise: every registered model solves at default size
  // with its own tuning in a bounded number of restarts.
  for (const auto& name : problems::problem_names()) {
    auto problem = problems::make_problem(name, problems::default_size(name));
    auto params = core::Params::from_hints(problem->tuning(),
                                           problem->num_variables());
    params.max_restarts = 200;
    const core::AdaptiveSearch engine(params);
    util::Xoshiro256 rng(2024);
    const auto result = engine.solve(*problem, rng);
    ASSERT_TRUE(result.solved) << name;
    ASSERT_TRUE(problem->verify(result.solution)) << name;
  }
}

}  // namespace
}  // namespace cspls
