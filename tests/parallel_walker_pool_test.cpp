// WalkerPool policy-matrix tests: scheduling-mode equivalence against a
// reference implementation of independent walks (walker-for-walker
// RNG-stream identity), fixed-seed identity of the legacy communication
// topologies spelled through the Neighborhood x ExchangeStrategy API, the
// migration and decay-elite strategies, option validation,
// best-after-budget termination, trace neutrality, and the parked helper
// team threaded runs execute on (thread reuse, concurrent callers, the
// idle-helper bound).  The race-protocol and stream-seeding tests live in
// parallel_multi_walk_test.
#include "parallel/walker_pool.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "core/adaptive_search.hpp"
#include "parallel/elite_pool.hpp"
#include "problems/costas.hpp"
#include "problems/langford.hpp"
#include "util/rng.hpp"

namespace cspls::parallel {
namespace {

/// Reference implementation of independent walks, written without the
/// pool: one engine, a clone of the prototype and RNG stream `id` per
/// walker, each run to completion with no stop flag and no hooks.  The pool's sequential
/// mode must reproduce this outcome walker-for-walker.
std::vector<core::Result> reference_walks(const csp::Problem& prototype,
                                          std::size_t num_walkers,
                                          std::uint64_t master_seed) {
  const core::Params params = core::Params::from_hints(
      prototype.tuning(), prototype.num_variables());
  const core::AdaptiveSearch engine(params);
  const util::RngStreamFactory streams(master_seed);
  std::vector<core::Result> results;
  results.reserve(num_walkers);
  for (std::size_t id = 0; id < num_walkers; ++id) {
    auto problem = prototype.clone();
    util::Xoshiro256 rng = streams.stream(id);
    results.push_back(engine.solve(*problem, rng));
  }
  return results;
}

WalkerPoolOptions sequential_options(std::size_t num_walkers,
                                     std::uint64_t master_seed) {
  WalkerPoolOptions pool;
  pool.num_walkers = num_walkers;
  pool.master_seed = master_seed;
  pool.scheduling = Scheduling::kSequential;
  pool.termination = Termination::kBestAfterBudget;
  return pool;
}

TEST(WalkerPoolEquivalence, SequentialModeReproducesLegacyIndependentWalks) {
  problems::Costas costas(10);
  const auto reference = reference_walks(costas, 5, 42);

  const auto report = WalkerPool(sequential_options(5, 42)).run(costas);
  ASSERT_EQ(report.walkers.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(report.walkers[i].walker_id, i);
    EXPECT_EQ(report.walkers[i].result.solved, reference[i].solved);
    EXPECT_EQ(report.walkers[i].result.cost, reference[i].cost);
    EXPECT_EQ(report.walkers[i].result.solution, reference[i].solution);
    EXPECT_EQ(report.walkers[i].result.stats.iterations,
              reference[i].stats.iterations);
    EXPECT_EQ(report.walkers[i].result.stats.swaps, reference[i].stats.swaps);
    EXPECT_EQ(report.walkers[i].result.stats.resets,
              reference[i].stats.resets);
  }
}

TEST(WalkerPoolEquivalence, TracingDoesNotPerturbOutcomes) {
  problems::Costas costas(10);
  const auto reference = reference_walks(costas, 4, 7);

  WalkerPoolOptions pool = sequential_options(4, 7);
  pool.trace.enabled = true;
  pool.trace.sample_period = 50;
  const auto report = WalkerPool(pool).run(costas);
  ASSERT_EQ(report.walkers.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const auto& walker = report.walkers[i];
    // Identical trajectory despite recording: tracing is RNG-neutral.
    EXPECT_EQ(walker.result.stats.iterations, reference[i].stats.iterations);
    EXPECT_EQ(walker.result.solution, reference[i].solution);
    // Trace counters mirror the result's stats.
    EXPECT_EQ(walker.trace.walker_id, i);
    EXPECT_EQ(walker.trace.solved, walker.result.solved);
    EXPECT_EQ(walker.trace.iterations, walker.result.stats.iterations);
    EXPECT_EQ(walker.trace.resets, walker.result.stats.resets);
    EXPECT_EQ(walker.trace.restarts, walker.result.stats.restarts);
    EXPECT_EQ(walker.trace.best_cost, walker.result.cost);
    EXPECT_DOUBLE_EQ(walker.trace.seconds, walker.result.stats.seconds);
    // Cost-over-time series: starts at iteration 0, ends at the final
    // iteration, sampled in non-decreasing order.
    ASSERT_GE(walker.trace.cost_samples.size(), 2u);
    EXPECT_EQ(walker.trace.cost_samples.front().iteration, 0u);
    EXPECT_EQ(walker.trace.cost_samples.back().iteration,
              walker.trace.iterations);
    EXPECT_EQ(walker.trace.cost_samples.back().cost, walker.result.cost);
    for (std::size_t s = 1; s < walker.trace.cost_samples.size(); ++s) {
      EXPECT_LE(walker.trace.cost_samples[s - 1].iteration,
                walker.trace.cost_samples[s].iteration);
    }
  }
}

TEST(WalkerPoolEquivalence, EmulatedRaceMatchesRaceReplayOfSequentialWalks) {
  problems::Costas costas(10);
  const auto legacy = resolve_emulated_race(
      WalkerPool(sequential_options(6, 11)).run(costas).walkers);

  WalkerPoolOptions pool = sequential_options(6, 11);
  pool.scheduling = Scheduling::kEmulatedRace;
  pool.termination = Termination::kFirstFinisher;
  const auto emulated = WalkerPool(pool).run(costas);

  ASSERT_EQ(emulated.solved, legacy.solved);
  EXPECT_EQ(emulated.winner, legacy.winner);
  EXPECT_EQ(emulated.best.stats.iterations, legacy.best.stats.iterations);
  EXPECT_EQ(emulated.best.solution, legacy.best.solution);
  EXPECT_EQ(emulated.total_iterations(), legacy.total_iterations());
}

TEST(WalkerPool, ThreadedIndependentRaceSolves) {
  problems::Costas costas(10);
  WalkerPoolOptions pool;
  pool.num_walkers = 4;
  pool.master_seed = 1;
  pool.scheduling = Scheduling::kThreads;
  pool.termination = Termination::kFirstFinisher;
  const auto report = WalkerPool(pool).run(costas);
  ASSERT_TRUE(report.solved);
  ASSERT_TRUE(report.has_winner());
  ASSERT_LT(report.winner, 4u);
  EXPECT_TRUE(report.best.solved);
  EXPECT_EQ(report.best.cost, 0);
  EXPECT_TRUE(costas.verify(report.best.solution));
  EXPECT_EQ(report.walkers.size(), 4u);
  EXPECT_GT(report.total_iterations(), 0u);
  EXPECT_GE(report.wall_seconds, report.time_to_solution_seconds);
  EXPECT_EQ(report.elite_accepted, 0u);
}

TEST(WalkerPool, RingEliteExchangeSolves) {
  problems::Costas costas(10);
  WalkerPoolOptions pool;
  pool.num_walkers = 4;
  pool.master_seed = 6;
  pool.scheduling = Scheduling::kThreads;
  pool.termination = Termination::kFirstFinisher;
  pool.communication.neighborhood = Neighborhood::kRing;
  pool.communication.exchange = Exchange::kElite;
  pool.communication.period = 50;
  pool.communication.adopt_probability = 0.5;
  const auto report = WalkerPool(pool).run(costas);
  ASSERT_TRUE(report.solved);
  EXPECT_TRUE(costas.verify(report.best.solution));
}

TEST(WalkerPool, RingEliteIsDeterministicSequentially) {
  // In sequential mode the ring exchanges are fully deterministic: walker i
  // only ever reads slot i-1, which was last written by an *earlier* walker
  // of the same run.  Two runs with the same seed must agree exactly.
  problems::Langford langford(5);  // unsolvable: every walker runs its budget
  core::Params params =
      core::Params::from_hints(langford.tuning(), langford.num_variables());
  params.restart_limit = 2'000;
  params.max_restarts = 1;

  WalkerPoolOptions pool = sequential_options(4, 13);
  pool.params = params;
  pool.communication.neighborhood = Neighborhood::kRing;
  pool.communication.exchange = Exchange::kElite;
  pool.communication.period = 100;
  pool.communication.adopt_probability = 0.5;

  const auto a = WalkerPool(pool).run(langford);
  const auto b = WalkerPool(pool).run(langford);
  ASSERT_EQ(a.walkers.size(), b.walkers.size());
  for (std::size_t i = 0; i < a.walkers.size(); ++i) {
    EXPECT_EQ(a.walkers[i].result.stats.iterations,
              b.walkers[i].result.stats.iterations);
    EXPECT_EQ(a.walkers[i].result.cost, b.walkers[i].result.cost);
    EXPECT_EQ(a.walkers[i].result.solution, b.walkers[i].result.solution);
  }
  EXPECT_EQ(a.elite_accepted, b.elite_accepted);
  // Every walker ran >= period iterations, so every ring slot accepted at
  // least its owner's first offer.
  EXPECT_GE(a.elite_accepted, pool.num_walkers);
}

TEST(WalkerPool, EmulatedRaceHonoursBestAfterBudgetTermination) {
  // The termination policy stays orthogonal under emulated scheduling: with
  // kBestAfterBudget the report must match the sequential pool's selection,
  // not first-finisher race replay.
  problems::Costas costas(9);
  WalkerPoolOptions pool = sequential_options(3, 5);
  pool.scheduling = Scheduling::kEmulatedRace;  // termination: kBestAfterBudget
  const auto emulated = WalkerPool(pool).run(costas);
  const auto sequential = WalkerPool(sequential_options(3, 5)).run(costas);
  EXPECT_EQ(emulated.solved, sequential.solved);
  EXPECT_EQ(emulated.winner, sequential.winner);
  EXPECT_EQ(emulated.best.solution, sequential.best.solution);
  EXPECT_DOUBLE_EQ(emulated.time_to_solution_seconds,
                   emulated.wall_seconds);
}

TEST(WalkerPool, BestAfterBudgetReportsLowestCost) {
  problems::Langford langford(5);  // unsolvable
  core::Params params =
      core::Params::from_hints(langford.tuning(), langford.num_variables());
  params.restart_limit = 1'000;
  params.max_restarts = 1;

  WalkerPoolOptions pool = sequential_options(5, 21);
  pool.params = params;
  const auto report = WalkerPool(pool).run(langford);

  EXPECT_FALSE(report.solved);
  EXPECT_EQ(report.winner, kNoWinner);
  EXPECT_FALSE(report.has_winner());
  csp::Cost lowest = csp::kInfiniteCost;
  for (const auto& w : report.walkers) {
    lowest = std::min(lowest, w.result.cost);
    EXPECT_FALSE(w.result.interrupted);  // nobody raced anybody
  }
  EXPECT_EQ(report.best.cost, lowest);
}

TEST(WalkerPool, ThreadedBestAfterBudgetRunsEveryWalkerToCompletion) {
  problems::Costas costas(9);
  WalkerPoolOptions pool;
  pool.num_walkers = 4;
  pool.master_seed = 3;
  pool.scheduling = Scheduling::kThreads;
  pool.termination = Termination::kBestAfterBudget;
  const auto report = WalkerPool(pool).run(costas);
  ASSERT_TRUE(report.solved);
  ASSERT_TRUE(report.has_winner());
  EXPECT_TRUE(costas.verify(report.best.solution));
  for (const auto& w : report.walkers) {
    // No stop flag in this regime: every walker finishes its own budget.
    EXPECT_FALSE(w.result.interrupted);
    EXPECT_TRUE(w.result.solved);
  }
}

// --- Fixed-seed identity of the legacy topologies under the new API -----

/// Reference implementation of the PR-1 communication wiring: per-walker
/// elite slots (one shared slot for the shared topology), keep-best publish
/// every `period` iterations, single-source adopt-if-better on reset after
/// one chance(p) draw — exactly the hooks walker_pool.cpp hard-wired before
/// the Neighborhood/ExchangeStrategy split.  Walkers run sequentially, so
/// the pool's kSequential mode must reproduce these results byte-for-byte.
std::vector<core::Result> reference_elite_walks(
    const csp::Problem& prototype, std::size_t num_walkers,
    std::uint64_t master_seed, const std::optional<core::Params>& params,
    std::uint64_t period, double adopt_probability, bool shared) {
  const core::Params resolved =
      params.has_value() ? *params
                         : core::Params::from_hints(prototype.tuning(),
                                                    prototype.num_variables());
  const core::AdaptiveSearch engine(resolved);
  const util::RngStreamFactory streams(master_seed);
  std::vector<std::unique_ptr<ElitePool>> slots;
  const std::size_t count = shared ? 1 : num_walkers;
  for (std::size_t i = 0; i < count; ++i) {
    slots.push_back(std::make_unique<ElitePool>());
  }
  std::vector<core::Result> results;
  results.reserve(num_walkers);
  for (std::size_t id = 0; id < num_walkers; ++id) {
    auto problem = prototype.clone();
    util::Xoshiro256 rng = streams.stream(id);
    ElitePool* publish = shared ? slots.front().get() : slots[id].get();
    ElitePool* adopt =
        shared ? slots.front().get()
               : slots[(id + num_walkers - 1) % num_walkers].get();
    core::Hooks hooks;
    hooks.observer_period = period;
    hooks.observer = [publish](std::uint64_t, csp::Cost cost,
                               std::span<const int> values) {
      publish->offer(0, cost, values);
    };
    hooks.on_reset = [adopt, p = adopt_probability](csp::Problem& p_,
                                                    util::Xoshiro256& r) {
      if (!r.chance(p)) return false;
      std::vector<int> elite;
      const csp::Cost cost = adopt->take_if_better(0, p_.total_cost(), elite);
      if (cost == csp::kInfiniteCost) return false;
      p_.assign(elite);
      return true;
    };
    results.push_back(engine.solve(*problem, rng, core::StopToken{}, hooks));
  }
  return results;
}

/// Communication actually fires on this configuration (unsolvable instance,
/// small budget, frequent exchange), so identity here pins the exchange
/// wiring, not just the no-op path.
WalkerPoolOptions exchanging_options(Neighborhood neighborhood,
                                     Exchange exchange) {
  problems::Langford langford(5);
  core::Params params =
      core::Params::from_hints(langford.tuning(), langford.num_variables());
  params.restart_limit = 2'000;
  params.max_restarts = 1;

  WalkerPoolOptions pool = sequential_options(4, 13);
  pool.params = params;
  pool.communication.neighborhood = neighborhood;
  pool.communication.exchange = exchange;
  pool.communication.period = 100;
  pool.communication.adopt_probability = 0.5;
  return pool;
}

void expect_matches_reference(const MultiWalkReport& report,
                              const std::vector<core::Result>& reference) {
  ASSERT_EQ(report.walkers.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(report.walkers[i].result.solved, reference[i].solved)
        << "walker " << i;
    EXPECT_EQ(report.walkers[i].result.cost, reference[i].cost)
        << "walker " << i;
    EXPECT_EQ(report.walkers[i].result.solution, reference[i].solution)
        << "walker " << i;
    EXPECT_EQ(report.walkers[i].result.stats.iterations,
              reference[i].stats.iterations)
        << "walker " << i;
    EXPECT_EQ(report.walkers[i].result.stats.resets,
              reference[i].stats.resets)
        << "walker " << i;
  }
}

TEST(WalkerPoolEquivalence, SharedEliteViaNewApiReproducesPr1Trajectories) {
  problems::Langford langford(5);
  const WalkerPoolOptions pool =
      exchanging_options(Neighborhood::kComplete, Exchange::kElite);
  const auto reference = reference_elite_walks(
      langford, pool.num_walkers, pool.master_seed, pool.params,
      pool.communication.period, pool.communication.adopt_probability,
      /*shared=*/true);
  expect_matches_reference(WalkerPool(pool).run(langford), reference);
}

TEST(WalkerPoolEquivalence, RingEliteViaNewApiReproducesPr1Trajectories) {
  problems::Langford langford(5);
  const WalkerPoolOptions pool =
      exchanging_options(Neighborhood::kRing, Exchange::kElite);
  const auto reference = reference_elite_walks(
      langford, pool.num_walkers, pool.master_seed, pool.params,
      pool.communication.period, pool.communication.adopt_probability,
      /*shared=*/false);
  expect_matches_reference(WalkerPool(pool).run(langford), reference);
}

// --- The new neighbourhoods and exchange strategies ---------------------

TEST(WalkerPool, MigrationOnTorusSolvesThreaded) {
  problems::Costas costas(10);
  WalkerPoolOptions pool;
  pool.num_walkers = 4;
  pool.master_seed = 8;
  pool.scheduling = Scheduling::kThreads;
  pool.termination = Termination::kFirstFinisher;
  pool.communication.neighborhood = Neighborhood::kTorus;
  pool.communication.exchange = Exchange::kMigration;
  // Publish every iteration: walker 2 solves this seed at iteration 11, so
  // with a longer period the race could end before anyone published,
  // depending only on how the threads happened to start.
  pool.communication.period = 1;
  pool.communication.adopt_probability = 0.5;
  const auto report = WalkerPool(pool).run(costas);
  ASSERT_TRUE(report.solved);
  EXPECT_TRUE(costas.verify(report.best.solution));
  // Migration publishes unconditionally, but an overwrite that cannot be
  // refused is not an "accepted" offer — the counters stay apart.
  EXPECT_GT(report.comm_publishes, 0u);
  EXPECT_EQ(report.elite_accepted, 0u);
}

TEST(WalkerPool, DecayEliteOnHypercubeIsDeterministicSequentially) {
  problems::Langford langford(5);  // unsolvable: every walker runs its budget
  WalkerPoolOptions pool =
      exchanging_options(Neighborhood::kHypercube, Exchange::kDecayElite);
  pool.communication.decay = 6;
  const auto a = WalkerPool(pool).run(langford);
  const auto b = WalkerPool(pool).run(langford);
  ASSERT_EQ(a.walkers.size(), b.walkers.size());
  for (std::size_t i = 0; i < a.walkers.size(); ++i) {
    EXPECT_EQ(a.walkers[i].result.stats.iterations,
              b.walkers[i].result.stats.iterations);
    EXPECT_EQ(a.walkers[i].result.cost, b.walkers[i].result.cost);
    EXPECT_EQ(a.walkers[i].result.solution, b.walkers[i].result.solution);
  }
  EXPECT_EQ(a.elite_accepted, b.elite_accepted);
}

TEST(WalkerPool, MigrationIsDeterministicSequentially) {
  problems::Langford langford(5);
  const WalkerPoolOptions pool =
      exchanging_options(Neighborhood::kTorus, Exchange::kMigration);
  const auto a = WalkerPool(pool).run(langford);
  const auto b = WalkerPool(pool).run(langford);
  ASSERT_EQ(a.walkers.size(), b.walkers.size());
  for (std::size_t i = 0; i < a.walkers.size(); ++i) {
    EXPECT_EQ(a.walkers[i].result.stats.iterations,
              b.walkers[i].result.stats.iterations);
    EXPECT_EQ(a.walkers[i].result.solution, b.walkers[i].result.solution);
  }
}

// --- Option validation --------------------------------------------------

TEST(WalkerPoolValidation, DegenerateOptionsAreRejectedUpFront) {
  problems::Costas costas(8);
  const auto expect_rejected = [&costas](WalkerPoolOptions pool,
                                         const char* what) {
    try {
      (void)WalkerPool(std::move(pool)).run(costas);
      FAIL() << "accepted: " << what;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  };

  WalkerPoolOptions zero_walkers;
  zero_walkers.num_walkers = 0;
  expect_rejected(zero_walkers, "num_walkers");

  WalkerPoolOptions zero_period;
  zero_period.communication.neighborhood = Neighborhood::kRing;
  zero_period.communication.exchange = Exchange::kElite;
  zero_period.communication.period = 0;
  expect_rejected(zero_period, "period");

  WalkerPoolOptions bad_adopt;
  bad_adopt.communication.neighborhood = Neighborhood::kRing;
  bad_adopt.communication.exchange = Exchange::kElite;
  bad_adopt.communication.adopt_probability = 1.5;
  expect_rejected(bad_adopt, "adopt_probability");

  WalkerPoolOptions isolated_exchange;
  isolated_exchange.communication.exchange = Exchange::kElite;
  expect_rejected(isolated_exchange, "isolated");

  WalkerPoolOptions decayless;
  decayless.communication.neighborhood = Neighborhood::kRing;
  decayless.communication.exchange = Exchange::kDecayElite;
  expect_rejected(decayless, "decay");

  WalkerPoolOptions elite_with_decay;
  elite_with_decay.communication.neighborhood = Neighborhood::kRing;
  elite_with_decay.communication.exchange = Exchange::kElite;
  elite_with_decay.communication.decay = 5;
  expect_rejected(elite_with_decay, "decay");
}

TEST(WalkerPoolValidation, IgnoredKnobsStayIgnoredWithoutExchange) {
  // The independent scheme historically ran with arbitrary knob values
  // (benches pass period 0); without an exchanging strategy they must keep
  // not mattering.
  problems::Costas costas(9);
  WalkerPoolOptions pool = sequential_options(2, 4);
  pool.communication.period = 0;
  pool.communication.adopt_probability = -3.0;
  const auto report = WalkerPool(pool).run(costas);
  EXPECT_EQ(report.walkers.size(), 2u);
  EXPECT_EQ(report.elite_accepted, 0u);
}

TEST(WalkerPool, CollapsedThreadedSchedulerShortCircuitsOnExpiredDeadline) {
  // Regression: kThreads collapsed to one OS thread (max_threads = 1) used
  // to run every remaining walker to a first poll even when the external
  // token had already fired — paying a full clone + initial cost evaluation
  // per walker.  It must short-circuit between walkers exactly like the
  // sequential scheduler: not-yet-started walkers report interrupted with
  // zero iterations and the right cause.
  problems::Costas costas(10);
  WalkerPoolOptions pool;
  pool.num_walkers = 4;
  pool.master_seed = 2;
  pool.scheduling = Scheduling::kThreads;
  pool.max_threads = 1;
  pool.termination = Termination::kBestAfterBudget;

  const auto expired = core::StopToken::with_deadline(
      core::StopToken::Clock::now() - std::chrono::milliseconds(10));
  const auto report = WalkerPool(pool).run(costas, expired);

  EXPECT_TRUE(report.interrupted);
  EXPECT_EQ(report.interrupt_cause, core::StopCause::kDeadline);
  ASSERT_EQ(report.walkers.size(), 4u);
  for (const auto& w : report.walkers) {
    EXPECT_TRUE(w.result.interrupted);
    EXPECT_EQ(w.result.stop_cause, core::StopCause::kDeadline);
    EXPECT_EQ(w.result.stats.iterations, 0u);  // never started walking
  }
}

TEST(WalkerPool, CollapsedThreadedSchedulerShortCircuitsOnCancel) {
  problems::Costas costas(10);
  WalkerPoolOptions pool;
  pool.num_walkers = 3;
  pool.master_seed = 2;
  pool.scheduling = Scheduling::kThreads;
  pool.max_threads = 1;
  pool.termination = Termination::kBestAfterBudget;

  std::atomic<bool> cancel{true};  // cancelled before the pool launches
  const auto report = WalkerPool(pool).run(costas, core::StopToken(&cancel));

  EXPECT_TRUE(report.interrupted);
  EXPECT_EQ(report.interrupt_cause, core::StopCause::kCancel);
  for (const auto& w : report.walkers) {
    EXPECT_TRUE(w.result.interrupted);
    EXPECT_EQ(w.result.stop_cause, core::StopCause::kCancel);
    EXPECT_EQ(w.result.stats.iterations, 0u);
  }
}

TEST(WalkerPool, CollapsedThreadedRaceShortCircuitsAfterInternalWinner) {
  // Same short-circuit for the pool's *own* completion flag: once a walker
  // of the collapsed (one-thread) race has won, the remaining walkers
  // would only run to their first poll and report kChained — they must be
  // marked so without paying a clone + initial cost evaluation each.
  problems::Costas costas(10);
  WalkerPoolOptions pool;
  pool.num_walkers = 4;
  pool.master_seed = 1;
  pool.scheduling = Scheduling::kThreads;
  pool.max_threads = 1;
  pool.termination = Termination::kFirstFinisher;
  const auto report = WalkerPool(pool).run(costas);

  ASSERT_TRUE(report.solved);
  ASSERT_TRUE(report.has_winner());
  EXPECT_FALSE(report.interrupted);  // an internal win is not an interrupt
  EXPECT_EQ(report.interrupt_cause, core::StopCause::kNone);
  for (const auto& w : report.walkers) {
    if (w.walker_id <= report.winner) continue;
    EXPECT_TRUE(w.result.interrupted);
    EXPECT_EQ(w.result.stop_cause, core::StopCause::kChained);
    EXPECT_EQ(w.result.stats.iterations, 0u);
  }
}

TEST(WalkerPool, SchedulingModesShareWalkerTrajectories) {
  // The sequential pool, the threaded race's stream assignment and the
  // emulated race all draw walker i from stream i of the master seed; the
  // emulated winner's trajectory therefore appears verbatim among the
  // sequential walkers.
  problems::Costas costas(9);
  const auto sequential = WalkerPool(sequential_options(3, 77)).run(costas);

  WalkerPoolOptions emulated_options = sequential_options(3, 77);
  emulated_options.scheduling = Scheduling::kEmulatedRace;
  emulated_options.termination = Termination::kFirstFinisher;
  const auto emulated = WalkerPool(emulated_options).run(costas);

  ASSERT_TRUE(emulated.solved);
  ASSERT_LT(emulated.winner, sequential.walkers.size());
  const auto& winner_seq = sequential.walkers[emulated.winner].result;
  EXPECT_EQ(emulated.best.stats.iterations, winner_seq.stats.iterations);
  EXPECT_EQ(emulated.best.solution, winner_seq.solution);
}

// --- The parked helper team under threaded runs ---------------------------

/// Hardware thread count as the helper team reads it (2 when unknown): the
/// most helpers the team keeps parked between runs.
std::size_t hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 2 : hw;
}

/// Threads of this process, from /proc/self/task.
std::size_t live_threads() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(std::distance(
      std::filesystem::begin(tasks), std::filesystem::end(tasks)));
}

TEST(WalkerPoolTeam, BackToBackThreadedRunsReuseHelperThreads) {
  if (hardware_threads() < 2) {
    GTEST_SKIP() << "one hardware thread: the team parks a single helper, "
                    "so a 2-thread run starts its second one every time";
  }
  problems::Costas costas(8);
  std::mutex m;
  std::set<pid_t> walker_threads;
  WalkerPoolOptions pool;
  pool.num_walkers = 2;
  pool.scheduling = Scheduling::kThreads;
  pool.termination = Termination::kFirstFinisher;
  pool.sample_sink_period = std::uint64_t{1} << 62;  // iteration 0 only
  pool.sample_sink = [&](std::size_t, std::uint64_t iteration, csp::Cost) {
    if (iteration != 0) return;
    const pid_t tid = ::gettid();
    const std::lock_guard<std::mutex> lock(m);
    walker_threads.insert(tid);
  };
  constexpr std::size_t kRuns = 50;
  for (std::size_t run = 0; run < kRuns; ++run) {
    pool.master_seed = run;
    ASSERT_TRUE(WalkerPool(pool).run(costas).solved) << "run " << run;
  }
  // A thread per walker per run shows up to 2 * kRuns ids.  The team wakes
  // parked helpers first and parks at most hardware_threads() of them, so
  // the walkers of every run come from that set plus the run's own starts.
  EXPECT_LE(walker_threads.size(), hardware_threads() + 2);
}

TEST(WalkerPoolTeam, ConcurrentThreadedRacesEachHaveOneWinner) {
  constexpr std::size_t kClients = 8;
  constexpr std::size_t kRacesPerClient = 10;
  constexpr std::size_t kWalkers = 3;
  std::vector<std::vector<MultiWalkReport>> reports(kClients);
  {
    std::vector<std::jthread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([c, &reports] {
        const problems::Costas costas(10);
        for (std::size_t r = 0; r < kRacesPerClient; ++r) {
          WalkerPoolOptions pool;
          pool.num_walkers = kWalkers;
          pool.master_seed = 1000 * c + r;
          pool.scheduling = Scheduling::kThreads;
          pool.termination = Termination::kFirstFinisher;
          reports[c].push_back(WalkerPool(pool).run(costas));
        }
      });
    }
  }
  const problems::Costas costas(10);
  for (std::size_t c = 0; c < kClients; ++c) {
    ASSERT_EQ(reports[c].size(), kRacesPerClient);
    for (const MultiWalkReport& report : reports[c]) {
      ASSERT_TRUE(report.solved);
      ASSERT_LT(report.winner, kWalkers);
      ASSERT_EQ(report.walkers.size(), kWalkers);
      const core::Result& winner = report.walkers[report.winner].result;
      EXPECT_TRUE(winner.solved);
      EXPECT_FALSE(winner.interrupted);
      EXPECT_TRUE(costas.verify(report.best.solution));
      EXPECT_FALSE(report.interrupted);
      for (const WalkerOutcome& w : report.walkers) {
        EXPECT_TRUE(w.result.solved || w.result.interrupted)
            << "client " << c << " walker " << w.walker_id;
      }
    }
  }
}

TEST(WalkerPoolTeam, WideRunLeavesAtMostHardwareThreadsParked) {
  const std::size_t before = live_threads();
  problems::Costas costas(8);
  WalkerPoolOptions pool;
  pool.num_walkers = 32;
  pool.master_seed = 5;
  pool.scheduling = Scheduling::kThreads;
  pool.termination = Termination::kFirstFinisher;
  const auto report = WalkerPool(pool).run(costas);
  ASSERT_TRUE(report.solved);
  ASSERT_EQ(report.walkers.size(), 32u);
  // Helpers beyond the parked ones were joined before run() returned; a
  // joined thread can stay listed for a moment while the kernel reaps it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (live_threads() > before + hardware_threads() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_LE(live_threads(), before + hardware_threads());
}

}  // namespace
}  // namespace cspls::parallel
