// core::StopToken semantics and the engine/pool deadline plumbing: empty
// tokens are inert (byte-identical runs), cancel flags and deadlines
// interrupt walks, and the legacy atomic* overload is a pure wrapper.
#include "core/stop_token.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>

#include "core/adaptive_search.hpp"
#include "problems/costas.hpp"
#include "problems/langford.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace cspls::core {
namespace {

using std::chrono::milliseconds;

TEST(StopToken, DefaultTokenNeverFires) {
  const StopToken token;
  EXPECT_FALSE(token.can_stop());
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.has_deadline());
  EXPECT_FALSE(token.deadline_expired());
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(token.stop_requested());
}

TEST(StopToken, CancelFlagFiresImmediately) {
  std::atomic<bool> flag{false};
  const StopToken token(&flag);
  EXPECT_TRUE(token.can_stop());
  EXPECT_FALSE(token.stop_requested());
  flag.store(true);
  EXPECT_TRUE(token.stop_requested());
  EXPECT_TRUE(token.cancelled());
}

TEST(StopToken, ChainedFlagsBothFire) {
  std::atomic<bool> first{false};
  std::atomic<bool> second{false};
  const StopToken token = StopToken(&first).also_cancelled_by(&second);
  EXPECT_FALSE(token.stop_requested());
  second.store(true);
  EXPECT_TRUE(token.stop_requested());
  second.store(false);
  first.store(true);
  EXPECT_TRUE(token.stop_requested());
}

TEST(StopToken, ExpiredDeadlineFiresOnFirstPoll) {
  const StopToken token =
      StopToken::with_deadline(StopToken::Clock::now() - milliseconds(1));
  EXPECT_TRUE(token.has_deadline());
  EXPECT_TRUE(token.deadline_expired());
  EXPECT_TRUE(token.stop_requested());
}

TEST(StopToken, FutureDeadlineFiresWithinTheStride) {
  const StopToken token = StopToken::after(milliseconds(20));
  EXPECT_FALSE(token.deadline_expired());
  // Poll until it fires; the clock is consulted at least every
  // kDeadlinePollStride polls, so once the deadline passes the token fires
  // within one stride of polls.
  util::Stopwatch watch;
  bool fired = false;
  while (watch.elapsed_seconds() < 5.0) {
    if (token.stop_requested()) {
      fired = true;
      break;
    }
  }
  EXPECT_TRUE(fired);
  EXPECT_TRUE(token.deadline_expired());
}

TEST(StopTokenEngine, EmptyTokenMatchesNullFlagToken) {
  problems::Costas costas(9);
  const AdaptiveSearch engine = AdaptiveSearch::with_defaults(costas);

  auto a = costas.clone();
  util::Xoshiro256 rng_a(123);
  const Result legacy = engine.solve(*a, rng_a, StopToken(nullptr));

  auto b = costas.clone();
  util::Xoshiro256 rng_b(123);
  const Result tokened = engine.solve(*b, rng_b, StopToken{});

  EXPECT_EQ(tokened.solved, legacy.solved);
  EXPECT_EQ(tokened.cost, legacy.cost);
  EXPECT_EQ(tokened.solution, legacy.solution);
  EXPECT_EQ(tokened.stats.iterations, legacy.stats.iterations);
  EXPECT_EQ(tokened.stats.swaps, legacy.stats.swaps);
  EXPECT_EQ(tokened.stats.resets, legacy.stats.resets);
  EXPECT_EQ(tokened.stats.cost_evaluations, legacy.stats.cost_evaluations);
}

TEST(StopTokenEngine, DeadlineInterruptsAnUnsolvableWalk) {
  problems::Langford langford(5);  // unsolvable: would run its full budget
  Params params =
      Params::from_hints(langford.tuning(), langford.num_variables());
  params.restart_limit = 100'000'000;  // hours without the deadline
  params.max_restarts = 0;
  const AdaptiveSearch engine(params);

  util::Xoshiro256 rng(7);
  util::Stopwatch watch;
  const Result result =
      engine.solve(langford, rng, StopToken::after(milliseconds(50)));
  EXPECT_TRUE(result.interrupted);
  EXPECT_FALSE(result.solved);
  EXPECT_GT(result.stats.iterations, 0u);
  EXPECT_GT(result.stats.seconds, 0.0);
  // Generous bound: the deadline cut the walk far before its budget.
  EXPECT_LT(watch.elapsed_seconds(), 30.0);
}

TEST(StopTokenEngine, AlreadyExpiredDeadlineStopsBeforeIterating) {
  problems::Langford langford(5);
  const AdaptiveSearch engine = AdaptiveSearch::with_defaults(langford);
  util::Xoshiro256 rng(7);
  const Result result = engine.solve(
      langford, rng,
      StopToken::with_deadline(StopToken::Clock::now() - milliseconds(1)));
  EXPECT_TRUE(result.interrupted);
  EXPECT_EQ(result.stats.iterations, 0u);
}

}  // namespace
}  // namespace cspls::core
