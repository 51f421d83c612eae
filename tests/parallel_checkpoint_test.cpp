// parallel::PoolCheckpoint: cooperative preemption of a whole WalkerPool
// run, byte-identical resume under every scheduling mode (independent and
// communicating populations), the strict versioned JSON schema, and the
// checkpoint_capture fault site degrading a torn capture to a plain
// interrupt with no checkpoint.
#include "parallel/checkpoint.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/params.hpp"
#include "parallel/walker_pool.hpp"
#include "problems/costas.hpp"
#include "problems/langford.hpp"
#include "util/fault.hpp"

namespace cspls::parallel {
namespace {

/// A fixed, never-solving workload: Langford n=5 has no solution, so with
/// a hard iteration budget every walker runs exactly `restart_limit`
/// iterations — the preempt trip point is always genuinely mid-run and the
/// reference report is deterministic under every scheduling mode.
/// The complete neighbourhood with the elite exchange, default knobs.
CommunicationPolicy shared_elite() {
  CommunicationPolicy policy;
  policy.neighborhood = Neighborhood::kComplete;
  policy.exchange = Exchange::kElite;
  return policy;
}

WalkerPoolOptions base_options(Scheduling scheduling, std::size_t num_walkers,
                               std::uint64_t master_seed) {
  WalkerPoolOptions options;
  options.num_walkers = num_walkers;
  options.master_seed = master_seed;
  options.scheduling = scheduling;
  options.termination = Termination::kBestAfterBudget;
  core::Params params = core::Params::from_hints(
      problems::Langford(5).tuning(), problems::Langford(5).num_variables());
  params.restart_limit = 1'500;
  params.max_restarts = 1;  // one full restart, so restart state resumes too
  options.params = params;
  return options;
}

/// Run the pool with a preempt flag that a walker trips at ~`preempt_at`
/// iterations, collecting the assembled PoolCheckpoint (when capture
/// succeeded) and the interrupted report.
std::optional<PoolCheckpoint> preempt_run(const csp::Problem& prototype,
                                          WalkerPoolOptions options,
                                          std::uint64_t preempt_at,
                                          MultiWalkReport* report_out =
                                              nullptr) {
  std::atomic<bool> preempt{false};
  std::optional<PoolCheckpoint> checkpoint;
  options.preempt = &preempt;
  options.checkpoint_out = &checkpoint;
  options.sample_sink_period = 16;
  options.sample_sink = [&](std::size_t, std::uint64_t iteration, csp::Cost) {
    if (iteration >= preempt_at) {
      preempt.store(true, std::memory_order_relaxed);
    }
  };
  const MultiWalkReport report = WalkerPool(options).run(prototype);
  if (report_out != nullptr) *report_out = report;
  return checkpoint;
}

void expect_same_walker(const WalkerOutcome& a, const WalkerOutcome& b) {
  EXPECT_EQ(a.result.solved, b.result.solved);
  EXPECT_EQ(a.result.cost, b.result.cost);
  EXPECT_EQ(a.result.solution, b.result.solution);
  EXPECT_EQ(a.result.interrupted, b.result.interrupted);
  EXPECT_EQ(a.result.stats.iterations, b.result.stats.iterations);
  EXPECT_EQ(a.result.stats.swaps, b.result.stats.swaps);
  EXPECT_EQ(a.result.stats.plateau_moves, b.result.stats.plateau_moves);
  EXPECT_EQ(a.result.stats.local_minima, b.result.stats.local_minima);
  EXPECT_EQ(a.result.stats.resets, b.result.stats.resets);
  EXPECT_EQ(a.result.stats.restarts, b.result.stats.restarts);
}

/// Byte-identity of everything but the wall-clock timing fields.
void expect_same_report(const MultiWalkReport& resumed,
                        const MultiWalkReport& reference) {
  EXPECT_EQ(resumed.solved, reference.solved);
  EXPECT_EQ(resumed.winner, reference.winner);
  EXPECT_EQ(resumed.best.cost, reference.best.cost);
  EXPECT_EQ(resumed.best.solution, reference.best.solution);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.comm_publishes, reference.comm_publishes);
  EXPECT_EQ(resumed.elite_accepted, reference.elite_accepted);
  EXPECT_EQ(resumed.comm_adoptions, reference.comm_adoptions);
  ASSERT_EQ(resumed.walkers.size(), reference.walkers.size());
  for (std::size_t i = 0; i < resumed.walkers.size(); ++i) {
    expect_same_walker(resumed.walkers[i], reference.walkers[i]);
  }
}

TEST(PoolCheckpoint, ResumeIsByteIdenticalUnderEverySchedulingMode) {
  const problems::Langford langford(5);
  for (const Scheduling scheduling :
       {Scheduling::kSequential, Scheduling::kEmulatedRace,
        Scheduling::kThreads}) {
    const WalkerPoolOptions options = base_options(scheduling, 3, 42);
    const MultiWalkReport reference = WalkerPool(options).run(langford);

    MultiWalkReport interrupted;
    const std::optional<PoolCheckpoint> checkpoint =
        preempt_run(langford, options, 64, &interrupted);
    ASSERT_TRUE(checkpoint.has_value())
        << "scheduling mode " << static_cast<int>(scheduling);
    EXPECT_TRUE(interrupted.interrupted);
    EXPECT_EQ(interrupted.interrupt_cause, core::StopCause::kPreempted);
    ASSERT_EQ(checkpoint->walkers.size(), 3u);

    WalkerPoolOptions resume_options = options;
    resume_options.resume = checkpoint;
    expect_same_report(WalkerPool(resume_options).run(langford), reference);
  }
}

TEST(PoolCheckpoint, ResumeRestoresEliteStateAndCommCounters) {
  const problems::Langford langford(5);
  WalkerPoolOptions options =
      base_options(Scheduling::kSequential, 4, 2024);
  options.communication = shared_elite();
  const MultiWalkReport reference = WalkerPool(options).run(langford);

  const std::optional<PoolCheckpoint> checkpoint =
      preempt_run(langford, options, 128);
  ASSERT_TRUE(checkpoint.has_value());
  EXPECT_FALSE(checkpoint->elite.empty());

  WalkerPoolOptions resume_options = options;
  resume_options.resume = checkpoint;
  expect_same_report(WalkerPool(resume_options).run(langford), reference);
}

TEST(PoolCheckpoint, ResumedEmulatedRaceReachesTheSameWinner) {
  // The one solvable workload here: a first-finisher race whose replayed
  // winner must survive preemption and resume.
  const problems::Costas costas(9);
  WalkerPoolOptions options;
  options.num_walkers = 4;
  options.master_seed = 7;
  options.scheduling = Scheduling::kEmulatedRace;
  options.termination = Termination::kFirstFinisher;
  const MultiWalkReport reference = WalkerPool(options).run(costas);
  ASSERT_TRUE(reference.solved);

  const std::optional<PoolCheckpoint> checkpoint =
      preempt_run(costas, options, 48);
  ASSERT_TRUE(checkpoint.has_value());

  WalkerPoolOptions resume_options = options;
  resume_options.resume = checkpoint;
  const MultiWalkReport resumed = WalkerPool(resume_options).run(costas);
  EXPECT_TRUE(resumed.solved);
  EXPECT_EQ(resumed.winner, reference.winner);
  EXPECT_EQ(resumed.best.solution, reference.best.solution);
  EXPECT_EQ(resumed.total_iterations(), reference.total_iterations());
}

TEST(PoolCheckpoint, JsonRoundTripIsExactAndStrict) {
  const problems::Langford langford(5);
  WalkerPoolOptions options =
      base_options(Scheduling::kSequential, 3, 42);
  options.communication = shared_elite();
  options.trace.enabled = true;
  options.trace.sample_period = 32;
  const std::optional<PoolCheckpoint> checkpoint =
      preempt_run(langford, options, 96);
  ASSERT_TRUE(checkpoint.has_value());

  // Exact round-trip through the serialized text.
  const std::optional<util::Json> reparsed =
      util::Json::parse(checkpoint->to_json().dump(0));
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(PoolCheckpoint::from_json(*reparsed), *checkpoint);

  // Wrong schema tag, unknown member, missing member: each rejects.
  {
    util::Json bad = checkpoint->to_json();
    bad.set("schema", std::string("cspls-pool-checkpoint/999"));
    EXPECT_THROW((void)PoolCheckpoint::from_json(bad), std::invalid_argument);
  }
  {
    util::Json bad = checkpoint->to_json();
    bad.set("surprise", true);
    EXPECT_THROW((void)PoolCheckpoint::from_json(bad), std::invalid_argument);
  }
  {
    const util::Json good = checkpoint->to_json();
    util::Json bad = util::Json::object();
    for (const auto& [key, value] : good.members()) {
      if (key != "walkers") bad.set(key, value);
    }
    EXPECT_THROW((void)PoolCheckpoint::from_json(bad), std::invalid_argument);
  }
}

TEST(PoolCheckpoint, ResumeValidatesWalkerCountAndEliteShape) {
  const problems::Langford langford(5);
  const WalkerPoolOptions options =
      base_options(Scheduling::kSequential, 3, 42);
  const std::optional<PoolCheckpoint> checkpoint =
      preempt_run(langford, options, 64);
  ASSERT_TRUE(checkpoint.has_value());

  WalkerPoolOptions wrong_count = options;
  wrong_count.num_walkers = 4;
  wrong_count.resume = checkpoint;
  EXPECT_THROW((void)WalkerPool(wrong_count).run(langford),
               std::invalid_argument);

  WalkerPoolOptions wrong_elite = options;
  wrong_elite.communication = shared_elite();
  wrong_elite.resume = checkpoint;  // captured with communication off
  EXPECT_THROW((void)WalkerPool(wrong_elite).run(langford),
               std::invalid_argument);
}

TEST(PoolCheckpoint, ResumeRejectsConfigurationsOutsideTheValueSet) {
  // A checkpoint arrives over the wire: a value outside the model's set
  // would index the kernel's tables out of bounds, and a repeated value
  // leaves a state no swap can repair.  Both are refused before any walker
  // runs, wherever they sit in the checkpoint.
  const problems::Langford langford(5);
  WalkerPoolOptions options = base_options(Scheduling::kSequential, 3, 42);
  options.communication = shared_elite();
  const std::optional<PoolCheckpoint> checkpoint =
      preempt_run(langford, options, 128);
  ASSERT_TRUE(checkpoint.has_value());
  ASSERT_EQ(checkpoint->walkers[0].stage, PoolCheckpoint::WalkerStage::kRunning);
  ASSERT_FALSE(checkpoint->elite.empty());

  const auto corrupt = [](std::vector<int>& values, bool out_of_range) {
    if (out_of_range) {
      values[0] = 100'000'000;
    } else {
      values[0] = values[1];
    }
  };
  for (const bool out_of_range : {true, false}) {
    std::vector<PoolCheckpoint> hostile(3, *checkpoint);
    corrupt(hostile[0].walkers[0].checkpoint.values, out_of_range);
    corrupt(hostile[1].walkers[0].checkpoint.best, out_of_range);
    PoolCheckpoint::EliteSlot& slot = hostile[2].elite[0];
    slot.has_entry = true;
    slot.values = checkpoint->walkers[0].checkpoint.values;
    corrupt(slot.values, out_of_range);
    for (const PoolCheckpoint& bad : hostile) {
      WalkerPoolOptions resume = options;
      resume.resume = bad;
      EXPECT_THROW(validate_configurations(langford, resume),
                   std::invalid_argument);
      EXPECT_THROW((void)WalkerPool(resume).run(langford),
                   std::invalid_argument);
    }
  }

  WalkerPoolOptions intact = options;
  intact.resume = checkpoint;
  EXPECT_NO_THROW(validate_configurations(langford, intact));
}

TEST(PoolCheckpoint, CancellationOutranksPreemptionAndCapturesNothing) {
  const problems::Langford langford(5);
  WalkerPoolOptions options =
      base_options(Scheduling::kSequential, 3, 42);
  std::atomic<bool> preempt{false};
  std::atomic<bool> cancel{false};
  std::optional<PoolCheckpoint> checkpoint;
  options.preempt = &preempt;
  options.checkpoint_out = &checkpoint;
  options.sample_sink_period = 16;
  options.sample_sink = [&](std::size_t, std::uint64_t iteration, csp::Cost) {
    if (iteration >= 64) {
      preempt.store(true, std::memory_order_relaxed);
      cancel.store(true, std::memory_order_relaxed);
    }
  };
  const MultiWalkReport report =
      WalkerPool(options).run(langford, core::StopToken(&cancel));
  EXPECT_TRUE(report.interrupted);
  EXPECT_EQ(report.interrupt_cause, core::StopCause::kCancel);
  EXPECT_FALSE(checkpoint.has_value());
}

/// The checkpoint_capture fault site: a corrupt capture (torn state) and a
/// thrown capture both degrade the preemption to a plain interrupt — the
/// report still says kPreempted but no checkpoint is handed out, so
/// callers fall back to cancel+requeue instead of resuming torn state.
void expect_capture_fault_degrades(util::fault::Kind kind) {
  const problems::Langford langford(5);
  WalkerPoolOptions options =
      base_options(Scheduling::kSequential, 3, 42);
  util::fault::FaultPlan plan;
  plan.site = util::fault::Site::kCheckpointCapture;
  plan.walker = 0;
  plan.at_count = 1;
  plan.kind = kind;
  options.faults = {plan};

  MultiWalkReport report;
  const std::optional<PoolCheckpoint> checkpoint =
      preempt_run(langford, options, 64, &report);
  EXPECT_FALSE(checkpoint.has_value());
  EXPECT_TRUE(report.interrupted);
  EXPECT_EQ(report.interrupt_cause, core::StopCause::kPreempted);
}

TEST(PoolCheckpoint, CorruptCaptureFaultDegradesToNoCheckpoint) {
  if (!util::fault::kCompiledIn) {
    GTEST_SKIP() << "build without CSPLS_FAULT_INJECTION";
  }
  expect_capture_fault_degrades(util::fault::Kind::kCorrupt);
}

TEST(PoolCheckpoint, ThrowingCaptureFaultDegradesToNoCheckpoint) {
  if (!util::fault::kCompiledIn) {
    GTEST_SKIP() << "build without CSPLS_FAULT_INJECTION";
  }
  expect_capture_fault_degrades(util::fault::Kind::kThrow);
}

}  // namespace
}  // namespace cspls::parallel
