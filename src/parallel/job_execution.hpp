// JobExecution — the per-job half of the parallel runtime, factored out of
// WalkerPool::run: everything one run needs — engine, RNG stream factory,
// communication channels, fault schedule, the report under construction and
// the shared race state — behind the two execution primitives the pool's
// schedulers are built from:
//
//   * run_walker(id)            body of walker `id`; thread-safe across
//                               distinct ids (walkers share nothing but the
//                               race flag), so under Scheduling::kThreads
//                               the pool's wave scheduler — a ticket
//                               dispenser over preferred_threads() helpers
//                               of its parked, process-wide thread team —
//                               runs them concurrently;
//   * run_walkers_one_by_one()  the strictly-ordered path (sequential /
//                               emulated scheduling and the collapsed
//                               threaded pool), with the between-walker
//                               external/race short-circuits.
//
// finalize() then applies the termination policy and returns the
// MultiWalkReport.  For a fixed master seed every walker's trajectory
// depends only on (options, prototype, stream id), never on which thread
// ran it.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/adaptive_search.hpp"
#include "core/checkpoint.hpp"
#include "core/stop_token.hpp"
#include "parallel/checkpoint.hpp"
#include "parallel/walker_pool.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace cspls::parallel::detail {

class JobExecution {
 public:
  /// Validates `options` (validate_options + validate_configurations) and
  /// preallocates every per-run structure; throws std::invalid_argument
  /// before any walker work on a degenerate configuration.  `prototype` and
  /// `options` are borrowed and must outlive the execution.
  JobExecution(const csp::Problem& prototype, const WalkerPoolOptions& options,
               core::StopToken external);

  JobExecution(const JobExecution&) = delete;
  JobExecution& operator=(const JobExecution&) = delete;

  [[nodiscard]] std::size_t num_walkers() const noexcept { return k_; }

  /// Thread count the pool uses: under Scheduling::kThreads the walker
  /// count clamped by max_threads and a hardware-derived ceiling; 1 for the
  /// ordered modes and when the threaded pool collapses to the ordered
  /// path.
  [[nodiscard]] std::size_t preferred_threads() const noexcept;

  /// Body of walker `id`: clone, stream(id), hooks, solve, crash
  /// containment.  Callable concurrently for distinct ids.
  void run_walker(std::size_t id);

  /// Ordered execution with the external/race between-walker short-circuits
  /// (not-yet-started walkers are marked interrupted instead of paying a
  /// clone + initial evaluation).
  void run_walkers_one_by_one();

  /// Apply the termination policy and hand over the report.  Call exactly
  /// once, after every walker task has returned.
  [[nodiscard]] MultiWalkReport finalize();

 private:
  /// Cause latches + first-finisher CAS, shared by live runs and checkpoint
  /// replays of already-finished walkers.
  void note_completion(std::size_t id, const core::Result& result);

  /// Assemble the PoolCheckpoint after a preempted run (finalize helper;
  /// `report` is the finalized report whose walker outcomes become the
  /// kDone entries).  Returns false — and leaves *options_.checkpoint_out
  /// empty — when any started walker was preempted without a valid
  /// checkpoint (torn or failed capture) or walkers observed mixed
  /// external interruptions: the whole preemption then degrades to a plain
  /// interrupt, which callers treat as a cancel.
  bool assemble_checkpoint(const MultiWalkReport& report);

  const csp::Problem& prototype_;
  const WalkerPoolOptions& options_;
  const core::StopToken external_;
  const std::size_t k_;
  const core::AdaptiveSearch engine_;
  const util::RngStreamFactory streams_;
  CommChannels comm_;
  const util::fault::Schedule fault_schedule_;
  const bool threaded_;
  const bool race_;

  // The *only* shared state among racing walkers: the completion flag, the
  // winner slot and the time-to-solution stamp.
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> winner_{kNoWinner};
  std::atomic<std::uint64_t> solution_time_us_{0};
  // Walkers stopped by the *external* token latch their cause here (the
  // engine records which source its poll observed, so a race loser cut by
  // the pool's internal completion flag — StopCause::kChained — is never
  // misattributed to a deadline that happened to pass during the joins).
  std::atomic<bool> external_cancel_hit_{false};
  std::atomic<bool> external_deadline_hit_{false};
  std::atomic<bool> preempt_hit_{false};

  // Per-walker preemption state.  Each slot is written only by the thread
  // running that walker (like report_.walkers) and read in finalize(),
  // after every walker task has been joined.
  std::vector<std::optional<core::Checkpoint>> walker_checkpoints_;
  std::vector<char> walker_started_;

  MultiWalkReport report_;
  util::Stopwatch watch_;
};

}  // namespace cspls::parallel::detail
