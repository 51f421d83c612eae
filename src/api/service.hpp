// Asynchronous solve service: submit(SolveRequest) -> JobHandle, with
// wait() / status() / cancel(), FIFO admission and a bounded global thread
// budget shared by every concurrent job — the serving story on top of the
// api::Solver façade.
//
// Thread accounting: the budget counts *walker* threads.  A queued job is
// admitted when it reaches the head of the queue and at least one budget
// slot is free; it then leases min(its desired parallelism, free slots)
// and its WalkerPool is capped to that lease (walkers beyond the lease run
// in waves, exactly WalkerPoolOptions::max_threads semantics).  Sequential
// and emulated-race jobs lease one slot.  Leases return to the pool when
// the job finishes, waking the next queued job.
//
// OS threads are bounded by the budget, not the queue depth: submission
// only enqueues; one dispatcher thread admits jobs and spawns a worker per
// *running* job (each holds >= 1 lease, so running jobs <= budget).  A
// client may queue thousands of requests without growing the thread count.
//
// Cancellation: cancel() flips the job's flag.  A queued job finishes
// immediately (kCancelled, empty report); a running job stops within one
// engine polling period and its report carries the best configuration
// reached so far (the anytime contract) with `cancelled` set; a job backing
// off between attempts wakes at once and finishes kCancelled.  Destroying
// the service cancels every outstanding job and joins all workers.  No
// path sleeps on a timer: the dispatcher, backoffs and the stall watchdog
// all wait on condition variables that cancel, suspend, budget returns
// and disarming notify.
//
// Self-healing: an attempt that crashes wholesale (every walker failed, or
// the dispatch path threw) or stalls (no engine heartbeat for the
// request's watchdog_stall_ms) is retried under the request's RetryPolicy
// — exponential backoff with seeded jitter (kRetrying while backing off),
// walkers reseeded from the failed attempt's best configuration, and
// stalled jobs degraded to half the walkers (kDegraded) instead of
// hanging.  A job whose every attempt crashed resolves as kFailed with a
// structured report (JobHandle::report()); it never takes the process
// down.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>

#include "api/solve.hpp"
#include "api/solver.hpp"

namespace cspls::api {

/// Point-in-time view of a SolverService — what a transport's /stats
/// endpoint and a load generator need: the live queue state plus lifetime
/// counters (monotone since construction).
struct ServiceStats {
  std::size_t queued = 0;        ///< jobs admitted to the FIFO, not yet run
  std::size_t running = 0;       ///< jobs currently holding a thread lease
  std::uint64_t submitted = 0;   ///< successful submit() calls
  std::uint64_t completed = 0;   ///< jobs finished kDone
  std::uint64_t cancelled = 0;   ///< jobs finished kCancelled
  std::uint64_t preempted = 0;   ///< jobs finished kPreempted (checkpoint held)
  std::uint64_t failed = 0;      ///< jobs finished kFailed
  std::uint64_t retried = 0;     ///< retry backoffs entered (kRetrying)
  std::uint64_t degraded = 0;    ///< jobs the watchdog degraded at least once
  std::uint64_t fused_batches = 0;  ///< fused launches (>= 2 jobs sharing one
                                    ///< resident team)
  std::uint64_t fused_jobs = 0;  ///< jobs executed inside fused launches
  std::size_t thread_budget = 0;
  std::size_t free_threads = 0;

  /// {"queued":..,"running":..,...} — member order fixed, so the encoding
  /// is deterministic for a given snapshot.
  [[nodiscard]] util::Json to_json() const;

  [[nodiscard]] bool operator==(const ServiceStats&) const = default;
};

enum class JobStatus {
  kQueued,     ///< admitted to the FIFO, waiting for budget
  kRunning,    ///< leased threads, walkers executing
  kRetrying,   ///< a crashed/stalled attempt is backing off before a rerun
  kDegraded,   ///< running again after the watchdog shrank the walker pool
  kDone,       ///< finished on its own (solved or budget exhausted)
  kCancelled,  ///< stopped by cancel() or service shutdown
  kPreempted,  ///< suspended at a safe point by suspend(); the captured
               ///< PoolCheckpoint is waiting in JobHandle::take_checkpoint()
               ///< and the report carries the best configuration reached
  kFailed,     ///< every attempt crashed wholesale (or an internal error);
               ///< JobHandle::wait() rethrows it, report() still returns
               ///< the structured last-attempt report
};

[[nodiscard]] constexpr bool is_terminal(JobStatus status) noexcept {
  return status == JobStatus::kDone || status == JobStatus::kCancelled ||
         status == JobStatus::kPreempted || status == JobStatus::kFailed;
}

/// Streaming subscription for a submitted job: `on_sample` receives
/// (walker_id, iteration, cost) from walker threads while attempts run (see
/// SolveCallbacks::sample_sink) — the transport lifts nonincreasing
/// best-cost events out of it.  Retried attempts stream too, so a consumer
/// wanting monotone output must filter (samples restart at the retry's
/// starting cost).  Empty on_sample or zero period disables streaming.
///
/// `on_transition` fires once per status change after kQueued — running,
/// retrying, degraded, then exactly one terminal status, always last — with
/// the new status already visible through JobHandle::status() and wait()ers
/// already woken.  It runs on service threads, sometimes with the service's
/// internal lock held, so it may take only a leaf lock (one held around
/// nothing but its own state) and must not call into the service or block.
/// It must stay valid until the job is terminal.
struct JobStream {
  std::function<void(std::size_t, std::uint64_t, csp::Cost)> on_sample;
  std::uint64_t sample_period = 0;
  std::function<void(JobStatus)> on_transition;
};

[[nodiscard]] std::string_view name_of(JobStatus status);

namespace detail {
struct JobState;
struct ServiceCore;
}  // namespace detail

/// Shared handle to a submitted job.  Copyable; outlives the service (a
/// handle held past the service's destruction sees the job cancelled).
/// All accessors on a default-constructed (invalid) handle throw
/// std::logic_error rather than dereferencing nothing.
class JobHandle {
 public:
  JobHandle() = default;

  [[nodiscard]] std::uint64_t id() const;
  [[nodiscard]] JobStatus status() const;

  /// Block until the job reaches a terminal status and return its report.
  /// Cancelled jobs return normally (report.cancelled set, best-effort
  /// contents); kFailed rethrows the job's error as std::runtime_error.
  const SolveReport& wait() const;

  /// Bounded wait; true when the job is terminal before the timeout.
  [[nodiscard]] bool wait_for(std::chrono::milliseconds timeout) const;

  /// The terminal report without wait()'s kFailed rethrow — the structured
  /// view of a failed job (e.g. an all-walkers-crashed report with every
  /// walker's error).  Throws std::logic_error while the job is still
  /// live; call after wait_for()/wait() observed a terminal status.
  [[nodiscard]] const SolveReport& report() const;

  /// The job's error message ("" unless kFailed).
  [[nodiscard]] std::string error() const;

  /// Request cancellation.  Returns true when the job was still queued or
  /// running (the request will take effect), false when already terminal.
  bool cancel() const;

  /// Request suspension to a checkpoint.  A running job stops at its next
  /// safe point and — when the capture succeeds — finishes kPreempted with
  /// the PoolCheckpoint retrievable via take_checkpoint(); a failed capture
  /// degrades the job to a plain kCancelled.  A still-queued job finishes
  /// kPreempted immediately with *no* checkpoint (nothing ran, so the
  /// original request resubmitted verbatim is the exact resume).  Returns
  /// true when the job was still live, false when already terminal.
  bool suspend() const;

  /// Move the captured checkpoint out of a terminal job (empties the slot:
  /// a second call returns nullopt).  nullopt for any job that is not
  /// kPreempted, and for a kPreempted job that never started running.
  /// Throws std::logic_error while the job is still live.
  [[nodiscard]] std::optional<parallel::PoolCheckpoint> take_checkpoint() const;

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }

 private:
  friend class SolverService;
  explicit JobHandle(std::shared_ptr<detail::JobState> state)
      : state_(std::move(state)) {}

  [[nodiscard]] detail::JobState& state() const;  ///< throws when !valid()

  std::shared_ptr<detail::JobState> state_;
};

class SolverService {
 public:
  struct Options {
    /// Global walker-thread budget; 0 = std::thread::hardware_concurrency()
    /// (at least 1).
    std::size_t thread_budget = 0;
    /// Per-job lease cap; 0 = no extra cap (a job may lease the whole free
    /// budget).  Lower it to keep head-of-line jobs from starving the queue.
    std::size_t max_threads_per_job = 0;
  };

  SolverService() : SolverService(Options{}) {}
  explicit SolverService(Options options);
  ~SolverService();

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// Validate and enqueue `request`.  Throws std::invalid_argument on a
  /// malformed request (unknown problem / unusable size — the message lists
  /// the valid names); admission itself never blocks.  After shutdown()
  /// every submission — malformed or not — throws std::runtime_error
  /// ("submit after shutdown"): the shutdown check runs *before*
  /// validation, so a closed service never misreports itself as a parse
  /// error.
  [[nodiscard]] JobHandle submit(SolveRequest request) {
    return submit(std::move(request), JobStream{});
  }

  /// Same, with a streaming subscription: `stream.on_sample` is invoked
  /// from walker threads while the job's attempts run.  The callback must
  /// be thread-safe and must stay valid until the job is terminal.
  [[nodiscard]] JobHandle submit(SolveRequest request, JobStream stream);

  /// Validate and enqueue a whole batch under one lock (one dispatcher
  /// wake-up).  All-or-nothing: every request is validated before any is
  /// enqueued, so a malformed member throws with no sibling submitted.
  /// Adjacent small members of the batch are natural fusion candidates —
  /// the dispatcher fuses runs of single-lease jobs at the FIFO head into
  /// one parallel::FusedRun launch (see ServiceStats::fused_batches).
  [[nodiscard]] std::vector<JobHandle> submit_batch(
      std::vector<SolveRequest> requests);

  /// Stop accepting submissions, cancel every queued and running job and
  /// join all workers (blocking).  Idempotent; also run by the destructor.
  /// Outstanding JobHandles stay valid and observe kCancelled.
  void shutdown();

  [[nodiscard]] std::size_t thread_budget() const noexcept { return budget_; }

  /// Jobs not yet terminal (queued + running).
  [[nodiscard]] std::size_t pending_jobs() const;

  /// Snapshot of the queue state and lifetime counters.  Cheap (one lock);
  /// safe to poll from a transport's /stats endpoint under load.
  [[nodiscard]] ServiceStats stats() const;

 private:
  void dispatch_loop();

  std::size_t budget_ = 1;
  std::size_t per_job_cap_ = 0;
  std::shared_ptr<detail::ServiceCore> core_;
};

}  // namespace cspls::api
