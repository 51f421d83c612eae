#include "api/service.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/stop_token.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace cspls::api {

util::Json ServiceStats::to_json() const {
  util::Json json = util::Json::object();
  json.set("queued", static_cast<std::uint64_t>(queued));
  json.set("running", static_cast<std::uint64_t>(running));
  json.set("submitted", submitted);
  json.set("completed", completed);
  json.set("cancelled", cancelled);
  json.set("preempted", preempted);
  json.set("failed", failed);
  json.set("retried", retried);
  json.set("degraded", degraded);
  json.set("thread_budget", static_cast<std::uint64_t>(thread_budget));
  json.set("free_threads", static_cast<std::uint64_t>(free_threads));
  return json;
}

std::string_view name_of(JobStatus status) {
  switch (status) {
    case JobStatus::kQueued:
      return "queued";
    case JobStatus::kRunning:
      return "running";
    case JobStatus::kRetrying:
      return "retrying";
    case JobStatus::kDegraded:
      return "degraded";
    case JobStatus::kDone:
      return "done";
    case JobStatus::kCancelled:
      return "cancelled";
    case JobStatus::kPreempted:
      return "preempted";
    case JobStatus::kFailed:
      return "failed";
  }
  return "unknown";
}

namespace detail {

struct ServiceCore;

struct JobState {
  std::uint64_t id = 0;
  SolveRequest request;
  JobStream stream;
  /// Back-reference so JobHandle::cancel can reach the FIFO even after the
  /// service object is gone (the core outlives both).
  std::shared_ptr<ServiceCore> core;
  std::atomic<bool> cancel{false};
  /// Suspend-to-checkpoint request (JobHandle::suspend); observed by the
  /// engine's stop poll via SolveCallbacks::preempt.
  std::atomic<bool> preempt{false};

  mutable std::mutex m;
  mutable std::condition_variable cv;
  JobStatus status = JobStatus::kQueued;  // guarded by m
  SolveReport report;                     // immutable once terminal
  std::string error;
  /// The captured PoolCheckpoint of a kPreempted job; guarded by m, written
  /// (before the terminal transition) only by the runner that ran the job,
  /// moved out by JobHandle::take_checkpoint.
  std::optional<parallel::PoolCheckpoint> checkpoint;
};

/// An admitted job and the walker threads it leased.
struct Lease {
  std::shared_ptr<JobState> job;
  std::size_t threads = 0;
};

struct ServiceCore {
  std::mutex m;
  std::condition_variable cv;  ///< handoffs and shutdown, for idle runners
  std::deque<std::shared_ptr<JobState>> fifo;
  /// Admitted jobs waiting for an idle runner.  Admission hands a job over
  /// only while idle runners outnumber the waiting handoffs, and starts a
  /// runner otherwise.
  std::deque<Lease> handoff;
  std::size_t idle = 0;  ///< runners between jobs
  std::size_t free_threads = 0;
  std::size_t per_job_cap = 0;
  std::uint64_t next_id = 1;
  bool shutdown = false;
  /// Jobs a runner has taken and not yet released the lease of.
  std::vector<std::shared_ptr<JobState>> running;
  /// Every runner started; each lives until shutdown().
  std::vector<std::jthread> runners;

  // Lifetime counters for ServiceStats — atomics so the terminal-status
  // bumps in finish() need no extra locking discipline.
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> cancelled{0};
  std::atomic<std::uint64_t> preempted{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> retried{0};
  std::atomic<std::uint64_t> degraded{0};
};

namespace {

/// Lock order everywhere: core.m before job.m, never the reverse.  The
/// first terminal status sticks: a later finish() of the same job is a
/// no-op, so the terminal transition callback is always the last one.
void finish(const std::shared_ptr<JobState>& job, JobStatus status,
            SolveReport report, std::string error) {
  {
    std::lock_guard<std::mutex> guard(job->m);
    if (is_terminal(job->status)) return;
    job->report = std::move(report);
    job->error = std::move(error);
    job->status = status;
  }
  if (job->core != nullptr) {
    // Lifetime counters for ServiceStats.
    switch (status) {
      case JobStatus::kDone:
        job->core->completed.fetch_add(1, std::memory_order_relaxed);
        break;
      case JobStatus::kCancelled:
        job->core->cancelled.fetch_add(1, std::memory_order_relaxed);
        break;
      case JobStatus::kPreempted:
        job->core->preempted.fetch_add(1, std::memory_order_relaxed);
        break;
      case JobStatus::kFailed:
        job->core->failed.fetch_add(1, std::memory_order_relaxed);
        break;
      default:
        break;
    }
  }
  job->cv.notify_all();
  if (job->stream.on_transition) job->stream.on_transition(status);
}

void finish_cancelled(const std::shared_ptr<JobState>& job) {
  SolveReport report;
  report.cancelled = true;
  finish(job, JobStatus::kCancelled, std::move(report), {});
}

/// A cancel or suspend that reaches a job still in the FIFO finishes it
/// there, under core.m: kCancelled when its cancel flag is up (cancel
/// wins), else kPreempted with *no* checkpoint — it never ran, so the
/// original request resubmitted verbatim is its exact resume.  A job a
/// runner has already taken observes the flags through its engine polls.
void finish_if_queued(const std::shared_ptr<JobState>& job) {
  if (job->core == nullptr) return;
  ServiceCore& core = *job->core;
  const std::lock_guard<std::mutex> guard(core.m);
  const auto it = std::find(core.fifo.begin(), core.fifo.end(), job);
  if (it == core.fifo.end()) return;
  core.fifo.erase(it);
  if (job->cancel.load(std::memory_order_relaxed)) {
    finish_cancelled(job);
    return;
  }
  SolveReport report;
  report.preempted = true;
  finish(job, JobStatus::kPreempted, std::move(report), {});
}

/// Raise the cancel flag under job.m and wake the job's own waiters: a
/// retry backoff waits on job.cv for this flag, so a cancel ends it at
/// once.  False (and no flag) when the job is already terminal.
bool request_cancel(JobState& job) {
  {
    std::lock_guard<std::mutex> guard(job.m);
    if (is_terminal(job.status)) return false;
    job.cancel.store(true, std::memory_order_relaxed);
  }
  job.cv.notify_all();
  return true;
}

}  // namespace
}  // namespace detail

// ---------------------------------------------------------------------------
// JobHandle
// ---------------------------------------------------------------------------

detail::JobState& JobHandle::state() const {
  if (state_ == nullptr) {
    throw std::logic_error("JobHandle: default-constructed (invalid) handle");
  }
  return *state_;
}

std::uint64_t JobHandle::id() const { return state().id; }

JobStatus JobHandle::status() const {
  detail::JobState& job = state();
  std::lock_guard<std::mutex> guard(job.m);
  return job.status;
}

const SolveReport& JobHandle::wait() const {
  detail::JobState& job = state();
  std::unique_lock<std::mutex> lock(job.m);
  job.cv.wait(lock, [&] { return is_terminal(job.status); });
  if (job.status == JobStatus::kFailed) {
    throw std::runtime_error("SolverService job " + std::to_string(job.id) +
                             " failed: " + job.error);
  }
  return job.report;
}

bool JobHandle::wait_for(std::chrono::milliseconds timeout) const {
  detail::JobState& job = state();
  std::unique_lock<std::mutex> lock(job.m);
  return job.cv.wait_for(lock, timeout,
                         [&] { return is_terminal(job.status); });
}

const SolveReport& JobHandle::report() const {
  detail::JobState& job = state();
  std::lock_guard<std::mutex> guard(job.m);
  if (!is_terminal(job.status)) {
    throw std::logic_error("JobHandle::report: job " + std::to_string(job.id) +
                           " is still " + std::string(name_of(job.status)));
  }
  return job.report;
}

std::string JobHandle::error() const {
  detail::JobState& job = state();
  std::lock_guard<std::mutex> guard(job.m);
  return job.error;
}

bool JobHandle::cancel() const {
  detail::JobState& job = state();
  if (!detail::request_cancel(job)) return false;
  detail::finish_if_queued(state_);
  return true;
}

bool JobHandle::suspend() const {
  detail::JobState& job = state();
  {
    std::lock_guard<std::mutex> guard(job.m);
    if (is_terminal(job.status)) return false;
  }
  job.preempt.store(true, std::memory_order_relaxed);
  detail::finish_if_queued(state_);
  return true;
}

std::optional<parallel::PoolCheckpoint> JobHandle::take_checkpoint() const {
  detail::JobState& job = state();
  std::lock_guard<std::mutex> guard(job.m);
  if (!is_terminal(job.status)) {
    throw std::logic_error("JobHandle::take_checkpoint: job " +
                           std::to_string(job.id) + " is still " +
                           std::string(name_of(job.status)));
  }
  return std::exchange(job.checkpoint, std::nullopt);
}

// ---------------------------------------------------------------------------
// SolverService
// ---------------------------------------------------------------------------

namespace {

/// Parallelism a request asks for: its walker count under kThreads (capped
/// by its own max_threads), one slot otherwise.
std::size_t desired_threads(const SolveRequest& request,
                            std::size_t per_job_cap) {
  std::size_t desired = 1;
  if (request.scheduling == parallel::Scheduling::kThreads) {
    desired = std::max<std::size_t>(1, request.walkers);
    if (request.max_threads != 0) {
      desired = std::min(desired, request.max_threads);
    }
  }
  if (per_job_cap != 0) desired = std::min(desired, per_job_cap);
  return desired;
}

void set_status(const std::shared_ptr<detail::JobState>& job,
                JobStatus status) {
  {
    std::lock_guard<std::mutex> guard(job->m);
    // Never un-finish a job; a retry without backoff re-enters kRunning
    // from kRunning, which is no transition.
    if (is_terminal(job->status) || job->status == status) return;
    job->status = status;
  }
  job->cv.notify_all();
  if (job->stream.on_transition) job->stream.on_transition(status);
}

/// Supervises one attempt: fires `stalled` when `heartbeat` does not move
/// for `stall_ms` milliseconds.  The jthread destructor (stop + join) is
/// the disarm path, so the watchdog can never outlive its attempt.
std::jthread spawn_watchdog(std::uint64_t stall_ms,
                            const std::atomic<std::uint64_t>* heartbeat,
                            std::atomic<bool>* stalled) {
  return std::jthread([stall_ms, heartbeat, stalled](std::stop_token stop) {
    using Clock = std::chrono::steady_clock;
    const auto budget = std::chrono::milliseconds(stall_ms);
    // Check the heartbeat in small chunks so firing stays prompt even
    // against multi-second budgets.  Nothing notifies `cv`: each wait ends
    // on its timeout, or at once when the jthread's stop is requested.
    const auto chunk = std::chrono::milliseconds(
        std::clamp<std::uint64_t>(stall_ms / 8, 1, 50));
    std::mutex m;
    std::condition_variable_any cv;
    std::unique_lock<std::mutex> lock(m);
    std::uint64_t last = heartbeat->load(std::memory_order_relaxed);
    Clock::time_point last_progress = Clock::now();
    while (!cv.wait_for(lock, stop, chunk, [] { return false; }) &&
           !stop.stop_requested()) {
      const std::uint64_t beats = heartbeat->load(std::memory_order_relaxed);
      if (beats != last) {
        last = beats;
        last_progress = Clock::now();
        continue;
      }
      if (Clock::now() - last_progress >= budget) {
        stalled->store(true, std::memory_order_relaxed);
        return;
      }
    }
  });
}

/// One attempt's verdict, inspected by the retry loop.
struct AttemptOutcome {
  SolveReport report;
  std::string error;   ///< non-empty when the dispatch path threw
  bool threw = false;  ///< the dispatch path threw (error holds the message)
  bool stalled = false;  ///< the watchdog cut this attempt short
  /// The PoolCheckpoint a preempted attempt surrendered (empty when the
  /// capture failed — the preemption then degrades to a plain cancel).
  std::optional<parallel::PoolCheckpoint> checkpoint;

  [[nodiscard]] bool all_failed() const noexcept {
    return !report.walkers.empty() &&
           report.failed_walkers == report.walkers.size();
  }
  /// A retryable attempt: crashed wholesale or stalled — never a run that
  /// merely failed to solve, and never one the caller cancelled.
  [[nodiscard]] bool bad() const noexcept {
    return threw || all_failed() || stalled;
  }
};

AttemptOutcome run_attempt(const std::shared_ptr<detail::JobState>& job,
                           SolveRequest attempt_request, std::size_t leased,
                           util::fault::Session& dispatch_faults) {
  AttemptOutcome outcome;
  std::atomic<std::uint64_t> heartbeat{0};
  std::atomic<bool> watchdog_cancel{false};
  try {
    if (util::fault::probe(&dispatch_faults,
                           util::fault::Site::kServiceDispatch) ==
        util::fault::Action::kCorrupt) {
      throw std::runtime_error("injected fault: corrupt service_dispatch");
    }
    if (attempt_request.scheduling == parallel::Scheduling::kThreads) {
      // The lease caps this job's concurrency; walkers beyond it run in
      // waves (WalkerPoolOptions::max_threads semantics).
      attempt_request.max_threads = leased;
    }
    // The watchdog flag rides a chained slot: walkers it stops record
    // StopCause::kChained, so a watchdog cut is never misreported as a
    // caller cancellation (and survives the pool's first-finisher chain).
    const core::StopToken token =
        core::StopToken(&job->cancel).also_cancelled_by(&watchdog_cancel);
    SolveCallbacks callbacks;
    callbacks.heartbeat = &heartbeat;
    if (job->stream.on_sample && job->stream.sample_period != 0) {
      callbacks.sample_sink = job->stream.on_sample;
      callbacks.sample_period = job->stream.sample_period;
    }
    callbacks.preempt = &job->preempt;
    callbacks.checkpoint_out = &outcome.checkpoint;
    {
      std::jthread watchdog;
      if (attempt_request.watchdog_stall_ms != 0) {
        watchdog = spawn_watchdog(attempt_request.watchdog_stall_ms,
                                  &heartbeat, &watchdog_cancel);
      }
      outcome.report = Solver::solve(attempt_request, token, callbacks);
    }  // watchdog disarmed (stopped + joined) here, throw or return
  } catch (const std::exception& e) {
    outcome.threw = true;
    outcome.error = e.what();
  } catch (...) {
    outcome.threw = true;
    outcome.error = "unknown exception";
  }
  outcome.stalled = watchdog_cancel.load(std::memory_order_relaxed);
  return outcome;
}

/// Backoff in milliseconds before the retry following failing attempt
/// `attempt` (1-based).  `rng` is seeded from the job's master seed, so
/// jittered retry timing is reproducible.
std::uint64_t backoff_ms_for(const RetryPolicy& retry, std::uint32_t attempt,
                             util::Xoshiro256& rng) {
  double ms = static_cast<double>(retry.base_backoff_ms);
  for (std::uint32_t i = 1; i < attempt; ++i) ms *= retry.multiplier;
  ms *= 1.0 + retry.jitter * rng.uniform01();
  return static_cast<std::uint64_t>(ms);
}

/// Cancellation-aware backoff wait; true when the job was cancelled.
/// request_cancel raises the flag under job->m and notifies job->cv, so a
/// cancel ends the wait at once.
bool backoff_wait(const std::shared_ptr<detail::JobState>& job,
                  std::uint64_t ms) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  std::unique_lock<std::mutex> lock(job->m);
  return job->cv.wait_until(lock, until, [&] {
    return job->cancel.load(std::memory_order_relaxed);
  });
}

void admit(const std::shared_ptr<detail::ServiceCore>& core);

/// Return a finished job's lease and admit what it frees.  The calling
/// runner counts as idle from here, so the FIFO head it admits is handed to
/// it (or to another idle runner) rather than to a new thread.
void release(const std::shared_ptr<detail::ServiceCore>& core,
             const std::shared_ptr<detail::JobState>& job,
             std::size_t leased) {
  const std::lock_guard<std::mutex> guard(core->m);
  core->free_threads += leased;
  std::erase(core->running, job);
  ++core->idle;
  admit(core);
}

void run_admitted_job(const std::shared_ptr<detail::ServiceCore>& core,
                      const std::shared_ptr<detail::JobState>& job,
                      std::size_t leased) {
  // The whole job body is contained: nothing may escape a runner thread
  // (an escape would std::terminate the service).  Inner per-attempt
  // containment lives in run_attempt; this shell catches everything else —
  // a malformed CSPLS_FAULTS spec, a bad_alloc while copying the request.
  JobStatus status = JobStatus::kFailed;
  SolveReport report;
  std::string error;
  std::optional<parallel::PoolCheckpoint> checkpoint;
  try {
    // One session across all attempts, counting `service_dispatch` probes:
    // a plan with at_count=n fires on the n-th attempt, which is what
    // makes retry-then-succeed trajectories scriptable.
    const util::fault::Schedule fault_schedule =
        util::fault::kCompiledIn
            ? util::fault::Schedule::with_env(job->request.faults)
            : util::fault::Schedule{};
    util::fault::Session dispatch_faults(&fault_schedule,
                                         util::fault::kAnyWalker);
    const RetryPolicy& retry = job->request.retry;
    const std::uint32_t max_attempts =
        std::max<std::uint32_t>(1, retry.max_attempts);
    // Deterministic jitter: the stream is derived from the job's seed, not
    // from global entropy, so a fixed-seed retry trajectory is replayable.
    util::Xoshiro256 backoff_rng(job->request.seed ^ 0x5afe'b0ff'd1ce'5eedULL);

    SolveRequest attempt_request = job->request;
    attempt_request.walkers = std::max<std::size_t>(1, job->request.walkers);
    bool degraded = false;
    bool cancelled_between_attempts = false;
    AttemptOutcome outcome;
    std::uint32_t attempts_run = 0;

    for (std::uint32_t attempt = 1; attempt <= max_attempts; ++attempt) {
      set_status(job, degraded ? JobStatus::kDegraded : JobStatus::kRunning);
      outcome = run_attempt(job, attempt_request, leased, dispatch_faults);
      attempts_run = attempt;
      if (!outcome.bad() || outcome.report.cancelled) break;
      if (job->cancel.load(std::memory_order_relaxed)) {
        cancelled_between_attempts = true;
        break;
      }
      if (attempt == max_attempts) break;  // attempts exhausted

      // Prepare the retry: degrade stalled jobs to half the walkers, and
      // reseed from the failed attempt's best configuration when it
      // produced one (all-failed attempts leave no checkpoint).
      core->retried.fetch_add(1, std::memory_order_relaxed);
      if (outcome.stalled) {
        if (!degraded) core->degraded.fetch_add(1, std::memory_order_relaxed);
        degraded = true;
        attempt_request.walkers =
            std::max<std::size_t>(1, attempt_request.walkers / 2);
      }
      if (!outcome.report.solution.empty()) {
        attempt_request.warm_start = outcome.report.solution;
      }
      const std::uint64_t backoff =
          backoff_ms_for(retry, attempt, backoff_rng);
      if (backoff != 0) {
        set_status(job, JobStatus::kRetrying);
        if (backoff_wait(job, backoff)) {
          cancelled_between_attempts = true;
          break;
        }
      }
    }

    // Read the verdict before the move empties outcome.report.
    const bool last_attempt_all_failed = outcome.all_failed();
    report = std::move(outcome.report);
    report.attempts = attempts_run;
    report.degraded = degraded;
    if (cancelled_between_attempts) {
      report.cancelled = true;
      status = JobStatus::kCancelled;
    } else if (outcome.threw) {
      status = JobStatus::kFailed;
      error = std::move(outcome.error);
    } else if (report.cancelled) {
      // Status mirrors what the run actually observed (report.cancelled),
      // not a re-read of the flag — a cancel landing after normal
      // completion must not produce a kCancelled status around a solved,
      // uncancelled report.
      status = JobStatus::kCancelled;
    } else if (report.preempted) {
      if (outcome.checkpoint.has_value()) {
        status = JobStatus::kPreempted;
        checkpoint = std::move(outcome.checkpoint);
      } else {
        // Degradation contract: a preemption whose capture failed (torn
        // write, injected checkpoint_capture fault) is a plain cancel —
        // the caller requeues the original request instead of resuming.
        report.preempted = false;
        report.cancelled = true;
        status = JobStatus::kCancelled;
      }
    } else if (last_attempt_all_failed) {
      // Structured failure: the report (with each walker's error) stays
      // readable via JobHandle::report(); wait() rethrows this summary.
      status = JobStatus::kFailed;
      error = "all " + std::to_string(report.walkers.size()) +
              " walkers failed on every attempt (" +
              std::to_string(report.attempts) + " of " +
              std::to_string(std::max<std::uint32_t>(
                  1, job->request.retry.max_attempts)) +
              "); walker 0: " +
              (report.walkers.empty() ? std::string("<no detail>")
                                      : report.walkers.front().error);
    } else {
      // Includes a final stalled attempt: the anytime contract applies —
      // the report carries the best configuration the attempt reached.
      status = JobStatus::kDone;
    }
  } catch (const std::exception& e) {
    status = JobStatus::kFailed;
    error = e.what();
  } catch (...) {
    status = JobStatus::kFailed;
    error = "unknown exception";
  }

  release(core, job, leased);

  if (checkpoint.has_value()) {
    // Stash before the terminal transition: take_checkpoint() only reads
    // after observing a terminal status under the same lock.
    std::lock_guard<std::mutex> guard(job->m);
    job->checkpoint = std::move(checkpoint);
  }
  detail::finish(job, status, std::move(report), std::move(error));
}

/// Runs leased jobs one after another until shutdown: the first one it was
/// started for, then each handed off to it while idle.
void run_runner(const std::shared_ptr<detail::ServiceCore>& core,
                detail::Lease lease) {
  for (;;) {
    run_admitted_job(core, lease.job, lease.threads);
    std::unique_lock<std::mutex> lock(core->m);
    core->cv.wait(lock,
                  [&] { return core->shutdown || !core->handoff.empty(); });
    if (core->handoff.empty()) return;
    lease = std::move(core->handoff.front());
    core->handoff.pop_front();
    --core->idle;
    core->running.push_back(lease.job);
  }
}

/// FIFO admission, with core.m held: while budget is free, the head job
/// leases min(its desired parallelism, free slots) and goes to an idle
/// runner, or to a new one when none is idle — so live runners never
/// exceed the peak number of jobs holding a lease at once.  Starting a
/// runner is part of the contained dispatch path: when it fails and no
/// runner exists, the lease is refunded and the job resolves kFailed (an
/// escaping exception would hang every outstanding handle); with runners
/// alive, the job waits in the handoff for the next one to free up.
void admit(const std::shared_ptr<detail::ServiceCore>& core) {
  while (!core->shutdown && !core->fifo.empty() && core->free_threads > 0) {
    detail::Lease lease{core->fifo.front(), 0};
    core->fifo.pop_front();
    lease.threads = std::min(desired_threads(lease.job->request,
                                             core->per_job_cap),
                             core->free_threads);
    core->free_threads -= lease.threads;
    if (core->idle > core->handoff.size()) {
      core->handoff.push_back(std::move(lease));
      core->cv.notify_one();
      continue;
    }
    try {
      core->runners.emplace_back(
          [core, lease] { run_runner(core, lease); });
      core->running.push_back(lease.job);
    } catch (const std::exception& e) {
      if (!core->runners.empty()) {
        core->handoff.push_back(std::move(lease));
        continue;
      }
      core->free_threads += lease.threads;
      detail::finish(lease.job, JobStatus::kFailed, {},
                     std::string("dispatch failed: ") + e.what());
    }
  }
}

}  // namespace

SolverService::SolverService(Options options)
    : core_(std::make_shared<detail::ServiceCore>()) {
  budget_ = options.thread_budget != 0
                ? options.thread_budget
                : std::max(1u, std::thread::hardware_concurrency());
  core_->free_threads = budget_;
  core_->per_job_cap = options.max_threads_per_job;
}

SolverService::~SolverService() { shutdown(); }

void SolverService::shutdown() {
  std::vector<std::jthread> runners;
  std::vector<std::shared_ptr<detail::JobState>> unstarted;
  {
    std::lock_guard<std::mutex> guard(core_->m);
    core_->shutdown = true;
    runners.swap(core_->runners);
    unstarted.assign(core_->fifo.begin(), core_->fifo.end());
    core_->fifo.clear();
    for (detail::Lease& lease : core_->handoff) {
      core_->free_threads += lease.threads;
      unstarted.push_back(std::move(lease.job));
    }
    core_->handoff.clear();
    for (const auto& job : core_->running) (void)detail::request_cancel(*job);
  }
  core_->cv.notify_all();
  // Jobs no runner took finish as cancelled here, without running.
  for (const auto& job : unstarted) detail::finish_cancelled(job);
  // jthread destructors join every runner as `runners` goes out of scope;
  // a second call finds everything already drained.
}

JobHandle SolverService::submit(SolveRequest request, JobStream stream) {
  // Shutdown is checked *before* validation: "submit after shutdown" is
  // the caller's actual mistake, and reporting a parse/validation error
  // for a request a closed service would never run is misleading.
  const auto throw_if_shutdown = [this] {
    if (core_->shutdown) {
      throw std::runtime_error("SolverService: submit after shutdown");
    }
  };
  {
    std::lock_guard<std::mutex> guard(core_->m);
    throw_if_shutdown();
  }

  // Validate the instance, the pool configuration and any warm start or
  // checkpoint now so the caller gets the diagnostic (with the valid
  // problem names / the offending member) at the submission site, not
  // from a failed job.
  request.validate();

  auto job = std::make_shared<detail::JobState>();
  job->request = std::move(request);
  job->stream = std::move(stream);
  job->core = core_;
  {
    std::lock_guard<std::mutex> guard(core_->m);
    throw_if_shutdown();  // closed while we were validating
    job->id = core_->next_id++;
    core_->fifo.push_back(job);
    admit(core_);
  }
  core_->submitted.fetch_add(1, std::memory_order_relaxed);
  return JobHandle(job);
}

ServiceStats SolverService::stats() const {
  ServiceStats snapshot;
  {
    std::lock_guard<std::mutex> guard(core_->m);
    snapshot.queued = core_->fifo.size();
    snapshot.running = core_->running.size() + core_->handoff.size();
    snapshot.free_threads = core_->free_threads;
  }
  snapshot.submitted = core_->submitted.load(std::memory_order_relaxed);
  snapshot.completed = core_->completed.load(std::memory_order_relaxed);
  snapshot.cancelled = core_->cancelled.load(std::memory_order_relaxed);
  snapshot.preempted = core_->preempted.load(std::memory_order_relaxed);
  snapshot.failed = core_->failed.load(std::memory_order_relaxed);
  snapshot.retried = core_->retried.load(std::memory_order_relaxed);
  snapshot.degraded = core_->degraded.load(std::memory_order_relaxed);
  snapshot.thread_budget = budget_;
  return snapshot;
}

std::size_t SolverService::pending_jobs() const {
  std::lock_guard<std::mutex> guard(core_->m);
  return core_->fifo.size() + core_->handoff.size() + core_->running.size();
}

}  // namespace cspls::api
