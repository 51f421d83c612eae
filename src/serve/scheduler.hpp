// The serving tier's admission scheduler: three priority lanes in front of
// one execution path, an api::SolverService — every job inherits its thread
// budget, reused runner threads, retry/backoff self-healing and watchdog.
//
// The service is kept shallow (at most `service_inflight` jobs submitted at
// a time) so lane order, not the service's FIFO, decides who runs next.
// When a stronger lane has a job waiting, in-flight weaker jobs that are
// still *queued* inside the service are preempted: cancelled and requeued
// at the front of their lane, to be resubmitted after the stronger job —
// they still terminate with their real status once re-run.  When no queued
// victim exists and the service is at its in-flight cap, the weakest
// *running* job is suspended instead: the engine stops it at a safe point,
// surrenders a PoolCheckpoint, and the job returns to the front of its
// lane carrying the checkpoint (SolveRequest::resume_from) — its next
// claim resumes the walk exactly where it stopped, byte-identical to never
// having been interrupted.  A capture failure degrades to plain
// cancel-and-requeue (the job restarts from scratch, losing only work).
//
// The dispatcher is event-driven: it sleeps until woken and then makes one
// pass (reap, preempt, submit).  submit(), cancel(), shutdown() and every
// status transition of an in-flight service job
// (JobStream::on_transition: running, retrying, degraded, terminal) wake
// it.  A wake sets a pending flag under its own leaf mutex, so one
// that lands mid-pass buys another pass instead of being lost; the
// transition callback can fire with the service's lock held, which is why
// it touches nothing but that flag and two atomics on the job (its latest
// status, and whether it ever ran) — never the scheduler lock.  The pass
// acts on those atomics; it never probes a handle.
//
// Admission control: `max_lane_depth` bounds each priority lane; a submit
// to a full lane is rejected with the stable `overloaded` protocol error
// (HTTP 429) before `accepted` fires, so clients see backpressure instead
// of unbounded queueing.
//
// Streaming: a job submitted with `stream` pushes (walker, iteration, cost)
// samples through JobEvents::on_sample, filtered to strictly decreasing
// best cost (the anytime payload) and serialized so no sample follows the
// terminal report.  Event callbacks are never invoked while the scheduler
// lock is held, and `on_accepted` fires before the job becomes visible to
// the dispatcher — `accepted` always precedes the first `sample` on the
// wire.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/service.hpp"
#include "serve/protocol.hpp"

namespace cspls::serve {

namespace detail {
struct ServeJob;
}  // namespace detail

struct SchedulerOptions {
  /// Ignored; kept because perfbench/src/preempt.cpp still sets it.
  std::size_t warm_lease_threshold = 0;
  /// Most jobs submitted into the SolverService at once; the rest wait
  /// in lanes where priority order (and preemption) applies.
  std::size_t service_inflight = 4;
  /// Admission control: most jobs queued per priority lane (in-flight jobs
  /// not counted).  A submit to a full lane is rejected with the stable
  /// `overloaded` protocol error (HTTP 429) before `accepted` fires.
  /// 0 = unbounded (the default).
  std::size_t max_lane_depth = 0;
  /// Suspend a *running* weaker-lane job to a PoolCheckpoint when a
  /// stronger job is waiting, the service is at its in-flight cap and no
  /// still-queued weaker job could be preempted instead.  The suspended job
  /// returns to the front of its lane carrying the checkpoint and resumes
  /// exactly where it stopped on its next claim.  false falls back to
  /// queued-only preemption (the stronger job waits out the running walk).
  bool preempt_running = true;
  /// Sample period for streaming jobs that did not pick one.
  std::uint64_t default_sample_period = 256;
  /// The service's knobs (thread budget, per-job cap).
  api::SolverService::Options service;
};

/// Per-job event sinks; all fired off the submitting thread (service
/// runners, the dispatcher) except on_accepted, which fires synchronously
/// inside submit() — before the job is visible to the dispatcher.  Must be
/// thread-safe; must stay valid until on_report has fired.
struct JobEvents {
  std::function<void(std::uint64_t id)> on_accepted;
  /// Strictly decreasing best-cost samples; never fired after on_report.
  std::function<void(std::uint64_t id, std::size_t walker,
                     std::uint64_t iteration, csp::Cost cost)>
      on_sample;
  /// A *running* job was suspended to a checkpoint and requeued; it is
  /// still live and resumes from where it stopped.  May fire several times
  /// per job; never after on_report.
  std::function<void(std::uint64_t id)> on_preempted;
  /// Exactly once per job; status is "done" | "cancelled" | "failed"
  /// (error is non-empty only for "failed").
  std::function<void(std::uint64_t id, std::string_view status,
                     const api::SolveReport& report, std::string_view error)>
      on_report;
};

/// Point-in-time scheduler counters (the service's own counters live
/// in api::ServiceStats, reported alongside).
struct SchedulerStats {
  std::array<std::size_t, kNumLanes> queued{};  ///< per lane
  std::size_t inflight = 0;  ///< submitted into the service, not reaped
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t failed = 0;
  std::uint64_t preempted_queued = 0;   ///< still-queued service jobs requeued
  std::uint64_t preempted_running = 0;  ///< running jobs suspended to a
                                        ///< checkpoint and requeued
  std::uint64_t resumed = 0;            ///< checkpoint-carrying resubmissions
  std::uint64_t rejected_overload = 0;  ///< submits refused: lane at depth cap
  std::uint64_t givebacks = 0;     ///< always 0, off the wire; perfbench reads
  std::uint64_t batches = 0;       ///< always 0, off the wire; perfbench reads
  std::uint64_t batched_jobs = 0;  ///< always 0, off the wire; perfbench reads
  std::uint64_t fused_jobs = 0;    ///< always 0, off the wire; perfbench reads

  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] bool operator==(const SchedulerStats&) const = default;
};

class Scheduler {
 public:
  enum class CancelResult {
    kCancelled,        ///< the job existed and cancellation will take effect
    kAlreadyTerminal,  ///< known id, but the job already reported
    kUnknown,          ///< no such id was ever assigned
  };

  explicit Scheduler(SchedulerOptions options = {});
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Validate and enqueue.  Throws std::invalid_argument on a malformed
  /// request (unknown problem, bad pool configuration), ProtocolError with
  /// code `overloaded` when the priority lane is at its depth bound
  /// (counted in SchedulerStats::rejected_overload; on_accepted has NOT
  /// fired), and std::runtime_error after shutdown().  Returns the job id;
  /// by return, events.on_accepted has already fired.
  std::uint64_t submit(SolveCommand command, JobEvents events);

  CancelResult cancel(std::uint64_t id);

  /// Admission pre-check for transports that must answer before streaming
  /// (HTTP's 429): true when `priority`'s lane is at its depth bound — the
  /// rejection is counted (SchedulerStats::rejected_overload), so a caller
  /// returning the error to the client must not also call submit().
  [[nodiscard]] bool reject_overloaded(Priority priority);

  [[nodiscard]] SchedulerStats stats() const;
  [[nodiscard]] api::ServiceStats service_stats() const;

  /// Cancel everything outstanding (each job still gets its on_report,
  /// status "cancelled"), join the dispatcher, shut the service down.
  /// Idempotent; also run by the destructor.
  void shutdown();

  /// Job ids in the order their solve actually started (the first
  /// dispatcher pass after the service reported it running) — the
  /// observable priority/preemption order, for tests.
  [[nodiscard]] std::vector<std::uint64_t> started_order() const;

 private:
  using JobPtr = std::shared_ptr<detail::ServeJob>;
  struct Finalization {
    JobPtr job;
    std::string status;
    api::SolveReport report;
    std::string error;
  };

  void dispatch_loop();
  void finalize(const Finalization& f);

  SchedulerOptions options_;

  /// Dispatcher wake-up: `wake_pending_` under the leaf lock `wake_m_`.
  /// Declared before service_ so it outlives every transition callback the
  /// service can still fire while it shuts down.
  void wake_dispatcher();
  std::mutex wake_m_;
  std::condition_variable wake_cv_;
  bool wake_pending_ = false;

  api::SolverService service_;

  mutable std::mutex m_;
  std::array<std::deque<JobPtr>, kNumLanes> lanes_;
  std::unordered_map<std::uint64_t, JobPtr> jobs_;  ///< live (non-terminal)
  std::vector<JobPtr> inflight_;
  std::vector<std::uint64_t> started_order_;
  std::uint64_t next_id_ = 1;
  bool stopping_ = false;
  bool joined_ = false;

  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t preempted_queued_ = 0;
  std::uint64_t preempted_running_ = 0;
  std::uint64_t resumed_ = 0;
  std::uint64_t rejected_overload_ = 0;
  /// Submissions past the depth check but not yet laned (submit drops m_
  /// to fire on_accepted); counted by the admission bound so concurrent
  /// submits cannot overshoot it.
  std::array<std::size_t, kNumLanes> admitting_{};

  std::thread dispatcher_;
};

}  // namespace cspls::serve
