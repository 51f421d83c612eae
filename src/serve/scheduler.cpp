#include "serve/scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>


namespace cspls::serve {

namespace detail {

/// One admitted job, shared between the lanes, the dispatcher and any
/// cancel() caller.  Queue membership, phase and the service handle
/// are guarded by the scheduler mutex; the sample filter has its own lock
/// because walker threads hit it while the scheduler lock is busy.
struct ServeJob {
  std::uint64_t id = 0;
  SolveCommand command;
  JobEvents events;

  std::atomic<bool> cancel{false};

  /// The service handle's latest status and whether it ever ran, written
  /// by its JobStream::on_transition before the dispatcher is woken; the
  /// reap and preemption passes read these instead of probing the handle.
  std::atomic<api::JobStatus> service_status{api::JobStatus::kQueued};
  std::atomic<bool> service_ran{false};

  // Guarded by Scheduler::m_.
  api::JobHandle handle;         ///< once submitted to the service
  bool in_service = false;
  bool preempt_pending = false;  ///< cancelled to make room, requeue on reap
  bool started_recorded = false;

  // Sample/report serialization: on_sample fires under this lock so best
  // cost is strictly decreasing on the wire and nothing follows on_report.
  std::mutex sample_m;
  csp::Cost best_seen = csp::kInfiniteCost;
  bool reported = false;

  void offer_sample(std::size_t walker, std::uint64_t iteration,
                    csp::Cost cost) {
    std::lock_guard lock(sample_m);
    if (reported || cost >= best_seen) return;
    best_seen = cost;
    if (events.on_sample) events.on_sample(id, walker, iteration, cost);
  }

  void emit_report(std::string_view status, const api::SolveReport& report,
                   std::string_view error) {
    std::lock_guard lock(sample_m);
    if (reported) return;
    reported = true;
    if (events.on_report) events.on_report(id, status, report, error);
  }

  /// Running-preemption notice: the job is suspended and requeued, still
  /// live.  Shares the sample lock so it can never follow the report.
  void emit_preempted() {
    std::lock_guard lock(sample_m);
    if (reported) return;
    if (events.on_preempted) events.on_preempted(id);
  }
};

}  // namespace detail

namespace {

constexpr std::string_view kDone = "done";
constexpr std::string_view kCancelled = "cancelled";
constexpr std::string_view kFailed = "failed";

std::size_t lane_of(const detail::ServeJob& job) {
  return static_cast<std::size_t>(job.command.priority);
}

api::SolveReport cancelled_report(const detail::ServeJob& job) {
  api::SolveReport report;
  report.problem = job.command.request.problem;
  report.cancelled = true;
  return report;
}

std::string_view status_of(api::JobStatus status) {
  switch (status) {
    case api::JobStatus::kDone:
      return kDone;
    case api::JobStatus::kCancelled:
      return kCancelled;
    default:
      return kFailed;
  }
}

}  // namespace

util::Json SchedulerStats::to_json() const {
  util::Json json = util::Json::object();
  json.set("queued_high", static_cast<std::uint64_t>(queued[0]))
      .set("queued_normal", static_cast<std::uint64_t>(queued[1]))
      .set("queued_low", static_cast<std::uint64_t>(queued[2]))
      .set("inflight", static_cast<std::uint64_t>(inflight))
      .set("submitted", submitted)
      .set("completed", completed)
      .set("cancelled", cancelled)
      .set("failed", failed)
      .set("preempted_queued", preempted_queued)
      .set("preempted_running", preempted_running)
      .set("resumed", resumed)
      .set("rejected_overload", rejected_overload);
  return json;
}

Scheduler::Scheduler(SchedulerOptions options)
    : options_(std::move(options)), service_(options_.service) {
  if (options_.service_inflight == 0) options_.service_inflight = 1;
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

Scheduler::~Scheduler() { shutdown(); }

std::uint64_t Scheduler::submit(SolveCommand command, JobEvents events) {
  // Same submission-site validation as the service: the caller gets the
  // diagnostic now, not a failed job later.
  command.request.validate();

  auto job = std::make_shared<detail::ServeJob>();
  job->command = std::move(command);
  if (job->command.sample_period == 0) {
    job->command.sample_period = options_.default_sample_period;
  }
  job->events = std::move(events);
  const std::size_t lane_idx = lane_of(*job);
  {
    std::lock_guard lock(m_);
    if (stopping_) {
      throw std::runtime_error("serve::Scheduler: submit after shutdown");
    }
    // Admission control, before `accepted` can fire: a full lane rejects
    // with the stable `overloaded` code.  The in-admission count holds the
    // slot across the unlock below, so concurrent submits cannot overshoot
    // the bound.
    if (options_.max_lane_depth != 0 &&
        lanes_[lane_idx].size() + admitting_[lane_idx] >=
            options_.max_lane_depth) {
      ++rejected_overload_;
      throw ProtocolError(
          kErrOverloaded,
          "lane \"" + std::string(name_of(job->command.priority)) +
              "\" is at its depth bound of " +
              std::to_string(options_.max_lane_depth) + " queued jobs");
    }
    ++admitting_[lane_idx];
    job->id = next_id_++;
  }

  // Fired before the job is visible to the dispatcher, with no lock held:
  // `accepted` always precedes the first `sample`.
  if (job->events.on_accepted) job->events.on_accepted(job->id);

  bool raced_shutdown = false;
  {
    std::lock_guard lock(m_);
    --admitting_[lane_idx];
    if (stopping_) {
      raced_shutdown = true;
    } else {
      jobs_.emplace(job->id, job);
      lanes_[lane_idx].push_back(job);
      ++submitted_;
    }
  }
  if (raced_shutdown) {
    // Accepted already went out; close the job's stream honestly.
    job->emit_report(kCancelled, cancelled_report(*job), {});
    return job->id;
  }
  wake_dispatcher();
  return job->id;
}

Scheduler::CancelResult Scheduler::cancel(std::uint64_t id) {
  JobPtr dequeued;
  CancelResult result;
  {
    std::lock_guard lock(m_);
    if (id == 0 || id >= next_id_) return CancelResult::kUnknown;
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return CancelResult::kAlreadyTerminal;
    const JobPtr job = it->second;
    job->cancel.store(true, std::memory_order_relaxed);
    if (job->in_service) {
      // A client cancel outranks a pending preemption requeue.
      job->preempt_pending = false;
      (void)job->handle.cancel();
    } else {
      auto& lane = lanes_[lane_of(*job)];
      const auto pos = std::find(lane.begin(), lane.end(), job);
      if (pos != lane.end()) {
        // Still queued here: finalize directly, nobody else owns it.
        lane.erase(pos);
        jobs_.erase(it);
        ++cancelled_;
        dequeued = job;
      }
    }
    result = CancelResult::kCancelled;
  }
  wake_dispatcher();
  if (dequeued) dequeued->emit_report(kCancelled, cancelled_report(*dequeued), {});
  return result;
}

bool Scheduler::reject_overloaded(Priority priority) {
  const auto lane_idx = static_cast<std::size_t>(priority);
  std::lock_guard lock(m_);
  if (options_.max_lane_depth == 0 ||
      lanes_[lane_idx].size() + admitting_[lane_idx] <
          options_.max_lane_depth) {
    return false;
  }
  ++rejected_overload_;
  return true;
}

SchedulerStats Scheduler::stats() const {
  std::lock_guard lock(m_);
  SchedulerStats stats;
  for (std::size_t i = 0; i < kNumLanes; ++i) {
    stats.queued[i] = lanes_[i].size();
  }
  stats.inflight = inflight_.size();
  stats.submitted = submitted_;
  stats.completed = completed_;
  stats.cancelled = cancelled_;
  stats.failed = failed_;
  stats.preempted_queued = preempted_queued_;
  stats.preempted_running = preempted_running_;
  stats.resumed = resumed_;
  stats.rejected_overload = rejected_overload_;
  return stats;
}

api::ServiceStats Scheduler::service_stats() const { return service_.stats(); }

std::vector<std::uint64_t> Scheduler::started_order() const {
  std::lock_guard lock(m_);
  return started_order_;
}

void Scheduler::finalize(const Finalization& f) {
  f.job->emit_report(f.status, f.report, f.error);
}

void Scheduler::wake_dispatcher() {
  {
    std::lock_guard lock(wake_m_);
    wake_pending_ = true;
  }
  wake_cv_.notify_one();
}

void Scheduler::dispatch_loop() {
  for (;;) {
    {
      // Consume the wake before the pass: anything that changes while the
      // pass runs sets the flag again and buys the next pass.
      std::unique_lock lock(wake_m_);
      wake_cv_.wait(lock, [this] { return wake_pending_; });
      wake_pending_ = false;
    }
    std::vector<Finalization> done;
    std::vector<JobPtr> suspended;  ///< running-preempted: notify off-lock
    bool exit_after = false;
    {
      std::unique_lock lock(m_);

      // Reap: act on the status each in-flight job's last transition left.
      std::vector<JobPtr> requeue;  ///< preempted, in original FIFO order
      for (auto it = inflight_.begin(); it != inflight_.end();) {
        const JobPtr& job = *it;
        // Record a start only for a job that ran: a preempted job's handle
        // jumps kQueued -> kCancelled without ever executing, while a quick
        // one may go kRunning -> kDone between two passes.
        if (!job->started_recorded && job->service_ran.load()) {
          job->started_recorded = true;
          started_order_.push_back(job->id);
        }
        const api::JobStatus status = job->service_status.load();
        if (!api::is_terminal(status)) {
          ++it;
          continue;
        }
        if (job->preempt_pending &&
            status == api::JobStatus::kCancelled &&
            !job->cancel.load(std::memory_order_relaxed) && !stopping_) {
          // Preempted while still queued in the service (or a suspended
          // run whose capture failed and degraded to a cancel): back to
          // the front of its lane for a fresh from-scratch submission
          // after the stronger job.
          job->preempt_pending = false;
          job->in_service = false;
          job->handle = api::JobHandle{};
          requeue.push_back(job);
          ++preempted_queued_;
        } else if (status == api::JobStatus::kPreempted &&
                   !job->cancel.load(std::memory_order_relaxed) &&
                   !stopping_) {
          // Suspended mid-run: carry the checkpoint back to the front of
          // the lane — the next claim resumes the walk where it stopped.
          job->preempt_pending = false;
          job->in_service = false;
          job->command.request.resume_from = job->handle.take_checkpoint();
          job->handle = api::JobHandle{};
          requeue.push_back(job);
          ++preempted_running_;
          suspended.push_back(job);
        } else {
          if (status == api::JobStatus::kPreempted) {
            // Suspended, but the client cancelled (or the scheduler is
            // stopping) before the requeue: the checkpoint is moot — the
            // job resolves as a plain cancel.
            done.push_back(Finalization{job, std::string(kCancelled),
                                        cancelled_report(*job),
                                        std::string{}});
            ++cancelled_;
          } else {
            done.push_back(Finalization{job, std::string(status_of(status)),
                                        job->handle.report(),
                                        job->handle.error()});
            if (status == api::JobStatus::kDone) {
              ++completed_;
            } else if (status == api::JobStatus::kCancelled) {
              ++cancelled_;
            } else {
              ++failed_;
            }
          }
          jobs_.erase(job->id);
          // Dropping the handle also drops the service job's stream, whose
          // sample sink holds this job: no reference cycle outlives it.
          job->in_service = false;
          job->handle = api::JobHandle{};
        }
        it = inflight_.erase(it);
      }
      // Requeue preempted jobs at the front of their lanes, preserving
      // their relative FIFO order (reverse iteration + push_front).
      for (auto rit = requeue.rbegin(); rit != requeue.rend(); ++rit) {
        lanes_[lane_of(**rit)].push_front(*rit);
      }

      // Preempt: a stronger lane is waiting while weaker in-flight jobs
      // are still queued inside the service — cancel them to make room.
      if (!stopping_) {
        std::size_t strongest_waiting = kNumLanes;
        for (std::size_t i = 0; i < kNumLanes; ++i) {
          if (!lanes_[i].empty()) {
            strongest_waiting = i;
            break;
          }
        }
        if (strongest_waiting < kNumLanes) {
          bool queued_victim = false;
          for (const JobPtr& job : inflight_) {
            if (!job->preempt_pending && lane_of(*job) > strongest_waiting &&
                job->service_status.load() == api::JobStatus::kQueued) {
              if (job->handle.cancel()) {
                job->preempt_pending = true;
                queued_victim = true;
              }
            }
          }
          // No queued victim and no room to just submit the stronger job:
          // suspend the weakest *running* job to a checkpoint.  Its
          // preempt_pending marks the suspension in flight; the reap above
          // requeues it (checkpoint in hand, or degraded to a plain
          // cancel-requeue when the capture failed).
          if (options_.preempt_running && !queued_victim &&
              inflight_.size() >= options_.service_inflight) {
            JobPtr victim;
            for (const JobPtr& job : inflight_) {
              if (job->preempt_pending) continue;
              if (lane_of(*job) <= strongest_waiting) continue;
              const api::JobStatus status = job->service_status.load();
              if (status != api::JobStatus::kRunning &&
                  status != api::JobStatus::kDegraded) {
                continue;
              }
              if (!victim || lane_of(*job) > lane_of(*victim)) victim = job;
            }
            if (victim && victim->handle.suspend()) {
              victim->preempt_pending = true;
            }
          }
        }

        // Submit: fill the service up to the in-flight cap, strongest
        // lane first.
        while (inflight_.size() < options_.service_inflight) {
          JobPtr job;
          for (auto& lane : lanes_) {
            if (!lane.empty()) {
              job = lane.front();
              lane.pop_front();
              break;
            }
          }
          if (!job) break;
          if (job->cancel.load(std::memory_order_relaxed)) {
            done.push_back(
                Finalization{job, std::string(kCancelled),
                             cancelled_report(*job), std::string{}});
            jobs_.erase(job->id);
            ++cancelled_;
            continue;
          }
          api::JobStream stream;
          // A leaf-lock-only callback: two atomic stores and the wake flag.
          // The weak reference keeps the service job from owning this one.
          stream.on_transition = [this, weak = std::weak_ptr<detail::ServeJob>(
                                            job)](api::JobStatus status) {
            if (const JobPtr live = weak.lock()) {
              if (status == api::JobStatus::kRunning ||
                  status == api::JobStatus::kDegraded) {
                live->service_ran.store(true);
              }
              live->service_status.store(status);
            }
            wake_dispatcher();
          };
          if (job->command.stream && job->command.sample_period != 0) {
            const JobPtr sink = job;
            stream.on_sample = [sink](std::size_t walker,
                                      std::uint64_t iteration,
                                      csp::Cost cost) {
              sink->offer_sample(walker, iteration, cost);
            };
            stream.sample_period = job->command.sample_period;
          }
          // Before submit: the job's first transition can fire before submit
          // returns.
          job->service_status.store(api::JobStatus::kQueued);
          try {
            job->handle = service_.submit(job->command.request,
                                          std::move(stream));
          } catch (const std::exception& ex) {
            done.push_back(Finalization{job, std::string(kFailed),
                                        api::SolveReport{}, ex.what()});
            jobs_.erase(job->id);
            ++failed_;
            continue;
          }
          if (job->command.request.resume_from.has_value()) ++resumed_;
          job->in_service = true;
          inflight_.push_back(job);
        }
      }

      if (stopping_ && inflight_.empty()) {
        // Drain anything still laned (shutdown raced a requeue).
        for (auto& lane : lanes_) {
          while (!lane.empty()) {
            const JobPtr job = lane.front();
            lane.pop_front();
            done.push_back(Finalization{job, std::string(kCancelled),
                                        cancelled_report(*job),
                                        std::string{}});
            jobs_.erase(job->id);
            ++cancelled_;
          }
        }
        exit_after = true;
      }
    }

    for (const JobPtr& job : suspended) job->emit_preempted();
    for (const Finalization& f : done) finalize(f);
    if (exit_after) return;
  }
}

void Scheduler::shutdown() {
  std::vector<Finalization> done;
  {
    std::lock_guard lock(m_);
    if (joined_) return;
    stopping_ = true;
    // Drain the lanes: queued jobs finalize as cancelled right here.
    for (auto& lane : lanes_) {
      while (!lane.empty()) {
        const JobPtr job = lane.front();
        lane.pop_front();
        done.push_back(Finalization{job, std::string(kCancelled),
                                    cancelled_report(*job), std::string{}});
        jobs_.erase(job->id);
        ++cancelled_;
      }
    }
    // Anything still live is held by the service: flag it.
    for (const auto& [id, job] : jobs_) {
      job->cancel.store(true, std::memory_order_relaxed);
      if (job->in_service) (void)job->handle.cancel();
    }
  }
  wake_dispatcher();
  for (const Finalization& f : done) finalize(f);
  if (dispatcher_.joinable()) dispatcher_.join();
  service_.shutdown();
  {
    std::lock_guard lock(m_);
    joined_ = true;
  }
}

}  // namespace cspls::serve
