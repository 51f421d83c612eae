// api::SolverService: concurrent jobs under a bounded thread budget, FIFO
// admission, cancellation of queued and running jobs, failure surfacing,
// shutdown semantics and the per-job status-transition callback.
#include "api/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "util/timer.hpp"

namespace cspls::api {
namespace {

using std::chrono::milliseconds;

SolveRequest quick_request(std::uint64_t seed) {
  SolveRequest request;
  request.problem = "costas:9";
  request.walkers = 2;
  request.seed = seed;
  request.scheduling = parallel::Scheduling::kThreads;
  request.termination = parallel::Termination::kFirstFinisher;
  return request;
}

SolveRequest endless_request(std::uint64_t seed) {
  // Unsolvable instance with an hours-long budget: only cancel/deadline
  // (or service shutdown) ends it in test time.
  SolveRequest request;
  request.problem = "langford:5";
  request.walkers = 2;
  request.seed = seed;
  request.scheduling = parallel::Scheduling::kThreads;
  request.termination = parallel::Termination::kBestAfterBudget;
  core::Params params;
  params.restart_limit = 1'000'000'000'000;  // ~a day even at 10M it/s
  params.max_restarts = 0;
  request.params = params;
  return request;
}

TEST(SolverService, RunsConcurrentJobsUnderAThreadBudget) {
  SolverService service(SolverService::Options{2, 0});
  EXPECT_EQ(service.thread_budget(), 2u);

  std::vector<JobHandle> jobs;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    jobs.push_back(service.submit(quick_request(seed)));
  }
  for (const JobHandle& job : jobs) {
    const SolveReport& report = job.wait();
    EXPECT_TRUE(report.solved);
    EXPECT_FALSE(report.cancelled);
    EXPECT_EQ(job.status(), JobStatus::kDone);
  }
  EXPECT_EQ(service.pending_jobs(), 0u);
}

TEST(SolverService, BudgetOfOneStillCompletesEveryJob) {
  SolverService service(SolverService::Options{1, 0});
  std::vector<JobHandle> jobs;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    jobs.push_back(service.submit(quick_request(seed)));
  }
  for (const JobHandle& job : jobs) {
    EXPECT_TRUE(job.wait().solved);
  }
}

TEST(SolverService, ResultsAreDeterministicUnderQueueing) {
  // The thread budget shapes *when* a job runs, never its trajectory: the
  // same request solved directly and through a contended queue agree.
  SolveRequest request = quick_request(77);
  request.termination = parallel::Termination::kBestAfterBudget;
  const SolveReport direct = Solver::solve(request);

  SolverService service(SolverService::Options{1, 0});
  std::vector<JobHandle> jobs;
  for (int i = 0; i < 3; ++i) jobs.push_back(service.submit(request));
  for (const JobHandle& job : jobs) {
    const SolveReport& queued = job.wait();
    EXPECT_EQ(queued.solved, direct.solved);
    EXPECT_EQ(queued.winner, direct.winner);
    EXPECT_EQ(queued.cost, direct.cost);
    EXPECT_EQ(queued.solution, direct.solution);
    EXPECT_EQ(queued.total_iterations, direct.total_iterations);
  }
}

TEST(SolverService, CancelStopsARunningThreadsJob) {
  SolverService service(SolverService::Options{2, 0});
  const JobHandle job = service.submit(endless_request(5));

  // Wait for admission, then let the walkers actually run a bit.
  util::Stopwatch watch;
  while (job.status() == JobStatus::kQueued && watch.elapsed_seconds() < 10.0) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  ASSERT_EQ(job.status(), JobStatus::kRunning);
  std::this_thread::sleep_for(milliseconds(50));

  EXPECT_TRUE(job.cancel());
  ASSERT_TRUE(job.wait_for(milliseconds(30'000)));
  EXPECT_EQ(job.status(), JobStatus::kCancelled);
  const SolveReport& report = job.wait();  // cancelled jobs return normally
  EXPECT_TRUE(report.cancelled);
  EXPECT_FALSE(report.solved);
  // Anytime contract: the partial run still reports its best state.
  EXPECT_FALSE(report.walkers.empty());
  EXPECT_FALSE(job.cancel());  // already terminal
}

TEST(SolverService, CancelAQueuedJobBeforeItRuns) {
  SolverService service(SolverService::Options{1, 0});
  const JobHandle running = service.submit(endless_request(6));
  const JobHandle queued = service.submit(quick_request(1));

  // The budget of one is held by `running`, so `queued` sits in the FIFO.
  EXPECT_TRUE(queued.cancel());
  ASSERT_TRUE(queued.wait_for(milliseconds(30'000)));
  EXPECT_EQ(queued.status(), JobStatus::kCancelled);
  EXPECT_TRUE(queued.wait().cancelled);

  EXPECT_TRUE(running.cancel());
  ASSERT_TRUE(running.wait_for(milliseconds(30'000)));
}

TEST(SolverService, DeadlinesWorkThroughTheService) {
  SolverService service(SolverService::Options{2, 0});
  SolveRequest request = endless_request(7);
  request.deadline_ms = 100;
  const JobHandle job = service.submit(request);
  ASSERT_TRUE(job.wait_for(milliseconds(60'000)));
  const SolveReport& report = job.wait();
  EXPECT_EQ(job.status(), JobStatus::kDone);  // ended on its own (deadline)
  EXPECT_TRUE(report.deadline_expired);
  EXPECT_FALSE(report.cancelled);
  EXPECT_GT(report.wall_seconds, 0.0);
}

TEST(SolverService, SubmitRejectsBadSpecsSynchronously) {
  SolverService service(SolverService::Options{1, 0});
  SolveRequest request = quick_request(1);
  request.problem = "knapsack:10";
  try {
    (void)service.submit(request);
    FAIL() << "bad spec accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("valid names"), std::string::npos);
  }
  EXPECT_EQ(service.pending_jobs(), 0u);
}

TEST(SolverService, SubmitRejectsDegeneratePoolOptionsSynchronously) {
  // Degenerate WalkerPool configurations fail at the submission site (the
  // submit contract), not as an asynchronously kFailed job.
  SolverService service(SolverService::Options{1, 0});
  SolveRequest zero_walkers = quick_request(1);
  zero_walkers.walkers = 0;
  EXPECT_THROW((void)service.submit(zero_walkers), std::invalid_argument);
  SolveRequest silent_exchange = quick_request(1);
  silent_exchange.neighborhood = parallel::Neighborhood::kRing;
  silent_exchange.exchange = parallel::Exchange::kElite;
  silent_exchange.comm_period = 0;
  EXPECT_THROW((void)service.submit(silent_exchange), std::invalid_argument);
  EXPECT_EQ(service.pending_jobs(), 0u);
}

TEST(SolverService, SubmitAfterShutdownReportsShutdownNotValidation) {
  // Regression: submit() used to validate the request *before* checking the
  // shutdown flag, so a malformed request submitted after shutdown was
  // misreported as a parse/validation error.  Shutdown wins: every
  // post-shutdown submission fails the same way, malformed or not.
  SolverService service(SolverService::Options{1, 0});
  service.shutdown();

  SolveRequest malformed = quick_request(1);
  malformed.problem = "knapsack:10";  // would fail validation
  try {
    (void)service.submit(malformed);
    FAIL() << "submit accepted after shutdown";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("submit after shutdown"),
              std::string::npos)
        << e.what();
  } catch (const std::invalid_argument& e) {
    FAIL() << "validation error leaked past shutdown: " << e.what();
  }

  // A perfectly valid request is rejected identically.
  EXPECT_THROW((void)service.submit(quick_request(2)), std::runtime_error);
  EXPECT_EQ(service.pending_jobs(), 0u);
}

TEST(SolverService, ShutdownIsIdempotentAndCancelsOutstandingJobs) {
  SolverService service(SolverService::Options{1, 0});
  const JobHandle running = service.submit(endless_request(11));
  const JobHandle queued = service.submit(endless_request(12));
  service.shutdown();
  service.shutdown();  // second call is a no-op
  EXPECT_EQ(running.status(), JobStatus::kCancelled);
  EXPECT_EQ(queued.status(), JobStatus::kCancelled);
  EXPECT_TRUE(queued.wait().cancelled);
}

TEST(SolverService, DestructionCancelsOutstandingJobs) {
  JobHandle survivor;
  {
    SolverService service(SolverService::Options{1, 0});
    survivor = service.submit(endless_request(8));
    (void)service.submit(endless_request(9));  // stays queued behind it
    // Service destructor: cancels both, joins workers.
  }
  ASSERT_TRUE(survivor.valid());
  ASSERT_TRUE(survivor.wait_for(milliseconds(1)));  // already terminal
  EXPECT_EQ(survivor.status(), JobStatus::kCancelled);
}

TEST(SolverService, InvalidHandleThrowsInsteadOfCrashing) {
  JobHandle handle;
  EXPECT_FALSE(handle.valid());
  EXPECT_THROW((void)handle.id(), std::logic_error);
  EXPECT_THROW((void)handle.status(), std::logic_error);
  EXPECT_THROW((void)handle.wait(), std::logic_error);
  EXPECT_THROW((void)handle.wait_for(milliseconds(1)), std::logic_error);
  EXPECT_THROW((void)handle.cancel(), std::logic_error);
}

TEST(SolverService, DeepQueueDrainsWithoutThreadGrowth) {
  // Submission only enqueues (no thread per queued job): a queue much
  // deeper than the budget must drain completely.
  SolverService service(SolverService::Options{2, 0});
  std::vector<JobHandle> jobs;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SolveRequest request = quick_request(seed);
    request.walkers = 1;
    jobs.push_back(service.submit(request));
  }
  for (const JobHandle& job : jobs) {
    EXPECT_TRUE(job.wait().solved);
  }
  EXPECT_EQ(service.pending_jobs(), 0u);
}

// --- Shutdown / completion races (exercised under the CI TSan leg) -----

TEST(SolverServiceRaces, ShutdownWithJobsStillQueued) {
  // Shutdown while the FIFO is deep: every queued job must resolve
  // kCancelled exactly once, with no handle left hanging — regardless of
  // how far the dispatcher got with admissions.
  for (int round = 0; round < 4; ++round) {
    SolverService service(SolverService::Options{1, 0});
    std::vector<JobHandle> jobs;
    jobs.push_back(service.submit(endless_request(100 + round)));
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      jobs.push_back(service.submit(quick_request(seed)));
    }
    service.shutdown();
    for (const JobHandle& job : jobs) {
      ASSERT_TRUE(job.wait_for(milliseconds(1)));  // already terminal
      EXPECT_EQ(job.status(), JobStatus::kCancelled);
      EXPECT_TRUE(job.report().cancelled);
    }
    EXPECT_EQ(service.pending_jobs(), 0u);
  }
}

TEST(SolverServiceRaces, CancelRacingNaturalCompletion) {
  // cancel() fired from another thread while quick jobs finish on their
  // own: whichever side wins, the job lands in exactly one terminal state
  // and the report matches it (a late cancel must never wrap a solved,
  // uncancelled report in a kCancelled status).
  SolverService service(SolverService::Options{2, 0});
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const JobHandle job = service.submit(quick_request(seed));
    std::jthread canceller([&job] { (void)job.cancel(); });
    ASSERT_TRUE(job.wait_for(milliseconds(60'000)));
    canceller.join();
    const JobStatus status = job.status();
    const SolveReport& report = job.report();
    if (status == JobStatus::kCancelled) {
      EXPECT_TRUE(report.cancelled);
    } else {
      ASSERT_EQ(status, JobStatus::kDone);
      EXPECT_FALSE(report.cancelled);
    }
    // Terminal is terminal: the loser of the race cannot re-open the job.
    EXPECT_FALSE(job.cancel());
    EXPECT_EQ(job.status(), status);
  }
}

TEST(SolverServiceRaces, ConcurrentWaitersAllObserveTheSameReport) {
  // Several threads in wait() plus repeated wait() on one handle: every
  // waiter must return the same terminal report object (wait() after
  // terminal is a pure read, never a second consume).
  SolverService service(SolverService::Options{2, 0});
  const JobHandle job = service.submit(quick_request(5));
  const SolveReport* seen[3] = {nullptr, nullptr, nullptr};
  {
    std::vector<std::jthread> waiters;
    for (int i = 0; i < 3; ++i) {
      waiters.emplace_back([&job, &seen, i] { seen[i] = &job.wait(); });
    }
  }
  EXPECT_EQ(seen[0], seen[1]);
  EXPECT_EQ(seen[1], seen[2]);
  // Double-wait on the same thread: identical reference, unchanged report.
  const SolveReport& first = job.wait();
  const SolveReport& second = job.wait();
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(first.to_json_string(), second.to_json_string());
  EXPECT_EQ(&first, seen[0]);
}

TEST(SolverService, SequentialJobsLeaseOneSlotAndFinish) {
  SolverService service(SolverService::Options{2, 0});
  SolveRequest request = quick_request(3);
  request.scheduling = parallel::Scheduling::kSequential;
  request.termination = parallel::Termination::kBestAfterBudget;
  const JobHandle job = service.submit(request);
  EXPECT_TRUE(job.wait().solved);
}

TEST(SolverService, StatsSnapshotTracksLifecycleAndEncodesToJson) {
  SolverService service(SolverService::Options{2, 0});
  const ServiceStats fresh = service.stats();
  EXPECT_EQ(fresh.submitted, 0u);
  EXPECT_EQ(fresh.thread_budget, 2u);
  EXPECT_EQ(fresh.free_threads, 2u);

  const JobHandle done = service.submit(quick_request(1));
  (void)done.wait();
  JobHandle cancelled = service.submit(endless_request(2));
  EXPECT_TRUE(cancelled.cancel());
  ASSERT_TRUE(cancelled.wait_for(milliseconds(30'000)));

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.running, 0u);
  EXPECT_EQ(stats.free_threads, stats.thread_budget);

  // The JSON snapshot mirrors the struct, and a quiescent service
  // snapshots byte-identically twice.
  const util::Json json = stats.to_json();
  EXPECT_EQ(json.at("submitted").as_uint64(), 2u);
  EXPECT_EQ(json.at("completed").as_uint64(), 1u);
  EXPECT_EQ(json.at("cancelled").as_uint64(), 1u);
  EXPECT_TRUE(json.contains("retried"));
  EXPECT_TRUE(json.contains("degraded"));
  EXPECT_EQ(json.dump(0), service.stats().to_json().dump(0));
}

TEST(SolverService, StreamedSamplesArriveWhileMultiplexingWithWaitFor) {
  SolverService service(SolverService::Options{2, 0});
  SolveRequest request = quick_request(7);
  request.walkers = 1;
  request.scheduling = parallel::Scheduling::kSequential;

  std::mutex m;
  std::vector<std::pair<std::uint64_t, csp::Cost>> samples;
  JobStream stream;
  stream.sample_period = 1;
  stream.on_sample = [&m, &samples](std::size_t walker,
                                    std::uint64_t iteration, csp::Cost cost) {
    EXPECT_EQ(walker, 0u);
    std::lock_guard lock(m);
    samples.emplace_back(iteration, cost);
  };
  const JobHandle job = service.submit(std::move(request), std::move(stream));

  // Multiplex idiom: bounded waits instead of a blocking wait(), leaving
  // the loop free to service other work between polls.
  while (!job.wait_for(milliseconds(10))) {
  }
  EXPECT_EQ(job.status(), JobStatus::kDone);
  const SolveReport& report = job.wait();

  std::lock_guard lock(m);
  ASSERT_GE(samples.size(), 1u);
  EXPECT_EQ(samples.front().first, 0u);  // the walk samples at iteration 0
  for (const auto& [iteration, cost] : samples) {
    // Samples carry the *current* cost, never better than the final best.
    EXPECT_GE(cost, report.cost);
  }
}

SolveRequest fusible_request(std::uint64_t seed) {
  // Single-lease (sequential), no retry, no watchdog: exactly what the
  // dispatcher's fusion scan admits into one fused launch.
  SolveRequest request;
  request.problem = "costas:9";
  request.walkers = 2;
  request.seed = seed;
  request.scheduling = parallel::Scheduling::kSequential;
  request.termination = parallel::Termination::kBestAfterBudget;
  return request;
}

TEST(SolverService, SubmitBatchFusesSmallJobsWithSoloIdenticalReports) {
  SolverService service(SolverService::Options{4, 0});
  std::vector<SolveRequest> batch;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    batch.push_back(fusible_request(seed));
  }
  const std::vector<JobHandle> jobs = service.submit_batch(batch);
  ASSERT_EQ(jobs.size(), batch.size());

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const SolveReport& fused = jobs[i].wait();
    EXPECT_EQ(jobs[i].status(), JobStatus::kDone);
    EXPECT_EQ(fused.attempts, 1u);
    // Trajectory-identical to the same request solved directly.
    const SolveReport solo = Solver::solve(batch[i]);
    EXPECT_EQ(fused.solved, solo.solved);
    EXPECT_EQ(fused.winner, solo.winner);
    EXPECT_EQ(fused.cost, solo.cost);
    EXPECT_EQ(fused.solution, solo.solution);
    EXPECT_EQ(fused.total_iterations, solo.total_iterations);
  }

  // The whole batch was enqueued under one lock with the budget free, so
  // the dispatcher saw all four at the FIFO head and fused them as one.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.fused_batches, 1u);
  EXPECT_EQ(stats.fused_jobs, 4u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.submitted, 4u);
  const util::Json json = stats.to_json();
  EXPECT_EQ(json.at("fused_batches").as_uint64(), 1u);
  EXPECT_EQ(json.at("fused_jobs").as_uint64(), 4u);
}

TEST(SolverService, SubmitBatchValidationIsAllOrNothing) {
  SolverService service(SolverService::Options{2, 0});
  std::vector<SolveRequest> batch;
  batch.push_back(fusible_request(1));
  batch.push_back(fusible_request(2));
  batch[1].problem = "no-such-problem:9";
  EXPECT_THROW((void)service.submit_batch(batch), std::invalid_argument);
  EXPECT_EQ(service.stats().submitted, 0u);
  EXPECT_EQ(service.pending_jobs(), 0u);

  service.shutdown();
  batch[1] = fusible_request(2);
  EXPECT_THROW((void)service.submit_batch(batch), std::runtime_error);
}

TEST(SolverService, NonFusibleJobsStayOnTheSoloPath) {
  // Multi-thread leases never fuse: the scan stops at the first job whose
  // desired lease exceeds one, so kThreads jobs keep their solo workers.
  SolverService service(SolverService::Options{4, 0});
  std::vector<SolveRequest> batch;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    batch.push_back(quick_request(seed));  // kThreads, walkers = 2
  }
  const std::vector<JobHandle> jobs = service.submit_batch(batch);
  for (const JobHandle& job : jobs) {
    EXPECT_TRUE(job.wait().solved);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.fused_batches, 0u);
  EXPECT_EQ(stats.fused_jobs, 0u);
  EXPECT_EQ(stats.completed, 3u);
}

TEST(SolverService, CancelCutsAFusedMemberAndSparesItsSiblings) {
  // A fused member's cancel flag is its own stop token: cancelling one
  // member of a fused launch reports that member cancelled while siblings
  // run to completion.
  SolverService service(SolverService::Options{4, 0});
  std::vector<SolveRequest> batch;
  batch.push_back(fusible_request(1));
  SolveRequest endless = endless_request(2);
  endless.scheduling = parallel::Scheduling::kSequential;
  endless.walkers = 1;
  batch.push_back(endless);
  batch.push_back(fusible_request(3));

  const std::vector<JobHandle> jobs = service.submit_batch(batch);
  ASSERT_TRUE(jobs[0].wait_for(milliseconds(30'000)));
  ASSERT_TRUE(jobs[2].wait_for(milliseconds(30'000)));
  EXPECT_TRUE(jobs[0].report().solved);
  EXPECT_TRUE(jobs[2].report().solved);
  EXPECT_FALSE(jobs[1].wait_for(milliseconds(0)));  // still walking

  EXPECT_TRUE(jobs[1].cancel());
  ASSERT_TRUE(jobs[1].wait_for(milliseconds(30'000)));
  EXPECT_EQ(jobs[1].status(), JobStatus::kCancelled);
  EXPECT_TRUE(jobs[1].report().cancelled);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.fused_batches, 1u);
  EXPECT_EQ(stats.fused_jobs, 3u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.cancelled, 1u);
}

TEST(SolverService, SuspendARunningJobYieldsItsCheckpoint) {
  SolverService service(SolverService::Options{2, 0});
  const JobHandle job = service.submit(endless_request(5));

  util::Stopwatch watch;
  while (job.status() == JobStatus::kQueued && watch.elapsed_seconds() < 10.0) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  ASSERT_EQ(job.status(), JobStatus::kRunning);
  std::this_thread::sleep_for(milliseconds(50));

  // take_checkpoint on a live job is a caller bug, not a race to tolerate.
  EXPECT_THROW((void)job.take_checkpoint(), std::logic_error);

  EXPECT_TRUE(job.suspend());
  ASSERT_TRUE(job.wait_for(milliseconds(30'000)));
  EXPECT_EQ(job.status(), JobStatus::kPreempted);
  EXPECT_TRUE(job.wait().preempted);
  EXPECT_FALSE(job.wait().cancelled);

  const std::optional<parallel::PoolCheckpoint> checkpoint =
      job.take_checkpoint();
  ASSERT_TRUE(checkpoint.has_value());
  EXPECT_EQ(checkpoint->walkers.size(), 2u);
  // The slot is emptied on take; a second take finds nothing.
  EXPECT_FALSE(job.take_checkpoint().has_value());
  EXPECT_FALSE(job.suspend());  // already terminal

  // Resubmission with the checkpoint resumes the walk; it is still endless,
  // so cancel ends it.
  SolveRequest resumed = endless_request(5);
  resumed.resume_from = checkpoint;
  const JobHandle second = service.submit(resumed);
  EXPECT_TRUE(second.cancel());
  ASSERT_TRUE(second.wait_for(milliseconds(30'000)));

  EXPECT_EQ(service.stats().preempted, 1u);
  EXPECT_TRUE(service.stats().to_json().contains("preempted"));
}

TEST(SolverService, SuspendAQueuedJobPreemptsItWithoutACheckpoint) {
  SolverService service(SolverService::Options{1, 0});
  const JobHandle running = service.submit(endless_request(6));
  const JobHandle queued = service.submit(endless_request(7));

  // The budget of one is held by `running`; the queued job never started,
  // so there is no walker state to capture.
  EXPECT_TRUE(queued.suspend());
  ASSERT_TRUE(queued.wait_for(milliseconds(30'000)));
  EXPECT_EQ(queued.status(), JobStatus::kPreempted);
  EXPECT_FALSE(queued.take_checkpoint().has_value());

  EXPECT_TRUE(running.cancel());
  ASSERT_TRUE(running.wait_for(milliseconds(30'000)));
}

TEST(SolverService, SuspendAndResumeReproducesTheUninterruptedReport) {
  // Byte-identity through the whole service path: a job suspended to a
  // checkpoint and resubmitted with resume_from reports exactly what the
  // uninterrupted run reports (trajectory, winner, counters).
  SolveRequest request = quick_request(77);
  request.walkers = 2;
  request.scheduling = parallel::Scheduling::kSequential;
  request.termination = parallel::Termination::kBestAfterBudget;
  const SolveReport direct = Solver::solve(request);

  SolverService service(SolverService::Options{2, 0});
  const JobHandle job = service.submit(request);
  (void)job.suspend();  // may land while queued, running, or done — all fine
  ASSERT_TRUE(job.wait_for(milliseconds(30'000)));

  SolveReport resumed;
  if (job.status() == JobStatus::kPreempted) {
    SolveRequest rest = request;
    rest.resume_from = job.take_checkpoint();  // nullopt = start over
    resumed = service.submit(rest).wait();
  } else {
    // The job outran the suspension: its own report is the resumed run.
    ASSERT_EQ(job.status(), JobStatus::kDone);
    resumed = job.wait();
  }
  EXPECT_EQ(resumed.solved, direct.solved);
  EXPECT_EQ(resumed.winner, direct.winner);
  EXPECT_EQ(resumed.cost, direct.cost);
  EXPECT_EQ(resumed.solution, direct.solution);
  EXPECT_EQ(resumed.total_iterations, direct.total_iterations);
}

/// Logs a job's on_transition calls as (status passed, status the job's
/// handle showed inside the callback).  The callback's lock is a leaf, as
/// the JobStream contract requires: nothing is called under it but the
/// handle's own status().
class TransitionLog {
 public:
  /// Submit behind `blocker`, which must hold the whole thread budget: the
  /// job stays queued, so no transition fires before its handle is logged.
  JobHandle submit_behind(const JobHandle& blocker, SolverService& service,
                          SolveRequest request) {
    EXPECT_TRUE(eventually_running(blocker));
    JobStream stream;
    stream.on_transition = [this](JobStatus status) {
      std::lock_guard lock(m_);
      std::optional<JobStatus> visible;
      if (handle_.valid()) visible = handle_.status();
      calls_.emplace_back(status, visible);
      cv_.notify_all();
    };
    const JobHandle handle = service.submit(std::move(request), std::move(stream));
    std::lock_guard lock(m_);
    handle_ = handle;
    return handle;
  }

  /// Block until a call with `status` arrived.
  [[nodiscard]] bool wait_for_call(JobStatus status) {
    std::unique_lock lock(m_);
    return cv_.wait_for(lock, milliseconds(30'000), [&] {
      return std::any_of(calls_.begin(), calls_.end(),
                         [&](const auto& call) { return call.first == status; });
    });
  }

  /// The statuses passed, in order; each must already have been visible
  /// through the handle, and exactly one terminal status must come last.
  [[nodiscard]] std::vector<JobStatus> checked_statuses() {
    std::lock_guard lock(m_);
    std::vector<JobStatus> statuses;
    for (const auto& [passed, visible] : calls_) {
      EXPECT_EQ(visible, std::optional<JobStatus>(passed)) << name_of(passed);
      statuses.push_back(passed);
    }
    EXPECT_EQ(std::count_if(statuses.begin(), statuses.end(), is_terminal), 1);
    EXPECT_TRUE(!statuses.empty() && is_terminal(statuses.back()));
    return statuses;
  }

 private:
  static bool eventually_running(const JobHandle& job) {
    util::Stopwatch watch;
    while (job.status() == JobStatus::kQueued && watch.elapsed_seconds() < 30.0) {
      std::this_thread::sleep_for(milliseconds(1));
    }
    return job.status() == JobStatus::kRunning;
  }

  std::mutex m_;
  std::condition_variable cv_;
  JobHandle handle_;
  std::vector<std::pair<JobStatus, std::optional<JobStatus>>> calls_;
};

using Statuses = std::vector<JobStatus>;

// Every case runs with a budget of one held by an endless blocker, so the
// logged job starts only when the test releases the blocker.

TEST(SolverServiceTransitions, ANormalRunReportsRunningThenDone) {
  TransitionLog log;  // declared first: outlives every callback
  SolverService service(SolverService::Options{1, 0});
  const JobHandle blocker = service.submit(endless_request(1));
  const JobHandle job = log.submit_behind(blocker, service, quick_request(3));
  EXPECT_TRUE(blocker.cancel());
  EXPECT_TRUE(job.wait().solved);
  service.shutdown();
  EXPECT_EQ(log.checked_statuses(),
            (Statuses{JobStatus::kRunning, JobStatus::kDone}));
}

TEST(SolverServiceTransitions, AQueuedCancelReportsOnlyCancelled) {
  TransitionLog log;
  SolverService service(SolverService::Options{1, 0});
  const JobHandle blocker = service.submit(endless_request(1));
  const JobHandle job = log.submit_behind(blocker, service, endless_request(2));
  EXPECT_TRUE(job.cancel());
  ASSERT_TRUE(job.wait_for(milliseconds(30'000)));
  EXPECT_TRUE(blocker.cancel());
  service.shutdown();
  EXPECT_EQ(log.checked_statuses(), (Statuses{JobStatus::kCancelled}));
}

TEST(SolverServiceTransitions, AQueuedSuspendReportsOnlyPreempted) {
  TransitionLog log;
  SolverService service(SolverService::Options{1, 0});
  const JobHandle blocker = service.submit(endless_request(1));
  const JobHandle job = log.submit_behind(blocker, service, endless_request(2));
  EXPECT_TRUE(job.suspend());
  ASSERT_TRUE(job.wait_for(milliseconds(30'000)));
  EXPECT_TRUE(blocker.cancel());
  service.shutdown();
  EXPECT_EQ(log.checked_statuses(), (Statuses{JobStatus::kPreempted}));
}

TEST(SolverServiceTransitions, ARunningSuspendReportsRunningThenPreempted) {
  TransitionLog log;
  SolverService service(SolverService::Options{1, 0});
  const JobHandle blocker = service.submit(endless_request(1));
  const JobHandle job = log.submit_behind(blocker, service, endless_request(3));
  EXPECT_TRUE(blocker.cancel());
  ASSERT_TRUE(log.wait_for_call(JobStatus::kRunning));
  EXPECT_TRUE(job.suspend());
  ASSERT_TRUE(job.wait_for(milliseconds(30'000)));
  service.shutdown();
  EXPECT_EQ(log.checked_statuses(),
            (Statuses{JobStatus::kRunning, JobStatus::kPreempted}));
}

TEST(SolverServiceTransitions, ShutdownReportsCancelledLastForEveryJob) {
  TransitionLog running_log;
  TransitionLog queued_log;
  SolverService service(SolverService::Options{1, 0});
  const JobHandle blocker = service.submit(endless_request(1));
  const JobHandle running =
      running_log.submit_behind(blocker, service, endless_request(4));
  const JobHandle queued =
      queued_log.submit_behind(blocker, service, endless_request(5));
  EXPECT_TRUE(blocker.cancel());
  ASSERT_TRUE(running_log.wait_for_call(JobStatus::kRunning));
  service.shutdown();
  EXPECT_EQ(running.status(), JobStatus::kCancelled);
  EXPECT_EQ(queued.status(), JobStatus::kCancelled);
  EXPECT_EQ(running_log.checked_statuses(),
            (Statuses{JobStatus::kRunning, JobStatus::kCancelled}));
  EXPECT_EQ(queued_log.checked_statuses(), (Statuses{JobStatus::kCancelled}));
}

TEST(SolverServiceTransitions, TheTerminalCallbackFiresAfterWaitersAreWoken) {
  // The callback holds itself until a thread blocked in wait() has
  // returned.  That only happens if the terminal status woke the waiter
  // before the callback ran; otherwise the callback times out.  (Blocking
  // in the callback breaks its contract; here it is bounded and harmless.)
  std::mutex m;
  std::condition_variable cv;
  bool waiter_returned = false;
  std::optional<bool> waiter_seen_in_callback;
  SolverService service(SolverService::Options{1, 0});
  const JobHandle blocker = service.submit(endless_request(1));
  JobStream stream;
  stream.on_transition = [&](JobStatus status) {
    if (!is_terminal(status)) return;
    std::unique_lock lock(m);
    waiter_seen_in_callback = cv.wait_for(lock, milliseconds(10'000),
                                          [&] { return waiter_returned; });
  };
  const JobHandle job = service.submit(endless_request(2), std::move(stream));
  std::thread waiter([&] {
    (void)job.wait();  // a cancelled job returns normally
    std::lock_guard lock(m);
    waiter_returned = true;
    cv.notify_all();
  });
  std::this_thread::sleep_for(milliseconds(20));  // let the waiter block
  EXPECT_TRUE(job.cancel());
  waiter.join();
  EXPECT_TRUE(blocker.cancel());
  service.shutdown();
  std::lock_guard lock(m);
  EXPECT_EQ(waiter_seen_in_callback, std::optional<bool>(true));
}

}  // namespace
}  // namespace cspls::api
