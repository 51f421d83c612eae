// serve::Scheduler: lane priority, service-queued preemption with correct
// terminal statuses, running preemption to a checkpoint, cancellation
// semantics, shutdown, and a lost-wake-up stress on the event-driven
// dispatcher.
#include "serve/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/params.hpp"

namespace cspls::serve {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

constexpr milliseconds kTestTimeout{30'000};

bool eventually(const std::function<bool()>& predicate,
                milliseconds timeout = kTestTimeout) {
  const auto deadline = steady_clock::now() + timeout;
  while (steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return predicate();
}

SolveCommand quick(Priority priority, std::uint64_t seed) {
  SolveCommand command;
  command.request.problem = "costas:7";
  command.request.walkers = 1;
  command.request.seed = seed;
  command.request.scheduling = parallel::Scheduling::kSequential;
  command.priority = priority;
  return command;
}

SolveCommand endless(Priority priority, std::uint64_t seed) {
  // Unsolvable instance with an hours-long budget: only cancel (or
  // shutdown) ends it in test time.
  SolveCommand command;
  command.request.problem = "langford:5";
  command.request.walkers = 1;
  command.request.seed = seed;
  command.request.scheduling = parallel::Scheduling::kSequential;
  command.request.termination = parallel::Termination::kBestAfterBudget;
  core::Params params;
  params.restart_limit = 1'000'000'000'000;  // ~a day even at 10M it/s
  params.max_restarts = 0;
  command.request.params = params;
  command.priority = priority;
  return command;
}

/// Collects terminal statuses keyed by job id.
struct Recorder {
  std::mutex m;
  std::map<std::uint64_t, std::string> status;
  std::map<std::uint64_t, int> preempted;

  JobEvents events() {
    JobEvents events;
    events.on_preempted = [this](std::uint64_t id) {
      std::lock_guard lock(m);
      ++preempted[id];
    };
    events.on_report = [this](std::uint64_t id, std::string_view status_name,
                              const api::SolveReport&, std::string_view) {
      std::lock_guard lock(m);
      status.emplace(id, std::string(status_name));
    };
    return events;
  }

  [[nodiscard]] int preemptions_of(std::uint64_t id) {
    std::lock_guard lock(m);
    const auto it = preempted.find(id);
    return it == preempted.end() ? 0 : it->second;
  }

  [[nodiscard]] std::string status_of(std::uint64_t id) {
    std::lock_guard lock(m);
    const auto it = status.find(id);
    return it == status.end() ? std::string{} : it->second;
  }

  [[nodiscard]] std::size_t reported() {
    std::lock_guard lock(m);
    return status.size();
  }
};

bool started(Scheduler& scheduler, std::uint64_t id) {
  const std::vector<std::uint64_t> order = scheduler.started_order();
  return std::find(order.begin(), order.end(), id) != order.end();
}

TEST(ServeScheduler, LanesRunStrongestFirst) {
  SchedulerOptions options;
  options.service_inflight = 1;
  options.service.thread_budget = 1;
  Scheduler scheduler(options);
  Recorder recorder;

  // Occupy the single service slot, then queue low jobs and a late high
  // job.
  const std::uint64_t blocker =
      scheduler.submit(endless(Priority::kLow, 1), recorder.events());
  ASSERT_TRUE(eventually([&] { return started(scheduler, blocker); }));
  const std::uint64_t low1 =
      scheduler.submit(quick(Priority::kLow, 2), recorder.events());
  const std::uint64_t low2 =
      scheduler.submit(quick(Priority::kLow, 3), recorder.events());
  const std::uint64_t high =
      scheduler.submit(quick(Priority::kHigh, 4), recorder.events());
  EXPECT_EQ(scheduler.cancel(blocker), Scheduler::CancelResult::kCancelled);

  ASSERT_TRUE(eventually([&] { return recorder.reported() == 4; }));
  const std::vector<std::uint64_t> order = scheduler.started_order();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], blocker);
  EXPECT_EQ(order[1], high);  // jumped both queued lows
  EXPECT_EQ(order[2], low1);
  EXPECT_EQ(order[3], low2);
  EXPECT_EQ(recorder.status_of(blocker), "cancelled");
  EXPECT_EQ(recorder.status_of(high), "done");
  EXPECT_EQ(recorder.status_of(low1), "done");
  EXPECT_EQ(recorder.status_of(low2), "done");
}

TEST(ServeScheduler, ServiceQueuedJobsArePreemptedAndStillFinish) {
  SchedulerOptions options;
  options.service_inflight = 3;
  options.service.thread_budget = 1;
  Scheduler scheduler(options);
  Recorder recorder;

  // One endless job saturates the walker budget; two quick lows queue
  // inside the service behind it.
  const std::uint64_t blocker =
      scheduler.submit(endless(Priority::kLow, 1), recorder.events());
  ASSERT_TRUE(eventually([&] { return started(scheduler, blocker); }));
  const std::uint64_t low1 =
      scheduler.submit(quick(Priority::kLow, 2), recorder.events());
  const std::uint64_t low2 =
      scheduler.submit(quick(Priority::kLow, 3), recorder.events());
  ASSERT_TRUE(eventually(
      [&] { return scheduler.service_stats().queued == 2; }));

  // A high submit under a saturated budget: the queued lows are preempted
  // back to their lane so the high job is next in the service.
  const std::uint64_t high =
      scheduler.submit(quick(Priority::kHigh, 4), recorder.events());
  ASSERT_TRUE(
      eventually([&] { return scheduler.stats().preempted_queued >= 2; }));
  EXPECT_EQ(scheduler.cancel(blocker), Scheduler::CancelResult::kCancelled);

  ASSERT_TRUE(eventually([&] { return recorder.reported() == 4; }));
  const std::vector<std::uint64_t> order = scheduler.started_order();
  ASSERT_GE(order.size(), 4u);
  EXPECT_EQ(order[0], blocker);
  EXPECT_EQ(order[1], high);  // started before the earlier-queued lows
  // Preempted jobs still terminate with their real status.
  EXPECT_EQ(recorder.status_of(low1), "done");
  EXPECT_EQ(recorder.status_of(low2), "done");
  EXPECT_EQ(recorder.status_of(high), "done");
  EXPECT_EQ(recorder.status_of(blocker), "cancelled");
  EXPECT_EQ(scheduler.stats().preempted_queued, 2u);
}

TEST(ServeScheduler, ARunningLowJobIsSuspendedToACheckpointForAHighArrival) {
  SchedulerOptions options;
  options.service_inflight = 1;      // the running low job fills the service
  options.service.thread_budget = 1;
  Scheduler scheduler(options);
  Recorder recorder;

  const std::uint64_t low =
      scheduler.submit(endless(Priority::kLow, 1), recorder.events());
  ASSERT_TRUE(eventually([&] { return started(scheduler, low); }));

  // No queued victim exists, the service is at its in-flight cap, and a
  // stronger job waits: the running low job is suspended to a checkpoint
  // and requeued at the front of its lane carrying it.
  const std::uint64_t high =
      scheduler.submit(quick(Priority::kHigh, 2), recorder.events());
  ASSERT_TRUE(
      eventually([&] { return scheduler.stats().preempted_running >= 1; }));
  ASSERT_TRUE(eventually([&] { return recorder.status_of(high) == "done"; }));

  // The suspended job is still live (no report yet) and resumes from its
  // checkpoint once the high job released the service slot.
  EXPECT_EQ(recorder.status_of(low), "");
  ASSERT_TRUE(eventually([&] { return scheduler.stats().resumed >= 1; }));
  ASSERT_TRUE(eventually([&] { return recorder.preemptions_of(low) >= 1; }));

  EXPECT_EQ(scheduler.cancel(low), Scheduler::CancelResult::kCancelled);
  ASSERT_TRUE(eventually([&] { return recorder.reported() == 2; }));
  EXPECT_EQ(recorder.status_of(low), "cancelled");

  const SchedulerStats stats = scheduler.stats();
  EXPECT_GE(stats.preempted_running, 1u);
  EXPECT_GE(stats.resumed, 1u);
  EXPECT_EQ(stats.preempted_queued, 0u);
  const util::Json json = stats.to_json();
  EXPECT_GE(json.at("preempted_running").as_uint64(), 1u);
  EXPECT_GE(json.at("resumed").as_uint64(), 1u);
  scheduler.shutdown();
}

TEST(ServeScheduler, RunningPreemptionCanBeDisabled) {
  SchedulerOptions options;
  options.service_inflight = 1;
  options.service.thread_budget = 1;
  options.preempt_running = false;
  Scheduler scheduler(options);
  Recorder recorder;

  const std::uint64_t low =
      scheduler.submit(endless(Priority::kLow, 1), recorder.events());
  ASSERT_TRUE(eventually([&] { return started(scheduler, low); }));
  const std::uint64_t high =
      scheduler.submit(quick(Priority::kHigh, 2), recorder.events());

  // The high job waits out the running low job instead of suspending it.
  EXPECT_FALSE(eventually(
      [&] { return scheduler.stats().preempted_running > 0; },
      milliseconds(200)));
  EXPECT_EQ(recorder.status_of(high), "");

  EXPECT_EQ(scheduler.cancel(low), Scheduler::CancelResult::kCancelled);
  ASSERT_TRUE(eventually([&] { return recorder.reported() == 2; }));
  EXPECT_EQ(recorder.status_of(high), "done");
  EXPECT_EQ(scheduler.stats().preempted_running, 0u);
  scheduler.shutdown();
}

TEST(ServeScheduler, AFullLaneRejectsSubmissionsAsOverloaded) {
  SchedulerOptions options;
  options.service_inflight = 1;
  options.max_lane_depth = 1;
  Scheduler scheduler(options);
  Recorder recorder;

  const std::uint64_t blocker =
      scheduler.submit(endless(Priority::kNormal, 1), recorder.events());
  ASSERT_TRUE(eventually([&] { return started(scheduler, blocker); }));
  const std::uint64_t queued =
      scheduler.submit(endless(Priority::kNormal, 2), recorder.events());

  // The normal lane is at its depth bound: the next submit is rejected with
  // the stable `overloaded` code, before on_accepted fires.
  try {
    (void)scheduler.submit(quick(Priority::kNormal, 3), recorder.events());
    FAIL() << "submit into a full lane must throw";
  } catch (const ProtocolError& error) {
    EXPECT_EQ(error.code(), kErrOverloaded);
  }
  EXPECT_EQ(scheduler.stats().rejected_overload, 1u);
  EXPECT_EQ(scheduler.stats().submitted, 2u);

  // The HTTP pre-check counts the same way; an empty lane admits.
  EXPECT_TRUE(scheduler.reject_overloaded(Priority::kNormal));
  EXPECT_EQ(scheduler.stats().rejected_overload, 2u);
  EXPECT_FALSE(scheduler.reject_overloaded(Priority::kHigh));
  EXPECT_EQ(scheduler.stats().rejected_overload, 2u);

  // Draining the lane readmits.
  EXPECT_EQ(scheduler.cancel(queued), Scheduler::CancelResult::kCancelled);
  const std::uint64_t admitted =
      scheduler.submit(quick(Priority::kNormal, 4), recorder.events());
  EXPECT_EQ(scheduler.cancel(blocker), Scheduler::CancelResult::kCancelled);
  ASSERT_TRUE(eventually([&] { return recorder.reported() == 3; }));
  EXPECT_EQ(recorder.status_of(admitted), "done");
  EXPECT_EQ(scheduler.stats().to_json().at("rejected_overload").as_uint64(),
            2u);
  scheduler.shutdown();
}

TEST(ServeScheduler, CancelSemanticsAndStatsCounters) {
  SchedulerOptions options;
  options.service_inflight = 1;
  Scheduler scheduler(options);
  Recorder recorder;

  EXPECT_EQ(scheduler.cancel(77), Scheduler::CancelResult::kUnknown);

  const std::uint64_t blocker =
      scheduler.submit(endless(Priority::kNormal, 1), recorder.events());
  ASSERT_TRUE(eventually([&] { return started(scheduler, blocker); }));
  const std::uint64_t queued =
      scheduler.submit(quick(Priority::kNormal, 2), recorder.events());

  // Cancelling a lane-queued job reports immediately, without running.
  EXPECT_EQ(scheduler.cancel(queued), Scheduler::CancelResult::kCancelled);
  EXPECT_EQ(recorder.status_of(queued), "cancelled");
  EXPECT_EQ(scheduler.cancel(queued), Scheduler::CancelResult::kAlreadyTerminal);

  const std::uint64_t done =
      scheduler.submit(quick(Priority::kHigh, 3), recorder.events());
  // The high arrival suspends the running blocker, or the cancel below
  // ends it first; either way the high job gets the only slot.
  EXPECT_EQ(scheduler.cancel(blocker), Scheduler::CancelResult::kCancelled);
  ASSERT_TRUE(eventually([&] { return recorder.reported() == 3; }));
  EXPECT_EQ(recorder.status_of(done), "done");
  EXPECT_EQ(recorder.status_of(blocker), "cancelled");

  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.cancelled, 2u);
  EXPECT_EQ(stats.failed, 0u);
  // The JSON snapshot mirrors the struct, member for member.
  const util::Json json = stats.to_json();
  EXPECT_EQ(json.at("submitted").as_uint64(), 3u);
  EXPECT_EQ(json.at("completed").as_uint64(), 1u);
  EXPECT_EQ(json.at("cancelled").as_uint64(), 2u);
  EXPECT_EQ(json.at("queued_high").as_uint64(), 0u);
  // The members kept only for the perfbench harness read 0 and stay off
  // the wire.
  EXPECT_EQ(stats.givebacks + stats.batches + stats.batched_jobs +
                stats.fused_jobs,
            0u);
  for (const char* key : {"givebacks", "batches", "batched_jobs",
                          "fused_jobs"}) {
    EXPECT_FALSE(json.contains(key)) << key;
  }
}

TEST(ServeScheduler, AnInvalidRequestIsRejectedAtSubmission) {
  Scheduler scheduler;
  Recorder recorder;
  SolveCommand command = quick(Priority::kNormal, 1);
  command.request.problem = "no-such-problem:9";
  EXPECT_THROW((void)scheduler.submit(std::move(command), recorder.events()),
               std::invalid_argument);
  EXPECT_EQ(scheduler.stats().submitted, 0u);
}

TEST(ServeScheduler, ShutdownCancelsQueuedAndRunningJobs) {
  SchedulerOptions options;
  options.service_inflight = 1;
  Scheduler scheduler(options);
  Recorder recorder;

  const std::uint64_t running =
      scheduler.submit(endless(Priority::kNormal, 1), recorder.events());
  ASSERT_TRUE(eventually([&] { return started(scheduler, running); }));
  const std::uint64_t queued =
      scheduler.submit(endless(Priority::kNormal, 2), recorder.events());

  scheduler.shutdown();
  EXPECT_EQ(recorder.status_of(running), "cancelled");
  EXPECT_EQ(recorder.status_of(queued), "cancelled");
  EXPECT_EQ(recorder.reported(), 2u);
  // The queued job was cancelled without ever starting.
  EXPECT_EQ(scheduler.started_order(), std::vector<std::uint64_t>{running});
  EXPECT_EQ(scheduler.stats().cancelled, 2u);
  EXPECT_THROW(
      (void)scheduler.submit(quick(Priority::kNormal, 3), recorder.events()),
      std::runtime_error);
}

TEST(ServeScheduler, EveryServiceJobReportsOnceUnderPreemptionAndCancels) {
  // The service-path dispatcher has no timer: it sleeps until a submit,
  // cancel, shutdown or job transition wakes it.  A wake-up it misses
  // leaves a job unreported forever, so under this churn of lows suspended
  // (running or queued) by highs, and of client cancels landing on queued,
  // running and suspended jobs, a lost notify shows up as a timeout.
  SchedulerOptions options;
  options.service_inflight = 1;
  options.service.thread_budget = 2;
  std::mutex m;
  std::condition_variable cv;
  std::map<std::uint64_t, int> reports;
  std::map<std::uint64_t, std::string> statuses;
  Scheduler scheduler(options);

  JobEvents events;
  events.on_report = [&](std::uint64_t id, std::string_view status,
                         const api::SolveReport&, std::string_view) {
    std::lock_guard lock(m);
    ++reports[id];
    statuses[id] = std::string(status);
    cv.notify_all();
  };

  // First, deterministically, one running preemption: an endless low is
  // suspended by a high once it runs, and resumes after it.  It keeps
  // being suspended by the churn's highs until it is cancelled halfway.
  std::vector<std::uint64_t> ids;
  const std::uint64_t endless_low =
      scheduler.submit(endless(Priority::kLow, 1000), events);
  ids.push_back(endless_low);
  ASSERT_TRUE(eventually([&] {
    const auto order = scheduler.started_order();
    return std::find(order.begin(), order.end(), endless_low) != order.end();
  }));
  ids.push_back(scheduler.submit(quick(Priority::kHigh, 1001), events));
  ASSERT_TRUE(eventually([&] { return scheduler.stats().preempted_running >= 1; }));

  constexpr std::size_t kChurn = 320;
  const std::size_t kJobs = kChurn + ids.size();
  std::size_t cancels = 0;
  for (std::size_t i = 0; i < kChurn; ++i) {
    if (i == kChurn / 2) {
      ASSERT_EQ(scheduler.cancel(endless_low), Scheduler::CancelResult::kCancelled);
      ++cancels;
    }
    SolveCommand command;
    const bool low = i % 2 == 0;
    command.priority = low ? Priority::kLow : Priority::kHigh;
    command.request.walkers = 2;
    command.request.seed = i + 1;
    command.request.scheduling = parallel::Scheduling::kThreads;
    if (low) {
      // Unsolvable, tens of thousands of iterations: long enough to be
      // caught running by the next high, short enough to finish.
      command.request.problem = "langford:5";
      command.request.termination = parallel::Termination::kBestAfterBudget;
      core::Params params;
      params.restart_limit = 20'000;
      params.max_restarts = 0;
      command.request.params = params;
    } else {
      command.request.problem = "costas:8";
    }
    ids.push_back(scheduler.submit(std::move(command), events));
    // Every seventh step cancels a job submitted a few steps back, which
    // by then may be queued, running, suspended or already done.
    if (i % 7 == 6) {
      if (scheduler.cancel(ids[ids.size() - 5]) ==
          Scheduler::CancelResult::kCancelled) {
        ++cancels;
      }
    }
    // Vary the gap so highs land on lows queued, launching and running.
    std::this_thread::sleep_for(std::chrono::microseconds((i * 37) % 400));
  }

  std::size_t done = 0;
  std::size_t cancelled = 0;
  {
    std::unique_lock lock(m);
    ASSERT_TRUE(cv.wait_for(lock, milliseconds(60'000),
                            [&] { return reports.size() == kJobs; }))
        << reports.size() << " of " << kJobs << " jobs reported";
    for (const std::uint64_t id : ids) {
      EXPECT_EQ(reports[id], 1) << "job " << id;
      const std::string& status = statuses[id];
      EXPECT_TRUE(status == "done" || status == "cancelled")
          << "job " << id << ": " << status;
      if (id == endless_low) EXPECT_EQ(status, "cancelled");
      done += status == "done" ? 1 : 0;
      cancelled += status == "cancelled" ? 1 : 0;
    }
  }
  // A cancel that took effect may still lose to natural completion.
  EXPECT_LE(cancelled, cancels);

  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, kJobs);
  EXPECT_EQ(stats.completed, done);
  EXPECT_EQ(stats.cancelled, cancelled);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.submitted, stats.completed + stats.cancelled + stats.failed);
  EXPECT_LE(stats.resumed, stats.preempted_running + stats.preempted_queued);
  EXPECT_GE(stats.preempted_running, 1u);
  EXPECT_EQ(stats.inflight, 0u);
  for (const std::size_t queued : stats.queued) EXPECT_EQ(queued, 0u);
  scheduler.shutdown();
  std::lock_guard lock(m);
  EXPECT_EQ(reports.size(), kJobs);  // shutdown reported nothing twice
  for (const auto& [id, count] : reports) EXPECT_EQ(count, 1) << "job " << id;
}

}  // namespace
}  // namespace cspls::serve
