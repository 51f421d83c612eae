// Workload `preempt`: an open loop of long low-priority multi-walker jobs
// with a fixed iteration budget on an instance that has no solution (so
// each runs exactly its budget), plus short high-priority multi-walker
// solves arriving on their own schedule.  Every job leases threads through
// the SolverService path, whose budget runs one job at a time, so a high
// arrival suspends a running low to a PoolCheckpoint and the low resumes
// later.  What it measures is the
// serving tier's service path: the wire protocol, lanes, preemption,
// checkpoint capture and resume, and per-job thread launch.
#include <algorithm>

#include "bench.hpp"

namespace perfbench {

using namespace cspls;

namespace {

constexpr const char* kLowProblem = "langford:5";  // no solution exists
constexpr std::uint64_t kLowBudget = 200'000;      // iterations per walker
constexpr const char* kHighProblem = "costas:11";

/// The schedule repeats every cycle: one low at its start, then highs at
/// fixed offsets — five while the low holds the service (each must suspend
/// it) and five after it is done (no preemption needed).  Highs are most of the jobs, so the overall
/// median sits inside the high lane's distribution, not between lanes.
constexpr double kCycleSeconds = 0.1;
constexpr double kHighOffsets[] = {0.005, 0.010, 0.015, 0.020, 0.025,
                                   0.055, 0.065, 0.075, 0.085, 0.095};

/// Every job runs on half the CPUs; the other half stay free for the
/// serving tier's own threads (dispatcher, workers, session), so their
/// wake-ups do not queue behind walkers.
std::size_t job_walkers() { return std::max<std::size_t>(1, nproc() / 2); }

serve::SchedulerOptions preempt_options() {
  serve::SchedulerOptions options;
  options.warm_lease_threshold = 0;  // every job takes the service path
  options.service.thread_budget = job_walkers();
  // One job in flight, the one the budget runs: a high arrival then has no
  // queued victim and must suspend the running low.
  options.service_inflight = 1;
  return options;
}

api::SolveRequest job_request(bool low, std::uint64_t seed) {
  api::SolveRequest request;
  request.problem = low ? kLowProblem : kHighProblem;
  request.walkers = job_walkers();
  request.seed = seed;
  request.scheduling = parallel::Scheduling::kThreads;
  if (low) {
    core::Params params;
    params.restart_limit = kLowBudget;
    params.max_restarts = 0;
    request.params = params;
  }
  return request;
}

Expectation expectation(bool low) {
  if (!low) return {};
  return {false, kLowBudget * job_walkers()};
}

struct Arrival {
  double at = 0.0;  ///< seconds after the phase starts
  bool low = false;
  std::uint64_t seed = 0;
};

std::vector<Arrival> schedule(std::uint64_t base, double seconds) {
  std::vector<Arrival> arrivals;
  std::uint64_t lows = 0;
  std::uint64_t highs = 0;
  for (std::size_t c = 0; static_cast<double>(c + 1) * kCycleSeconds <= seconds; ++c) {
    const double cycle = static_cast<double>(c) * kCycleSeconds;
    arrivals.push_back({cycle, true, base + lows++});
    for (const double offset : kHighOffsets) {
      arrivals.push_back({cycle + offset, false, base + 1'000'000 + highs++});
    }
  }
  return arrivals;
}

/// Send the schedule for `seconds` on a freshly reset `client` and drain
/// it; its records are then exactly that schedule's jobs.
void send_schedule(WireClient& client, std::uint64_t base, double seconds,
                   bool stream) {
  client.reset();
  const std::vector<Arrival> arrivals = schedule(base, seconds);
  std::vector<WireJob> jobs;
  for (std::size_t k = 0; k < arrivals.size(); ++k) {
    const Arrival& a = arrivals[k];
    jobs.push_back(make_wire_job(job_request(a.low, a.seed),
                                 a.low ? serve::Priority::kLow : serve::Priority::kHigh,
                                 k, stream, expectation(a.low)));
  }
  client.reserve(jobs.size());
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    jobs[k].due = start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(arrivals[k].at));
    client.send(std::move(jobs[k]));
  }
  client.drain(120.0);
}

}  // namespace

Outcome run_preempt(const Options& options, const util::Json& host) {
  Outcome out;
  const std::uint64_t base = mix(options.seed) >> 16;
  const std::uint64_t warmup_base = base + (std::uint64_t{1} << 40);

  if (!options.trace) {
    // Set-up: the serving tier configured for this mix, and a session.
    struct Server {
      serve::Scheduler scheduler{preempt_options()};
      serve::Session session{scheduler, [](std::string_view) {}};
    };
    const double setup =
        median_setup_seconds([] { return std::make_unique<Server>(); }, kSetupReps);

    WireClient client(preempt_options(), false);
    send_schedule(client, warmup_base, kWarmupSeconds, false);
    tally_wire(client, out);
    send_schedule(client, base, options.seconds, false);
    tally_wire(client, out);
    const LaneLatencies latencies = lane_latencies(client);
    const serve::SchedulerStats stats = client.finish();
    reconcile(stats, out, "preempt");
    out.detail.set("preempted_running", stats.preempted_running)
        .set("preempted_queued", stats.preempted_queued)
        .set("resumed", stats.resumed);

    const auto& lanes = latencies.lane_ms;
    out.add("setup_s", setup, "s");
    out.add("jobs_per_s", latencies.jobs_per_s, "1/s");
    out.add("latency_p50_ms", windowed_quantile(latencies.all_ms, 0.5), "ms");
    out.add("high_latency_p50_ms", windowed_quantile(lanes[0], 0.5), "ms");
    out.add("low_latency_p50_ms", windowed_quantile(lanes[2], 0.5), "ms");
    // One fixed schedule, no ladder: the highest rate shown to keep up is
    // the completed rate of that schedule.
    out.add("max_rate_jobs_per_s", latencies.jobs_per_s, "1/s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  // Traced run: the schedule untraced, then with streaming on; the stage
  // split is taken over the high lane (never preempted, so its stages run
  // back to back), then the direct-solve probe on the high job shape,
  // suspending the low shape for its checkpoints.
  LayerInputs in;
  Trace trace(true);
  in.trace = &trace;
  in.host = host;
  double plain_p50 = 0.0;
  {
    WireClient client(preempt_options(), false);
    send_schedule(client, warmup_base, kWarmupSeconds, false);
    tally_wire(client, out);
    send_schedule(client, base, options.seconds * 0.35, false);
    tally_wire(client, out);
    const LaneLatencies plain = lane_latencies(client);
    plain_p50 = quantile(plain.lane_ms[0], 0.5);
    in.latency_p99_ms = windowed_quantile(plain.all_ms, 0.99);
    in.high_latency_p99_ms = windowed_quantile(plain.lane_ms[0], 0.99);
    reconcile(client.finish(), out, "preempt untraced");
  }
  WireClient client(preempt_options(), true);
  send_schedule(client, base, options.seconds * 0.35, true);
  in.tracing_overhead =
      quantile(lane_latencies(client).lane_ms[0], 0.5) /
      plain_p50;

  std::vector<api::SolveRequest> highs;
  std::vector<api::SolveRequest> lows;
  for (std::size_t i = 0; i < 200; ++i) {
    highs.push_back(job_request(false, base + 1'000'000 + i));
    lows.push_back(job_request(true, base + i));
  }
  in.probe = run_probe(highs, lows, trace, options.seconds * 0.15, out);
  finish_traced(client, serve::Priority::kHigh, in, out);
  trace.write(options.trace_path);
  return out;
}

}  // namespace perfbench
