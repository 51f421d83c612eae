// Workload `race`: the paper's own experiment.  One client in a closed loop
// calls api::Solver::solve on costas:15 with one walker per CPU (threads,
// isolated, first finisher), one seed after another from a fixed set
// (seed i = base + i, base derived from --seed).  Nearly all time is in the
// cost kernels and the engine; pool launch/join is a small share and the
// serving tier is idle.
#include "api/solver.hpp"
#include "bench.hpp"
#include "problems/spec.hpp"

namespace perfbench {

using namespace cspls;

namespace {

constexpr const char* kRaceProblem = "costas:15";

api::SolveRequest race_request(std::uint64_t seed) {
  api::SolveRequest request;
  request.problem = kRaceProblem;
  request.walkers = nproc();
  request.seed = seed;
  request.scheduling = parallel::Scheduling::kThreads;
  request.neighborhood = parallel::Neighborhood::kIsolated;
  request.exchange = parallel::Exchange::kNone;
  request.termination = parallel::Termination::kFirstFinisher;
  return request;
}

struct LoopResult {
  std::vector<double> latency_ms;
  double wall_seconds = 0.0;
};

/// Closed loop over seeds base, base + 1, ... for `seconds`.  In a traced
/// loop every call goes through traced_solve (launch/join spans) and the
/// benchmark's own layer calls run after the loop.
LoopResult closed_loop(std::uint64_t base, double seconds,
                       Trace& trace, Outcome& out, EngineTotals& engine,
                       std::vector<double>* report_bytes) {
  LoopResult loop;
  std::vector<std::pair<api::SolveRequest, api::SolveReport>> done;
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  Clock::time_point last_return = start;
  for (std::uint64_t i = 0; Clock::now() < stop; ++i) {
    const api::SolveRequest request = race_request(base + i);
    const Clock::time_point call = Clock::now();
    api::SolveReport report;
    if (trace.enabled()) {
      report = traced_solve(request, trace, local_job_id()).report;
    } else {
      report = api::Solver::solve(request);
    }
    const Clock::time_point ret = Clock::now();
    loop.latency_ms.push_back(to_ms(ret - call));
    last_return = ret;
    std::string why;
    tally(out, check_report(request.problem, report, {}, &why), why);
    if (trace.enabled()) done.emplace_back(request, std::move(report));
  }
  loop.wall_seconds = std::chrono::duration<double>(last_return - start).count();
  for (const auto& [request, report] : done) {
    const std::uint64_t job = local_job_id();
    trace_request_side(request.to_json_string(), trace, job);
    trace_report_side(report, trace, job, report_bytes);
    engine.add(report);
  }
  return loop;
}

}  // namespace

Outcome run_race(const Options& options, const util::Json& host) {
  Outcome out;
  const std::uint64_t base = mix(options.seed) >> 16;
  {
    Trace off(false);
    EngineTotals unused;
    closed_loop(base + (std::uint64_t{1} << 40), kWarmupSeconds, off, out, unused,
                nullptr);
  }

  if (!options.trace) {
    // Set-up: everything the client needs before its first call — the
    // instance parsed and built, the request validated into pool options.
    const double setup = median_setup_seconds(
        [] {
          const api::SolveRequest request = race_request(0);
          return std::make_pair(
              request.to_pool_options(),
              problems::instantiate(problems::parse_spec(request.problem)));
        },
        kSetupReps);
    Trace off(false);
    EngineTotals engine;
    const LoopResult loop =
        closed_loop(base, options.seconds, off, out, engine, nullptr);
    const double p50 = windowed_quantile(loop.latency_ms, 0.5);
    const double rate = static_cast<double>(loop.latency_ms.size()) / loop.wall_seconds;
    out.add("setup_s", setup, "s");
    out.add("jobs_per_s", rate, "1/s");
    out.add("latency_p50_ms", p50, "ms");
    // One client, one lane: Solver::solve has no priorities, so every lane
    // metric reports that lane, and the closed loop's highest sustained
    // rate is its throughput.
    out.add("high_latency_p50_ms", p50, "ms");
    out.add("low_latency_p50_ms", p50, "ms");
    out.add("max_rate_jobs_per_s", rate, "1/s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.detail.set("solves", static_cast<std::uint64_t>(loop.latency_ms.size()));
    return out;
  }

  // Traced run: an untraced and a traced stretch of the same loop (their
  // medians give the tracing overhead), the direct-solve probe on the
  // first seeds, then a few race jobs through the serving tier for its
  // stage split.
  LayerInputs in;
  Trace trace(true);
  in.trace = &trace;
  in.host = host;
  Trace off(false);
  EngineTotals unused;
  const LoopResult plain =
      closed_loop(base, options.seconds * 0.3, off, out, unused, nullptr);
  const LoopResult traced = closed_loop(base, options.seconds * 0.3, trace, out,
                                        in.engine, &in.report_bytes);
  in.latency_p99_ms = windowed_quantile(plain.latency_ms, 0.99);
  in.high_latency_p99_ms = in.latency_p99_ms;
  in.tracing_overhead =
      quantile(traced.latency_ms, 0.5) / quantile(plain.latency_ms, 0.5);

  std::vector<api::SolveRequest> probe_requests;
  for (std::size_t i = 0; i < 64; ++i) probe_requests.push_back(race_request(base + i));
  in.probe = run_probe(probe_requests, probe_requests, trace,
                       options.seconds * 0.25, out);

  WireClient client(serve::SchedulerOptions{}, true);
  const Clock::time_point stop =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds * 0.15));
  for (std::size_t i = 0; i < 64 && Clock::now() < stop; ++i) {
    WireJob job = make_wire_job(race_request(base + i), serve::Priority::kNormal,
                                i, true, {});
    job.due = Clock::now();
    client.wait(client.send(std::move(job)), 60.0);
  }
  client.drain(60.0);
  finish_traced(client, std::nullopt, in, out);
  trace.write(options.trace_path);
  return out;
}

}  // namespace perfbench
