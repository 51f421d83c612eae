#include "bench.hpp"

#include <sys/resource.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <numeric>
#include <optional>

#include "api/solver.hpp"
#include "baseline/checkers.hpp"
#include "parallel/checkpoint.hpp"
#include "problems/spec.hpp"
#include "sim/order_stats.hpp"
#include "util/simd.hpp"
#include "util/stats.hpp"

namespace perfbench {

using namespace cspls;

double to_ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double to_us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  return util::quantile(values, q);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double windowed_quantile(const std::vector<double>& latencies, double q) {
  constexpr std::size_t kWindow = 1000;
  const std::size_t windows = std::max<std::size_t>(1, latencies.size() / kWindow);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto begin = latencies.begin() + static_cast<std::ptrdiff_t>(w * kWindow);
    const auto end = w + 1 == windows ? latencies.end() : begin + kWindow;
    per_window.push_back(quantile(std::vector<double>(begin, end), q));
  }
  return median(std::move(per_window));
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// --- Trace ---------------------------------------------------------------

Trace::Trace(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

std::uint64_t Trace::span(std::uint64_t job, const char* name,
                          Clock::time_point start, Clock::time_point end,
                          std::uint64_t parent) {
  if (!enabled_) return 0;
  std::lock_guard lock(m_);
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back({id, job, name, start, end, parent});
  return id;
}

std::vector<double> Trace::durations_us(std::string_view name) const {
  std::lock_guard lock(m_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(to_us(s.end - s.start));
  }
  return out;
}

void Trace::write(const std::string& path) const {
  std::lock_guard lock(m_);
  std::ofstream file(path);
  for (const Span& s : spans_) {
    util::Json line = util::Json::object();
    line.set("id", s.id)
        .set("job", s.job)
        .set("name", s.name)
        .set("start_us", to_us(s.start - origin_))
        .set("end_us", to_us(s.end - origin_))
        .set("parent", s.parent);
    file << line.dump(0) << '\n';
  }
}

std::uint64_t local_job_id() {
  static std::atomic<std::uint64_t> next{1};
  return (std::uint64_t{1} << 63) | next.fetch_add(1);
}

// --- Answer checking -------------------------------------------------------

namespace {

std::unique_ptr<baseline::PartialChecker> checker_for(
    const problems::ProblemSpec& spec) {
  if (spec.name == "costas") {
    return std::make_unique<baseline::CostasChecker>(spec.size);
  }
  if (spec.name == "queens") {
    return std::make_unique<baseline::QueensChecker>(spec.size);
  }
  if (spec.name == "all-interval") {
    return std::make_unique<baseline::AllIntervalChecker>(spec.size);
  }
  return nullptr;
}

}  // namespace

Verdict check_report(const std::string& spec, const api::SolveReport& report,
                     const Expectation& expect, std::string* why) {
  const auto fail = [&](Verdict verdict, std::string message) {
    *why = spec + ": " + std::move(message);
    return verdict;
  };
  if (!expect.solved) {
    if (report.solved) return fail(Verdict::kWrong, "solved an unsolvable instance");
    if (expect.exact_iterations != 0 &&
        report.total_iterations != expect.exact_iterations) {
      return fail(Verdict::kWrong,
                  "ran " + std::to_string(report.total_iterations) +
                      " iterations, the budget is exactly " +
                      std::to_string(expect.exact_iterations));
    }
    return Verdict::kOk;
  }
  if (!report.solved) return fail(Verdict::kMissed, "not solved");
  if (report.cost != 0) return fail(Verdict::kWrong, "solved with nonzero cost");

  const problems::ProblemSpec parsed = problems::parse_spec(spec);
  const std::unique_ptr<baseline::PartialChecker> checker = checker_for(parsed);
  if (!checker) return fail(Verdict::kWrong, "no independent checker");
  std::vector<int> values = report.solution;
  std::vector<int> domain(checker->domain().begin(), checker->domain().end());
  std::sort(values.begin(), values.end());
  std::sort(domain.begin(), domain.end());
  if (values != domain) {
    return fail(Verdict::kWrong, "solution is not a permutation of the value set");
  }
  for (std::size_t pos = 0; pos < report.solution.size(); ++pos) {
    if (!checker->push(pos, report.solution[pos])) {
      return fail(Verdict::kWrong,
                  "checker rejects position " + std::to_string(pos));
    }
  }
  return Verdict::kOk;
}

void tally(Outcome& out, Verdict verdict, const std::string& why) {
  ++out.attempted;
  if (verdict == Verdict::kOk) return;
  ++out.failed;
  if (verdict == Verdict::kWrong) out.wrong(why);
}

// --- Labels and host -------------------------------------------------------

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

namespace {

/// A fixed amount of integer work per thread; its wall time on 1 and on
/// nproc threads shows how much of the host this run actually got.
double spin_seconds(std::size_t threads) {
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> team;
  for (std::size_t t = 0; t < threads; ++t) {
    team.emplace_back([] {
      volatile std::uint64_t x = 1;
      for (std::uint64_t i = 0; i < 60'000'000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      }
    });
  }
  for (std::thread& t : team) t.join();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The CPUs this process may run on, in order.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

const char* compiled_isa() {
#if defined(__AVX512F__)
  return "avx512f";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__SSE4_2__)
  return "sse4.2";
#elif defined(__SSE2__)
  return "sse2";
#elif defined(__aarch64__)
  return "aarch64";
#else
  return "generic";
#endif
}

}  // namespace

std::vector<double> warm_host(double seconds) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point half =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds / 2));
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const std::vector<int> cpus = allowed_cpus();
  std::vector<double> stolen_ms(cpus.size(), 0.0);
  std::vector<std::thread> team;
  for (std::size_t t = 0; t < cpus.size(); ++t) {
    team.emplace_back([&, t] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[t], &one);
      pthread_setaffinity_np(pthread_self(), sizeof one, &one);
      Clock::time_point last = Clock::now();
      for (Clock::time_point now = last; now < stop; now = Clock::now()) {
        const double gap = to_ms(now - last);
        if (now > half && gap > 0.05) stolen_ms[t] += gap;
        last = now;
      }
    });
  }
  for (std::thread& t : team) t.join();
  for (double& ms : stolen_ms) ms /= seconds / 2;
  return stolen_ms;
}

util::Json labels(const Options& options,
                  const std::vector<double>& stolen_ms_per_s) {
  util::Json flags = util::Json::object();
#ifdef CSPLS_SIMD
  flags.set("CSPLS_SIMD", true);
#else
  flags.set("CSPLS_SIMD", false);
#endif
#ifdef CSPLS_FAULT_INJECTION
  flags.set("CSPLS_FAULT_INJECTION", true);
#else
  flags.set("CSPLS_FAULT_INJECTION", false);
#endif
  flags.set("CSPLS_NATIVE", PERFBENCH_NATIVE != 0)
      .set("CSPLS_IPO", PERFBENCH_IPO != 0);

  const std::size_t cpus = nproc();
  util::Json host = util::Json::object();
#if defined(__clang__)
  host.set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  host.set("compiler", std::string("gcc ") + __VERSION__);
#else
  host.set("compiler", "unknown");
#endif
  host.set("build_type", PERFBENCH_BUILD_TYPE)
      .set("ndebug",
#ifdef NDEBUG
           true
#else
           false
#endif
           )
      .set("flags", std::move(flags))
      .set("compiled_isa", compiled_isa())
      .set("simd_tier", util::simd::tier_name())
      .set("nproc", static_cast<std::uint64_t>(cpus))
      .set("source", options.source)
      .set("spin_1t_s", spin_seconds(1))
      .set("spin_nt_s", spin_seconds(cpus));
  util::Json stolen = util::Json::array();
  for (const double ms : stolen_ms_per_s) stolen.push_back(ms);
  host.set("warmup_lost_ms_per_s_by_cpu", std::move(stolen));
  return host;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// --- Direct solves ---------------------------------------------------------

TracedSolve traced_solve(const api::SolveRequest& request, Trace& trace,
                         std::uint64_t job) {
  TracedSolve out;
  std::mutex m;
  out.first_sample.assign(request.walkers, Clock::time_point{});
  api::SolveCallbacks callbacks;
  // Only the iteration-0 call: the period is beyond any budget.
  callbacks.sample_period = std::uint64_t{1} << 62;
  callbacks.sample_sink = [&](std::size_t walker, std::uint64_t iteration,
                              csp::Cost) {
    if (iteration != 0) return;
    const Clock::time_point now = Clock::now();
    std::lock_guard lock(m);
    if (walker < out.first_sample.size()) out.first_sample[walker] = now;
  };
  out.call = Clock::now();
  out.report = api::Solver::solve(request, core::StopToken(), callbacks);
  out.ret = Clock::now();

  const std::uint64_t root = trace.span(job, "api.solve", out.call, out.ret);
  for (const Clock::time_point stamp : out.first_sample) {
    if (stamp != Clock::time_point{}) {
      trace.span(job, "parallel.launch", out.call, stamp, root);
    }
  }
  const api::SolveReport& r = out.report;
  if (r.has_winner() && r.winner < out.first_sample.size() &&
      out.first_sample[r.winner] != Clock::time_point{}) {
    const Clock::time_point finish =
        out.first_sample[r.winner] +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(r.walkers[r.winner].seconds));
    if (finish <= out.ret) trace.span(job, "parallel.join", finish, out.ret, root);
  }
  const Clock::time_point engine_end =
      out.call + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(r.wall_seconds));
  if (engine_end <= out.ret) {
    trace.span(job, "api.solve_overhead", engine_end, out.ret, root);
  }
  return out;
}

void trace_request_side(const std::string& request_json, Trace& trace,
                        std::uint64_t job) {
  if (!trace.enabled()) return;
  const api::SolveRequest request = [&] {
    const Clock::time_point start = Clock::now();
    api::SolveRequest decoded = api::SolveRequest::from_json_string(request_json);
    trace.span(job, "api.request_decode", start, Clock::now());
    return decoded;
  }();
  const Clock::time_point start = Clock::now();
  const std::unique_ptr<csp::Problem> problem =
      problems::instantiate(problems::parse_spec(request.problem));
  trace.span(job, "problems.instantiate", start, Clock::now());
}

void trace_report_side(const api::SolveReport& report, Trace& trace,
                       std::uint64_t job, std::vector<double>* report_bytes) {
  if (!trace.enabled()) return;
  const Clock::time_point start = Clock::now();
  const std::string text = report.to_json_string();
  trace.span(job, "api.report_encode", start, Clock::now());
  report_bytes->push_back(static_cast<double>(text.size()));
}

void EngineTotals::add(const api::SolveReport& report) {
  for (const api::WalkerReport& w : report.walkers) {
    evaluations += static_cast<double>(w.cost_evaluations);
    iterations += static_cast<double>(w.iterations);
    seconds += w.seconds;
  }
}

ProbeResult run_probe(const std::vector<api::SolveRequest>& requests,
                      const std::vector<api::SolveRequest>& suspended,
                      Trace& trace, double budget_seconds, Outcome& out) {
  ProbeResult result;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(budget_seconds));
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (i > 0 && Clock::now() >= deadline) break;
    const api::SolveRequest& request = requests[i];
    const std::uint64_t job = local_job_id();
    result.walkers = request.walkers;

    const TracedSolve direct = traced_solve(request, trace, job);
    std::string why;
    tally(out, check_report(request.problem, direct.report, {}, &why), why);
    result.race_seconds.push_back(
        std::chrono::duration<double>(direct.ret - direct.call).count());

    // The same seed as a deterministic emulated race: every walker's solo
    // time, and the winner's exact iteration count.
    api::SolveRequest emulated = request;
    emulated.scheduling = parallel::Scheduling::kEmulatedRace;
    const api::SolveReport solo = api::Solver::solve(emulated);
    tally(out, check_report(request.problem, solo, {}, &why), why);
    for (const api::WalkerReport& w : solo.walkers) {
      if (w.solved) result.solo_seconds.push_back(w.seconds);
    }
    if (solo.has_winner()) {
      result.emulated_winner_iterations.push_back(
          static_cast<double>(solo.walkers[solo.winner].iterations));
    }

    // A checkpoint captured at the first safe point, then encoded and
    // decoded the way the serving tier hands it back.
    const api::SolveRequest& victim = suspended[i % suspended.size()];
    std::atomic<bool> preempt{true};
    std::optional<parallel::PoolCheckpoint> checkpoint;
    api::SolveCallbacks callbacks;
    callbacks.preempt = &preempt;
    callbacks.checkpoint_out = &checkpoint;
    const api::SolveReport stopped =
        api::Solver::solve(victim, core::StopToken(), callbacks);
    if (stopped.preempted && checkpoint) {
      const Clock::time_point encode_start = Clock::now();
      const std::string text = checkpoint->to_json().dump(0);
      const Clock::time_point encode_end = Clock::now();
      const std::optional<util::Json> parsed = util::Json::parse(text);
      const parallel::PoolCheckpoint decoded =
          parallel::PoolCheckpoint::from_json(*parsed);
      const Clock::time_point decode_end = Clock::now();
      trace.span(job, "parallel.checkpoint_encode", encode_start, encode_end);
      trace.span(job, "parallel.checkpoint_decode", encode_end, decode_end);
      result.checkpoint_bytes.push_back(static_cast<double>(text.size()));
      if (!(decoded == *checkpoint)) {
        out.wrong(victim.problem + ": checkpoint does not round-trip");
      }
    }
  }
  return result;
}

// --- Per-layer table -------------------------------------------------------

void reconcile(const serve::SchedulerStats& stats, Outcome& out,
               std::string_view pass) {
  const std::string where(pass);
  if (stats.submitted != stats.completed + stats.cancelled + stats.failed) {
    out.wrong(where + ": submitted " + std::to_string(stats.submitted) +
              " != completed + cancelled + failed " +
              std::to_string(stats.completed + stats.cancelled + stats.failed));
  }
  // `resumed` counts checkpoint-carrying resubmissions, and a suspended
  // job preempted again while still queued in the service is resubmitted
  // with its checkpoint once more: each resubmission follows a preemption
  // of one kind or the other.
  if (stats.resumed > stats.preempted_running + stats.preempted_queued) {
    out.wrong(where + ": resumed " + std::to_string(stats.resumed) +
              " > preempted_running + preempted_queued " +
              std::to_string(stats.preempted_running + stats.preempted_queued));
  }
}

void add_layer_metrics(const LayerInputs& in, Outcome& out) {
  const Trace& trace = *in.trace;
  const ProbeResult& probe = in.probe;
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  out.add("problems.instantiate_us",
          median(trace.durations_us("problems.instantiate")), "us");
  out.add("problems.evals_per_s",
          ratio(in.engine.evaluations, in.engine.seconds), "1/s");
  out.add("core.iters_per_s", ratio(in.engine.iterations, in.engine.seconds),
          "1/s");
  out.add("core.iters_per_solve_p50", median(probe.emulated_winner_iterations),
          "count");

  const std::vector<double> launch = trace.durations_us("parallel.launch");
  out.add("parallel.launch_us_p50", quantile(launch, 0.5), "us");
  out.add("parallel.launch_us_p99", quantile(launch, 0.99), "us");
  out.add("parallel.join_us_p50", median(trace.durations_us("parallel.join")),
          "us");
  out.add("parallel.checkpoint_bytes", median(probe.checkpoint_bytes), "B");
  out.add("parallel.checkpoint_encode_us",
          median(trace.durations_us("parallel.checkpoint_encode")), "us");
  out.add("parallel.checkpoint_decode_us",
          median(trace.durations_us("parallel.checkpoint_decode")), "us");

  // The paper's claim on this workload's job shape: measured speedup of
  // the threaded race over its walkers' solo times, against the order-
  // statistics prediction from the same solo sample (means on both sides).
  const double solo_mean = mean(probe.solo_seconds);
  const double measured = ratio(solo_mean, mean(probe.race_seconds));
  double predicted = 0.0;
  if (!probe.solo_seconds.empty()) {
    const sim::EmpiricalDistribution law(probe.solo_seconds);
    predicted = ratio(solo_mean, law.expected_min_of_k(probe.walkers));
  }
  out.add("parallel.speedup_measured", measured, "x");
  out.add("sim.speedup_predicted", predicted, "x");
  out.add("sim.predict_ratio", ratio(measured, predicted), "ratio");

  out.add("api.request_decode_us",
          median(trace.durations_us("api.request_decode")), "us");
  out.add("api.report_encode_us",
          median(trace.durations_us("api.report_encode")), "us");
  out.add("api.report_bytes", median(in.report_bytes), "B");
  out.add("api.solve_overhead_us",
          median(trace.durations_us("api.solve_overhead")), "us");

  const StageSamples& st = in.stages;
  out.add("serve.handle_line_us_p50", quantile(st.handle_us, 0.5), "us");
  out.add("serve.handle_line_us_p99", quantile(st.handle_us, 0.99), "us");
  out.add("serve.admit_us_p50", median(st.admit_us), "us");
  out.add("serve.queue_wait_ms_p50", quantile(st.queue_ms, 0.5), "ms");
  out.add("serve.queue_wait_ms_p99", quantile(st.queue_ms, 0.99), "ms");
  out.add("serve.run_ms_p50", median(st.run_ms), "ms");
  out.add("serve.finish_us_p50", median(st.finish_us), "us");

  const serve::SchedulerStats& s = in.stats;
  out.add("serve.batch_size_mean",
          ratio(static_cast<double>(s.batched_jobs), static_cast<double>(s.batches)),
          "count");
  out.add("serve.fused_share",
          ratio(static_cast<double>(s.fused_jobs), static_cast<double>(s.submitted)),
          "ratio");
  out.add("serve.givebacks", static_cast<double>(s.givebacks), "count");
  out.add("serve.preempted_running", static_cast<double>(s.preempted_running),
          "count");
  out.add("serve.resumed", static_cast<double>(s.resumed), "count");
  out.add("serve.rejected_overload", static_cast<double>(s.rejected_overload),
          "count");
  out.add("serve.event_bytes_per_job", ratio(in.event_bytes, in.served_jobs), "B");

  out.add("bench.generator_lag_ms_p99", quantile(st.lag_ms, 0.99), "ms");
  out.add("bench.stage_sum_ratio", st.sum_ratio(), "ratio");
  out.add("bench.tracing_overhead", in.tracing_overhead, "ratio");
  out.add("bench.latency_p99_ms", in.latency_p99_ms, "ms");
  out.add("bench.high_latency_p99_ms", in.high_latency_p99_ms, "ms");
  out.add("host.spin_1t_s", in.host.at("spin_1t_s").as_double(), "s");
  out.add("host.spin_nt_s", in.host.at("spin_nt_s").as_double(), "s");
}

}  // namespace perfbench
