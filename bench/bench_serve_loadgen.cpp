// Serving-tier load generator: drives many concurrent small solves through
// the wire protocol (encoded request lines in, parsed event lines out — the
// same bytes a stdio/HTTP client would exchange) and reports end-to-end
// latency percentiles and throughput per priority lane.
//
// The job set runs `--repeats` times on a fresh scheduler each time and the
// best pass is kept: a small solve finishes in milliseconds, so one
// descheduling blip otherwise dominates the wall time.
//
// Defaults complete 1000 jobs; --quick is the CI smoke budget.  The CSV
// (SERVE_load.csv) schema is validated by tools/check_serve_load.py; the
// JSON (BENCH_serve.json) is the committed baseline of record and carries
// the host and build labels it was measured under.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/session.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/simd.hpp"
#include "util/table.hpp"

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::string_view kPriorities[] = {"high", "normal", "low"};

struct LaneAgg {
  std::vector<double> latencies_ms;
  std::uint64_t solved = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;

  [[nodiscard]] std::uint64_t total() const {
    return solved + failed + cancelled;
  }
};

struct PassConfig {
  std::uint64_t jobs = 0;
  std::string problem;
  bool stream = false;
  std::uint64_t seed = 0;
  std::size_t warm_workers = 0;
  std::size_t warm_batch_max = 0;
  std::size_t thread_budget = 0;
};

struct PassResult {
  std::map<std::string, LaneAgg> lanes;  // keyed by priority name, plus "all"
  double wall_seconds = 0.0;
  double throughput = 0.0;
  std::uint64_t samples_seen = 0;
  cspls::serve::SchedulerStats stats;
};

double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

std::string fmt(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.3f", value);
  return buffer;
}

/// One full pass over the job set on a fresh scheduler.
PassResult run_pass(const PassConfig& config) {
  using namespace cspls;
  serve::SchedulerOptions options;
  options.warm_workers = config.warm_workers;
  options.warm_batch_max = config.warm_batch_max;
  options.service.thread_budget = config.thread_budget;
  serve::Scheduler scheduler(options);

  // tag -> submit time; filled before each handle_line, matched against the
  // tag echoed in the report event (ids are assigned by the server).
  std::mutex m;
  std::condition_variable done_cv;
  std::map<std::string, Clock::time_point> submit_at;
  std::map<std::string, std::string> lane_of_tag;
  PassResult result;
  std::uint64_t reported = 0;

  serve::Session session(scheduler, [&](std::string_view line) {
    // Parse exactly what a wire client would read.
    const std::optional<util::Json> event = util::Json::parse(
        std::string_view(line.data(), line.size() - 1));  // strip '\n'
    if (!event) return;
    const std::string& kind = event->at("event").as_string();
    if (kind == "sample") {
      std::lock_guard lock(m);
      ++result.samples_seen;
      return;
    }
    if (kind != "report") return;
    const Clock::time_point now = Clock::now();
    const std::string& tag = event->at("tag").as_string();
    const std::string& status = event->at("status").as_string();
    std::lock_guard lock(m);
    LaneAgg& agg = result.lanes[lane_of_tag[tag]];
    agg.latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(now - submit_at[tag])
            .count());
    if (status == "done") {
      ++agg.solved;
    } else if (status == "cancelled") {
      ++agg.cancelled;
    } else {
      ++agg.failed;
    }
    ++reported;
    done_cv.notify_all();
  });

  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t i = 0; i < config.jobs; ++i) {
    const std::string tag = "job-" + std::to_string(i);
    const std::string_view priority = kPriorities[i % 3];
    util::Json request = util::Json::object();
    request.set("problem", config.problem)
        .set("walkers", std::uint64_t{1})
        .set("scheduling", "sequential")
        .set("seed", config.seed + i);
    util::Json envelope = util::Json::object();
    envelope.set("op", "solve")
        .set("request", std::move(request))
        .set("priority", priority)
        .set("tag", tag);
    if (config.stream) {
      envelope.set("stream", true).set("sample_period", std::uint64_t{512});
    }
    {
      std::lock_guard lock(m);
      submit_at[tag] = Clock::now();
      lane_of_tag[tag] = std::string(priority);
    }
    session.handle_line(envelope.dump(0));
  }

  {
    std::unique_lock lock(m);
    done_cv.wait(lock, [&] { return reported == config.jobs; });
  }
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  result.throughput =
      static_cast<double>(config.jobs) / result.wall_seconds;
  scheduler.shutdown();
  result.stats = scheduler.stats();

  LaneAgg& all = result.lanes["all"];
  for (const std::string_view priority : kPriorities) {
    LaneAgg& agg = result.lanes[std::string(priority)];
    all.solved += agg.solved;
    all.failed += agg.failed;
    all.cancelled += agg.cancelled;
    all.latencies_ms.insert(all.latencies_ms.end(), agg.latencies_ms.begin(),
                            agg.latencies_ms.end());
  }
  for (auto& [lane, agg] : result.lanes) {
    std::sort(agg.latencies_ms.begin(), agg.latencies_ms.end());
  }
  return result;
}

/// Mixed-priority preemption profile: one service slot, long low jobs
/// already running when short high jobs arrive, so every high arrival can
/// only displace the *running* low.  Run once with running preemption
/// (suspend to checkpoint, resume later) and once without (the high waits
/// the walk out): the low-lane completion latencies of the two runs bound
/// the price of being preempted, the high-lane latencies the price of not
/// preempting.
struct PreemptProfile {
  std::vector<double> low_ms;   // sorted low-lane completion latencies
  std::vector<double> high_ms;  // sorted high-lane completion latencies
  cspls::serve::SchedulerStats stats;
};

PreemptProfile run_preempt_profile(bool with_resume, std::uint64_t lows,
                                   std::uint64_t highs, std::uint64_t seed) {
  using namespace cspls;
  serve::SchedulerOptions options;
  options.warm_workers = 1;
  options.warm_lease_threshold = 0;  // every job takes the service path
  options.service_inflight = 1;      // one slot: arrivals must displace it
  options.service.thread_budget = 1;
  options.preempt_running = with_resume;
  serve::Scheduler scheduler(options);

  std::mutex m;
  std::condition_variable done_cv;
  std::map<std::string, Clock::time_point> submit_at;
  std::map<std::string, bool> is_low;
  PreemptProfile profile;
  std::uint64_t reported = 0;

  serve::Session session(scheduler, [&](std::string_view line) {
    const std::optional<util::Json> event = util::Json::parse(
        std::string_view(line.data(), line.size() - 1));
    if (!event || event->at("event").as_string() != "report") return;
    const Clock::time_point now = Clock::now();
    const std::string& tag = event->at("tag").as_string();
    std::lock_guard lock(m);
    const double ms =
        std::chrono::duration<double, std::milli>(now - submit_at[tag])
            .count();
    (is_low[tag] ? profile.low_ms : profile.high_ms).push_back(ms);
    ++reported;
    done_cv.notify_all();
  });

  const auto submit = [&](std::string_view priority, const std::string& tag,
                          std::string_view problem, std::uint64_t job_seed,
                          std::uint64_t restart_limit) {
    util::Json request = util::Json::object();
    request.set("problem", std::string(problem))
        .set("walkers", std::uint64_t{1})
        .set("scheduling", "sequential")
        .set("seed", job_seed);
    if (restart_limit != 0) {
      // A fixed iteration budget on an unsolvable instance: the job's
      // length is the budget, not luck, so the highs land mid-walk.
      util::Json params = util::Json::object();
      params.set("restart_limit", restart_limit)
          .set("max_restarts", std::uint64_t{0});
      request.set("params", std::move(params));
    }
    util::Json envelope = util::Json::object();
    envelope.set("op", "solve")
        .set("request", std::move(request))
        .set("priority", priority)
        .set("tag", tag);
    {
      std::lock_guard lock(m);
      submit_at[tag] = Clock::now();
      is_low[tag] = priority == "low";
    }
    session.handle_line(envelope.dump(0));
  };

  // All low jobs up front: one runs, the rest wait in the low lane (the
  // single service slot leaves no queued-in-service victim).
  for (std::uint64_t i = 0; i < lows; ++i) {
    submit("low", "low-" + std::to_string(i), "langford:5", seed + i,
           400'000);
  }
  // High arrivals paced a few ms apart so several land while a low walk
  // (tens of ms) is mid-run.
  for (std::uint64_t i = 0; i < highs; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    submit("high", "high-" + std::to_string(i), "costas:7",
           seed + 1000 + i, 0);
  }

  {
    std::unique_lock lock(m);
    done_cv.wait(lock, [&] { return reported == lows + highs; });
  }
  scheduler.shutdown();
  profile.stats = scheduler.stats();
  std::sort(profile.low_ms.begin(), profile.low_ms.end());
  std::sort(profile.high_ms.begin(), profile.high_ms.end());
  return profile;
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

/// The host and build a measurement was taken on, as one JSON object.
std::string host_json() {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::string json = "{";
  json += "\"compiler\": \"" + compiler + "\"";
  json += ", \"build_type\": \"" CSPLS_BUILD_TYPE "\"";
  json += std::string(", \"ndebug\": ") + (ndebug ? "true" : "false");
  json += std::string(", \"compiled_isa\": \"") + compiled_isa() + "\"";
  json += std::string(", \"simd_tier\": \"") +
          cspls::util::simd::tier_name() + "\"";
  json += ", \"host_cores\": " +
          std::to_string(std::thread::hardware_concurrency());
  json += "}";
  return json;
}

void append_json_pass(std::string& json, PassResult& pass) {
  json += "  \"pass\": {\n";
  json += "    \"wall_seconds\": " + fmt(pass.wall_seconds) + ",\n";
  json += "    \"throughput_per_s\": " + fmt(pass.throughput) + ",\n";
  json += "    \"batches\": " + std::to_string(pass.stats.batches) + ",\n";
  json += "    \"batched_jobs\": " +
          std::to_string(pass.stats.batched_jobs) + ",\n";
  json += "    \"givebacks\": " + std::to_string(pass.stats.givebacks) +
          ",\n";
  json += "    \"preempted_queued\": " +
          std::to_string(pass.stats.preempted_queued) + ",\n";
  json += "    \"preempted_running\": " +
          std::to_string(pass.stats.preempted_running) + ",\n";
  json += "    \"resumed\": " + std::to_string(pass.stats.resumed) + ",\n";
  json += "    \"rejected_overload\": " +
          std::to_string(pass.stats.rejected_overload) + ",\n";
  json += "    \"lanes\": {\n";
  bool first = true;
  for (const std::string_view priority : kPriorities) {
    LaneAgg& agg = pass.lanes[std::string(priority)];
    if (!first) json += ",\n";
    first = false;
    json += "      \"" + std::string(priority) + "\": {";
    json += "\"jobs\": " + std::to_string(agg.total());
    json += ", \"p50_ms\": " + fmt(percentile(agg.latencies_ms, 0.50));
    json += ", \"p99_ms\": " + fmt(percentile(agg.latencies_ms, 0.99));
    json += "}";
  }
  json += "\n    }\n  }";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cspls;

  util::ArgParser args("bench_serve_loadgen",
                       "serving-tier latency/throughput under concurrent "
                       "small solves");
  args.add_uint64("jobs", 1000, "solve jobs to push through the wire");
  args.add_string("problem", "costas:6", "instance spec per job");
  args.add_uint64("warm-workers", 4, "warm-pool worker threads");
  args.add_uint64("batch", 8, "warm batch claim size");
  args.add_uint64("threads", 0, "service-path walker-thread budget");
  args.add_flag("stream", "request sample streaming on every job");
  args.add_uint64("repeats", 3, "passes over the job set; best kept");
  args.add_uint64("seed", 0xC5B15, "base seed (job i uses seed + i)");
  args.add_string("csv", "SERVE_load.csv", "output CSV path");
  args.add_string("json", "BENCH_serve.json", "output JSON baseline path");
  args.add_flag("quick", "CI smoke budget (250 jobs)");
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 2;

  PassConfig config;
  config.jobs = args.flag("quick") ? 250 : args.get_uint64("jobs");
  config.problem = args.get_string("problem");
  config.stream = args.flag("stream");
  config.seed = args.get_uint64("seed");
  config.warm_workers =
      static_cast<std::size_t>(args.get_uint64("warm-workers"));
  config.warm_batch_max = static_cast<std::size_t>(args.get_uint64("batch"));
  config.thread_budget = static_cast<std::size_t>(args.get_uint64("threads"));

  // Same jobs, same seeds, fresh scheduler each time; the best pass is
  // kept.
  const std::uint64_t repeats =
      std::max<std::uint64_t>(1, args.get_uint64("repeats"));
  PassResult best;
  std::uint64_t failed = 0;
  for (std::uint64_t r = 0; r < repeats; ++r) {
    PassResult pass = run_pass(config);
    failed += pass.lanes["all"].failed;
    if (r == 0 || pass.throughput > best.throughput) best = std::move(pass);
  }

  util::Table table({"lane", "jobs", "solved", "failed", "cancelled",
                     "p50_ms", "p90_ms", "p99_ms", "max_ms"});
  const auto row_of = [&](std::string_view lane, LaneAgg& agg) {
    const double max_ms =
        agg.latencies_ms.empty() ? 0.0 : agg.latencies_ms.back();
    return std::vector<std::string>{
        std::string(lane),
        std::to_string(agg.total()),
        std::to_string(agg.solved),
        std::to_string(agg.failed),
        std::to_string(agg.cancelled),
        fmt(percentile(agg.latencies_ms, 0.50)),
        fmt(percentile(agg.latencies_ms, 0.90)),
        fmt(percentile(agg.latencies_ms, 0.99)),
        fmt(max_ms)};
  };
  constexpr std::string_view kRows[] = {"high", "normal", "low", "all"};
  for (const std::string_view lane : kRows) {
    table.add_row(row_of(lane, best.lanes[std::string(lane)]));
  }

  std::cout << "bench_serve_loadgen: " << config.jobs << " x "
            << config.problem << " through the wire (" << config.warm_workers
            << " warm workers, best of " << repeats << " passes)\n\n"
            << table.render();
  std::cout << "\nwall " << fmt(best.wall_seconds * 1000.0)
            << " ms, throughput " << fmt(best.throughput)
            << " jobs/s, batches " << best.stats.batches << " ("
            << best.stats.batched_jobs << " jobs), givebacks "
            << best.stats.givebacks << "\n";

  // Mixed-priority preemption profile: the same arrival pattern with and
  // without running preemption (suspend-to-checkpoint + resume).
  const std::uint64_t profile_lows = 6, profile_highs = 6;
  PreemptProfile preempt = run_preempt_profile(
      /*with_resume=*/true, profile_lows, profile_highs, config.seed);
  PreemptProfile noresume = run_preempt_profile(
      /*with_resume=*/false, profile_lows, profile_highs, config.seed);
  const auto profile_line = [&](std::string_view mode, PreemptProfile& p) {
    std::cout << mode << ": high p50 " << fmt(percentile(p.high_ms, 0.50))
              << " ms, low p50 " << fmt(percentile(p.low_ms, 0.50))
              << " ms, low p99 " << fmt(percentile(p.low_ms, 0.99))
              << " ms, preempted_running " << p.stats.preempted_running
              << ", resumed " << p.stats.resumed << "\n";
  };
  std::cout << "\npreemption profile (" << profile_lows << " low x ~33 ms + "
            << profile_highs << " high arrivals, one service slot):\n";
  profile_line("resume  ", preempt);
  profile_line("noresume", noresume);

  util::CsvWriter csv(args.get_string("csv"));
  std::vector<std::vector<std::string>> csv_rows;
  for (const std::string_view lane : kRows) {
    std::vector<std::string> row = row_of(lane, best.lanes[std::string(lane)]);
    row.push_back(fmt(best.wall_seconds));
    row.push_back(fmt(best.throughput));
    row.push_back(std::to_string(best.stats.batches));
    row.push_back(std::to_string(best.stats.batched_jobs));
    row.push_back(std::to_string(best.stats.givebacks));
    row.push_back(std::to_string(best.samples_seen));
    row.push_back(std::to_string(best.stats.preempted_queued));
    row.push_back(std::to_string(best.stats.preempted_running));
    row.push_back(std::to_string(best.stats.resumed));
    row.push_back(std::to_string(best.stats.rejected_overload));
    row.push_back(fmt(percentile(preempt.high_ms, 0.50)));
    row.push_back(fmt(percentile(preempt.low_ms, 0.50)));
    row.push_back(fmt(percentile(preempt.low_ms, 0.99)));
    row.push_back(std::to_string(preempt.stats.preempted_running));
    row.push_back(std::to_string(preempt.stats.resumed));
    row.push_back(fmt(percentile(noresume.high_ms, 0.50)));
    row.push_back(fmt(percentile(noresume.low_ms, 0.50)));
    row.push_back(fmt(percentile(noresume.low_ms, 0.99)));
    csv_rows.push_back(row);
  }
  csv.write_all({"lane", "jobs", "solved", "failed", "cancelled", "p50_ms",
                 "p90_ms", "p99_ms", "max_ms", "wall_seconds",
                 "throughput_per_s", "batches", "batched_jobs", "givebacks",
                 "samples", "preempted_queued", "preempted_running",
                 "resumed", "rejected_overload", "preempt_high_p50_ms",
                 "preempt_low_p50_ms", "preempt_low_p99_ms",
                 "preempt_preempted_running", "preempt_resumed",
                 "noresume_high_p50_ms", "noresume_low_p50_ms",
                 "noresume_low_p99_ms"},
                csv_rows);
  std::cout << "CSV: " << csv.path() << "\n";

  std::string json = "{\n  \"schema\": \"cspls-bench-serve/2\",\n";
  json += "  \"command\": \"bench_serve_loadgen";
  for (int i = 1; i < argc; ++i) json += std::string(" ") + argv[i];
  json += "\",\n";
  json += "  \"host\": " + host_json() + ",\n";
  json += "  \"quick\": " +
          std::string(args.flag("quick") ? "true" : "false") + ",\n";
  json += "  \"jobs\": " + std::to_string(config.jobs) + ",\n";
  json += "  \"problem\": \"" + config.problem + "\",\n";
  json += "  \"warm_workers\": " + std::to_string(config.warm_workers) +
          ",\n";
  json += "  \"warm_batch_max\": " +
          std::to_string(config.warm_batch_max) + ",\n";
  json += "  \"repeats\": " + std::to_string(repeats) + ",\n";
  append_json_pass(json, best);
  json += ",\n";
  const auto profile_json = [&](std::string_view name, PreemptProfile& p) {
    std::string out = "    \"" + std::string(name) + "\": {";
    out += "\"high_p50_ms\": " + fmt(percentile(p.high_ms, 0.50));
    out += ", \"low_p50_ms\": " + fmt(percentile(p.low_ms, 0.50));
    out += ", \"low_p99_ms\": " + fmt(percentile(p.low_ms, 0.99));
    out += ", \"preempted_running\": " +
           std::to_string(p.stats.preempted_running);
    out += ", \"resumed\": " + std::to_string(p.stats.resumed);
    out += "}";
    return out;
  };
  json += "  \"preemption\": {\n";
  json += profile_json("resume", preempt) + ",\n";
  json += profile_json("noresume", noresume) + "\n  }\n}\n";
  const std::string& json_path = args.get_string("json");
  std::ofstream out(json_path);
  if (!out) {
    std::cerr << "ERROR: cannot write " << json_path << "\n";
    return 3;
  }
  out << json;
  out.close();
  std::cout << "JSON: " << json_path << "\n";

  return failed == 0 ? 0 : 1;
}
