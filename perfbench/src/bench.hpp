// Shared machinery of the repository benchmark: timing and windowed
// percentiles, the in-memory span recorder, the independent answer
// checker, build/host labels, the in-process wire client that drives the
// serving tier, and the direct-solve probe every traced run uses to
// measure the parallel, api and sim layers on its own workload's job
// shapes.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/solve.hpp"
#include "serve/scheduler.hpp"
#include "serve/session.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace api = cspls::api;
namespace serve = cspls::serve;
namespace util = cspls::util;

using Clock = std::chrono::steady_clock;

[[nodiscard]] double to_ms(Clock::duration d);
[[nodiscard]] double to_us(Clock::duration d);

/// Type-7 quantile of an unsorted sample; 0 for an empty one.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double mean(const std::vector<double>& values);

/// The latency statistic behind every end-to-end `*_p50_ms` and
/// `*_p99_ms`: `latencies` in the order the jobs were due, cut into windows
/// of 1000 consecutive jobs (the last one taking the remainder); the
/// median over windows of each window's q-quantile.  Under 2000 jobs this
/// is the plain quantile.  A host that steals the CPUs for a while sets
/// the quantiles of the windows it falls in, not of the whole run.
[[nodiscard]] double windowed_quantile(const std::vector<double>& latencies,
                                       double q);

/// Deterministic 64-bit mix (splitmix64): every input derives from --seed.
[[nodiscard]] std::uint64_t mix(std::uint64_t x);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  ///< where a traced run writes its spans
  std::string source;     ///< commit or source-tree digest (from run.py)
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run hands back to main: the result line's fields plus
/// free-form detail lines (ladder steps, check diagnostics).
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  ///< why `correct` is false, if it is
  util::Json detail = util::Json::object();

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void wrong(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
};

/// In-memory span recorder.  A span is (job, name, start, end, parent);
/// spans of one job share its id.  Disabled recorders drop every span, so
/// untraced runs pay one branch per call site.
class Trace {
 public:
  explicit Trace(bool enabled);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Record a span; returns its id (0 when disabled).  `name` must be a
  /// string literal (stored by pointer).
  std::uint64_t span(std::uint64_t job, const char* name, Clock::time_point start,
                     Clock::time_point end, std::uint64_t parent = 0);

  /// Durations in microseconds of every span called `name`.
  [[nodiscard]] std::vector<double> durations_us(std::string_view name) const;

  /// One JSON object per line: {"id","job","name","start_us","end_us","parent"}.
  void write(const std::string& path) const;

 private:
  struct Span {
    std::uint64_t id;
    std::uint64_t job;
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    std::uint64_t parent;
  };

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex m_;
  std::vector<Span> spans_;  ///< guarded by m_
};

/// Job ids for spans outside any scheduler (the scheduler's own ids are
/// used for wire jobs); the high bit keeps the two spaces apart.
[[nodiscard]] std::uint64_t local_job_id();

/// How one job is expected to end.
struct Expectation {
  bool solved = true;
  /// For jobs that must exhaust a fixed budget: the exact total iteration
  /// count of the run (walkers x budget).  0 = not checked.
  std::uint64_t exact_iterations = 0;
};

enum class Verdict { kOk, kMissed, kWrong };

/// Independent check of one report.  A solved report's solution must be a
/// permutation of the instance's value set and must be accepted, position
/// by position, by the complete-search checker of src/baseline/checkers.
/// kMissed: unsolved when a solve was expected (counted as failed);
/// kWrong: a wrong answer (the run is incorrect).  `why` says which.
[[nodiscard]] Verdict check_report(const std::string& spec,
                                   const api::SolveReport& report,
                                   const Expectation& expect, std::string* why);

/// Tally one verdict into the outcome.
void tally(Outcome& out, Verdict verdict, const std::string& why);

/// Keep every CPU busy for `seconds`, one spinning thread pinned to each.
/// A virtual machine whose CPUs sat idle gets a fraction of them back for
/// the first seconds of load; runs start after this so they measure the
/// host's steady state.  Returns, per CPU, the milliseconds per second its
/// spinner lost (gaps over 50 us), the later half of the warm-up only.
std::vector<double> warm_host(double seconds);

/// Seconds of unmeasured workload each run starts with (caches, allocator,
/// thread stacks), after warm_host.
inline constexpr double kWarmupSeconds = 1.0;

/// Build, ISA and host labels, including the host-capacity calibration
/// (a fixed spin loop on 1 and on nproc threads) and the per-CPU time lost
/// during warm-up.
[[nodiscard]] util::Json labels(const Options& options,
                                const std::vector<double>& stolen_ms_per_s);

/// Peak resident set of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// Logical CPUs this process may run on.
[[nodiscard]] std::size_t nproc();

/// How many set-ups setup_s takes the median of.
inline constexpr int kSetupReps = 201;

/// Median wall time in seconds of `reps` calls of `make`; what it builds
/// is torn down outside the timed interval.
template <typename Make>
[[nodiscard]] double median_setup_seconds(Make make, int reps) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point start = Clock::now();
    const auto built = make();
    samples.push_back(std::chrono::duration<double>(Clock::now() - start).count());
  }
  return median(std::move(samples));
}

/// Result of one direct api::Solver::solve with an iteration-0 sample sink:
/// the call and return times, each walker's iteration-0 stamp.
struct TracedSolve {
  api::SolveReport report;
  Clock::time_point call;
  Clock::time_point ret;
  std::vector<Clock::time_point> first_sample;  ///< per walker (or unset)
};

/// Solve `request` directly, recording api.solve, parallel.launch (call to
/// each walker's iteration-0 sample) and parallel.join (winner's finish to
/// return) spans under `job`.
TracedSolve traced_solve(const api::SolveRequest& request, Trace& trace,
                         std::uint64_t job);

/// Per-job spans of the benchmark's own calls into the problems and api
/// layers: problems.instantiate (parse_spec + instantiate of the job's
/// spec), api.request_decode (SolveRequest::from_json_string of its wire
/// text) and api.report_encode (SolveReport::to_json_string of the report,
/// whose size is added to *report_bytes).
void trace_request_side(const std::string& request_json, Trace& trace,
                        std::uint64_t job);
void trace_report_side(const api::SolveReport& report, Trace& trace,
                       std::uint64_t job, std::vector<double>* report_bytes);

/// Engine counters summed over reports, for problems.evals_per_s and
/// core.iters_per_s.
struct EngineTotals {
  double evaluations = 0.0;
  double iterations = 0.0;
  double seconds = 0.0;
  void add(const api::SolveReport& report);
};

/// The probe that closes every traced run: the workload's own job shapes
/// replayed through the layers its pass reached only indirectly.  Each of
/// `requests` (solvable) runs as a direct traced solve and as a
/// deterministic emulated race; the matching one of `suspended` (the shape
/// the workload suspends) runs with preemption requested from the start,
/// and its checkpoint is encoded and decoded.  Gives the parallel.*, sim.*
/// and core.iters_per_solve numbers and the api.solve_overhead spans;
/// stops after `budget_seconds`.
struct ProbeResult {
  std::vector<double> checkpoint_bytes;
  std::vector<double> solo_seconds;   ///< every walker of the emulated races
  std::vector<double> race_seconds;   ///< direct threaded solves, call to return
  std::vector<double> emulated_winner_iterations;
  std::size_t walkers = 1;
};
ProbeResult run_probe(const std::vector<api::SolveRequest>& requests,
                      const std::vector<api::SolveRequest>& suspended,
                      Trace& trace, double budget_seconds, Outcome& out);

/// One job sent over the wire protocol.
struct WireJob {
  std::string line;  ///< the complete request envelope
  std::string request_json;  ///< its `request` member, for api.request_decode
  std::string spec;
  serve::Priority lane = serve::Priority::kNormal;
  Expectation expect;
  Clock::time_point due;  ///< open loop: the schedule; closed loop: the call
};

/// What the client saw of one job, stamped when each event line was
/// written by the session.
struct WireRecord {
  Clock::time_point call;      ///< handle_line entered
  Clock::time_point returned;  ///< handle_line returned
  Clock::time_point accepted;
  Clock::time_point first_sample;
  Clock::time_point reported;
  bool has_accepted = false;
  bool has_sample = false;
  bool has_report = false;
  std::string status;
  /// The independent check of the report, made as it arrives.
  Verdict verdict = Verdict::kMissed;
  std::string why;
  double engine_seconds = 0.0;  ///< the longest walker's own run time
  /// The decoded report, kept only by clients that keep reports.
  api::SolveReport report;
  /// What the check needs, copied in at send time.
  std::string spec;
  Expectation expect;
};

/// The wire envelope of one solve (its due time still to be set); the
/// tag is `index`, streaming jobs ask for their iteration-0 sample only.
[[nodiscard]] WireJob make_wire_job(const api::SolveRequest& request,
                                    serve::Priority lane, std::size_t index,
                                    bool stream, Expectation expect);

/// An in-process serving client: a Scheduler and a Session fed request
/// lines by the calling (generator) thread.  Event lines are stamped in
/// the session's sink and parsed by one reader thread, so client-side
/// decoding never runs on the scheduler's workers.
class WireClient {
 public:
  /// `keep_reports`: hold every decoded report (traced passes need them);
  /// otherwise a report is checked on arrival and dropped.
  WireClient(const serve::SchedulerOptions& options, bool keep_reports);
  ~WireClient();

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Room for `jobs` more jobs, so no reallocation runs mid-schedule.
  void reserve(std::size_t jobs);

  /// Wait until `job.due`, then hand its line to the session.  Returns
  /// the job's index in records().
  std::size_t send(WireJob job);

  /// Block until job `index` reported; false on timeout.
  bool wait(std::size_t index, double timeout_seconds);
  /// Block until every sent job reported; false on timeout (the stragglers
  /// are then cancelled and waited for).
  bool drain(double timeout_seconds);

  /// Forget every job sent so far (after drain), keeping the server: the
  /// next job is index 0 again.  Long schedules reset between stretches
  /// so the client's own records do not pile up in the process's memory.
  void reset();

  /// Shut the scheduler down (after drain) and return its counters.
  serve::SchedulerStats finish();

  [[nodiscard]] const std::vector<WireRecord>& records() const {
    return records_;
  }
  [[nodiscard]] const std::vector<WireJob>& jobs() const { return jobs_; }
  [[nodiscard]] double event_bytes() const;
  /// Event lines that broke the protocol since the last reset().
  [[nodiscard]] std::uint64_t malformed_events() const;

 private:
  void read_loop();
  void handle_event(Clock::time_point at, const std::string& line);

  serve::Scheduler scheduler_;
  const bool keep_reports_;
  std::vector<WireJob> jobs_;        ///< generator thread only; lines dropped once sent
  std::vector<WireRecord> records_;  ///< guarded by m_ once sent

  mutable std::mutex m_;
  std::condition_variable cv_;
  std::deque<std::pair<Clock::time_point, std::string>> inbox_;
  std::unordered_map<std::uint64_t, std::size_t> index_of_id_;
  std::size_t reported_ = 0;
  std::uint64_t malformed_events_ = 0;
  double event_bytes_ = 0.0;
  bool closing_ = false;

  std::unique_ptr<serve::Session> session_;
  std::thread reader_;
};

/// Tally every job of a drained client into `out` by its check; a job
/// that failed, was cancelled or rejected, or never reported counts as
/// failed.
void tally_wire(const WireClient& client, Outcome& out);

/// Latencies from the due time of the client's jobs that passed their
/// check, all lanes and per lane, in due order, and their completed rate.
struct LaneLatencies {
  std::vector<double> all_ms;
  std::array<std::vector<double>, serve::kNumLanes> lane_ms;
  double jobs_per_s = 0.0;  ///< passed jobs over first due to last report
};
[[nodiscard]] LaneLatencies lane_latencies(const WireClient& client);

/// Per-job stage split of wire jobs that streamed their iteration-0
/// sample: admit (call to accepted), queue wait (accepted to first
/// sample), run (first sample to engine end, the longest walker's own
/// seconds) and finish (engine end to the report line); plus latency from
/// the due time, generator lateness and time inside handle_line.
struct StageSamples {
  std::vector<double> admit_us, queue_ms, run_ms, finish_us, handle_us;
  std::vector<double> lag_ms, latency_ms;
  void add(const WireJob& job, const WireRecord& record);
  /// Sum of the stage medians (lateness included) over the latency median.
  [[nodiscard]] double sum_ratio() const;
};

/// Shape of the per-layer table shared by every traced run.
struct LayerInputs {
  Trace* trace = nullptr;
  EngineTotals engine;
  ProbeResult probe;
  std::vector<double> report_bytes;
  serve::SchedulerStats stats;      ///< of the traced serving pass
  double event_bytes = 0.0;         ///< event lines written in that pass
  double served_jobs = 0.0;         ///< jobs submitted in that pass
  StageSamples stages;             ///< of the traced serving pass
  double tracing_overhead = 0.0;    ///< traced / untraced latency p50
  /// Tails of the untraced pass: reported per layer, not end to end,
  /// because on a shared VM they follow the host's CPU steal.
  double latency_p99_ms = 0.0;
  double high_latency_p99_ms = 0.0;
  util::Json host;                  ///< labels (for the calibration numbers)
};
void add_layer_metrics(const LayerInputs& in, Outcome& out);

/// Close a traced run on its drained, report-keeping serving client: fold
/// in its counters (reconciled), the stage split of its jobs in
/// `staged_lane` (all lanes when empty), its spans and engine totals; then
/// add the per-layer table to `out` and apply the stage-sum test.
void finish_traced(WireClient& client, std::optional<serve::Priority> staged_lane,
                   LayerInputs& in, Outcome& out);

/// Counter reconciliation of a drained scheduler: submitted = completed +
/// cancelled + failed, and resumed <= preempted_running + preempted_queued.
void reconcile(const serve::SchedulerStats& stats, Outcome& out,
               std::string_view pass);

/// The stage-sum test: the stage medians must add up to within this share
/// of the end-to-end median, or the breakdown is lying.
inline constexpr double kStageSumTolerance = 0.25;

/// Workload entry points.
Outcome run_race(const Options& options, const util::Json& host);
Outcome run_preempt(const Options& options, const util::Json& host);

}  // namespace perfbench
