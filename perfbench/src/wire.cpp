#include <algorithm>
#include <optional>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

using namespace cspls;

WireClient::WireClient(const serve::SchedulerOptions& options,
                       bool keep_reports)
    : scheduler_(options), keep_reports_(keep_reports) {
  session_ = std::make_unique<serve::Session>(
      scheduler_, [this](std::string_view line) {
        const Clock::time_point at = Clock::now();
        std::lock_guard lock(m_);
        event_bytes_ += static_cast<double>(line.size());
        inbox_.emplace_back(at, std::string(line));
        cv_.notify_all();
      });
  reader_ = std::thread([this] { read_loop(); });
}

WireClient::~WireClient() {
  finish();
  {
    std::lock_guard lock(m_);
    closing_ = true;
    cv_.notify_all();
  }
  reader_.join();
}

void WireClient::reserve(std::size_t jobs) {
  jobs_.reserve(jobs_.size() + jobs);
  std::lock_guard lock(m_);
  records_.reserve(records_.size() + jobs);
}

std::size_t WireClient::send(WireJob job) {
  // Sleep to just short of the due time, then spin: a sleeping thread on
  // a virtual CPU often wakes late, and that lateness would be charged to
  // the server.
  constexpr auto kSpin = std::chrono::microseconds(200);
  if (job.due - Clock::now() > kSpin) std::this_thread::sleep_until(job.due - kSpin);
  while (Clock::now() < job.due) {
  }
  const std::size_t index = jobs_.size();
  {
    std::lock_guard lock(m_);
    WireRecord& r = records_.emplace_back();
    r.spec = job.spec;
    r.expect = job.expect;
  }
  const std::string line = std::move(job.line);
  if (!keep_reports_) {
    // Untraced passes keep only what the latency math needs.
    job.request_json = std::string();
    job.spec = std::string();
  }
  jobs_.push_back(std::move(job));
  const Clock::time_point call = Clock::now();
  session_->handle_line(line);
  const Clock::time_point returned = Clock::now();
  std::lock_guard lock(m_);
  records_[index].call = call;
  records_[index].returned = returned;
  return index;
}

bool WireClient::wait(std::size_t index, double timeout_seconds) {
  std::unique_lock lock(m_);
  return cv_.wait_for(lock, std::chrono::duration<double>(timeout_seconds),
                      [&] { return records_[index].has_report; });
}

bool WireClient::drain(double timeout_seconds) {
  std::unique_lock lock(m_);
  const bool all =
      cv_.wait_for(lock, std::chrono::duration<double>(timeout_seconds),
                   [&] { return reported_ == records_.size(); });
  if (all) return true;
  lock.unlock();
  session_->cancel_all();
  lock.lock();
  cv_.wait_for(lock, std::chrono::seconds(30),
               [&] { return reported_ == records_.size(); });
  return false;
}

void WireClient::reset() {
  jobs_.clear();
  std::lock_guard lock(m_);
  records_.clear();
  index_of_id_.clear();
  reported_ = 0;
  malformed_events_ = 0;
}

double WireClient::event_bytes() const {
  std::lock_guard lock(m_);
  return event_bytes_;
}

std::uint64_t WireClient::malformed_events() const {
  std::lock_guard lock(m_);
  return malformed_events_;
}

serve::SchedulerStats WireClient::finish() {
  session_->cancel_all();  // a no-op after a successful drain()
  session_->drain();
  scheduler_.shutdown();
  return scheduler_.stats();
}

void WireClient::read_loop() {
  std::unique_lock lock(m_);
  while (true) {
    cv_.wait(lock, [&] { return closing_ || !inbox_.empty(); });
    if (inbox_.empty()) return;
    auto [at, line] = std::move(inbox_.front());
    inbox_.pop_front();
    lock.unlock();
    try {
      handle_event(at, line);
    } catch (const std::exception&) {
      // An event line the protocol does not allow (a missing member, an
      // unknown job): the server is wrong, so the run is.
      std::lock_guard guard(m_);
      ++malformed_events_;
    }
    lock.lock();
  }
}

void WireClient::handle_event(Clock::time_point at, const std::string& line) {
  const std::optional<util::Json> event =
      util::Json::parse(std::string_view(line).substr(0, line.size() - 1));
  const util::Json* kind = event ? event->find("event") : nullptr;
  if (kind == nullptr || !kind->is_string()) {
    throw std::runtime_error("not an event line");
  }
  const std::string& name = kind->as_string();
  if (name == "sample") {
    const std::uint64_t id = event->at("id").as_uint64();
    std::lock_guard lock(m_);
    WireRecord& r = records_[index_of_id_.at(id)];
    if (!r.has_sample) {
      r.has_sample = true;
      r.first_sample = at;
    }
    return;
  }
  if (name == "preempted") return;
  // Tags are the job's index in records().
  const util::Json* tag = event->find("tag");
  if (name == "error") {
    // A rejected or malformed submission: that job ends here, failed.
    std::lock_guard lock(m_);
    if (tag != nullptr && tag->is_string()) {
      WireRecord& r = records_[std::stoul(tag->as_string())];
      if (!r.has_report) {
        r.status = "error";
        r.reported = at;
        r.has_report = true;
        ++reported_;
        cv_.notify_all();
      }
    }
    return;
  }
  if (name != "accepted" && name != "report") return;
  const std::size_t index = std::stoul(tag->as_string());
  if (name == "accepted") {
    std::lock_guard lock(m_);
    index_of_id_[event->at("id").as_uint64()] = index;
    records_[index].has_accepted = true;
    records_[index].accepted = at;
    return;
  }
  api::SolveReport report = api::SolveReport::from_json(event->at("report"));
  std::string status = event->at("status").as_string();
  std::string spec;
  Expectation expect;
  {
    std::lock_guard lock(m_);
    spec = records_[index].spec;
    expect = records_[index].expect;
  }
  std::string why;
  const Verdict verdict =
      status == "done" ? check_report(spec, report, expect, &why) : Verdict::kMissed;
  if (verdict == Verdict::kMissed && why.empty()) why = spec + ": " + status;
  double engine_seconds = 0.0;
  for (const api::WalkerReport& w : report.walkers) {
    engine_seconds = std::max(engine_seconds, w.seconds);
  }
  std::lock_guard lock(m_);
  WireRecord& r = records_[index];
  r.verdict = verdict;
  r.why = std::move(why);
  r.engine_seconds = engine_seconds;
  if (keep_reports_) r.report = std::move(report);
  r.status = std::move(status);
  r.reported = at;
  r.has_report = true;
  ++reported_;
  cv_.notify_all();
}

namespace {

/// The engine's end as the client can place it: the first walker's
/// iteration-0 sample plus the longest walker's own run time.
Clock::time_point engine_end(const WireRecord& r) {
  return r.first_sample + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(r.engine_seconds));
}

/// The traced pass's post-run layer calls for every reported wire job
/// (trace_request_side / trace_report_side), its spans and engine totals.
void trace_wire_jobs(const WireClient& client, Trace& trace,
                     EngineTotals& engine, std::vector<double>* report_bytes) {
  const std::vector<WireJob>& jobs = client.jobs();
  const std::vector<WireRecord>& records = client.records();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (records[i].status != "done") continue;
    const WireRecord& r = records[i];
    const std::uint64_t job = local_job_id();
    const std::uint64_t root = trace.span(job, "bench.job", jobs[i].due, r.reported);
    trace.span(job, "bench.generator_lag", jobs[i].due, r.call, root);
    trace.span(job, "serve.handle_line", r.call, r.returned, root);
    if (r.has_accepted && r.has_sample) {
      const Clock::time_point end = engine_end(r);
      trace.span(job, "serve.admit", r.call, r.accepted, root);
      trace.span(job, "serve.queue_wait", r.accepted, r.first_sample, root);
      trace.span(job, "serve.run", r.first_sample, end, root);
      trace.span(job, "serve.finish", end, r.reported, root);
    }
    trace_request_side(jobs[i].request_json, trace, job);
    trace_report_side(records[i].report, trace, job, report_bytes);
    engine.add(records[i].report);
  }
}

}  // namespace

WireJob make_wire_job(const api::SolveRequest& request, serve::Priority lane,
                      std::size_t index, bool stream, Expectation expect) {
  WireJob job;
  job.request_json = request.to_json_string();
  job.spec = request.problem;
  job.lane = lane;
  job.expect = expect;
  util::Json envelope = util::Json::object();
  envelope.set("op", "solve")
      .set("request", request.to_json())
      .set("priority", serve::name_of(lane))
      .set("tag", std::to_string(index));
  if (stream) {
    envelope.set("stream", true).set("sample_period", std::uint64_t{1} << 62);
  }
  job.line = envelope.dump(0);
  return job;
}

void tally_wire(const WireClient& client, Outcome& out) {
  if (client.malformed_events() != 0) {
    out.wrong(std::to_string(client.malformed_events()) + " malformed event lines");
  }
  for (const WireRecord& r : client.records()) {
    tally(out, r.has_report ? r.verdict : Verdict::kMissed,
          r.has_report ? r.why : r.spec + ": no report");
  }
}

LaneLatencies lane_latencies(const WireClient& client) {
  LaneLatencies latencies;
  const std::vector<WireJob>& jobs = client.jobs();
  const std::vector<WireRecord>& records = client.records();
  if (jobs.empty()) return latencies;
  Clock::time_point end = jobs.front().due;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const WireRecord& r = records[i];
    if (!r.has_report || r.verdict != Verdict::kOk) continue;
    const double ms = to_ms(r.reported - jobs[i].due);
    latencies.all_ms.push_back(ms);
    latencies.lane_ms[static_cast<std::size_t>(jobs[i].lane)].push_back(ms);
    end = std::max(end, r.reported);
  }
  latencies.jobs_per_s = static_cast<double>(latencies.all_ms.size()) /
                         std::chrono::duration<double>(end - jobs.front().due).count();
  return latencies;
}


void StageSamples::add(const WireJob& job, const WireRecord& r) {
  lag_ms.push_back(to_ms(r.call - job.due));
  latency_ms.push_back(to_ms(r.reported - job.due));
  handle_us.push_back(to_us(r.returned - r.call));
  if (!r.has_accepted || !r.has_sample) return;
  const Clock::time_point end = engine_end(r);
  admit_us.push_back(to_us(r.accepted - r.call));
  queue_ms.push_back(to_ms(r.first_sample - r.accepted));
  run_ms.push_back(to_ms(end - r.first_sample));
  finish_us.push_back(to_us(r.reported - end));
}

double StageSamples::sum_ratio() const {
  const double latency = median(latency_ms);
  if (latency <= 0.0) return 0.0;
  const double sum = median(lag_ms) + median(admit_us) / 1e3 +
                     median(queue_ms) + median(run_ms) + median(finish_us) / 1e3;
  return sum / latency;
}

void finish_traced(WireClient& client, std::optional<serve::Priority> staged_lane,
                   LayerInputs& in, Outcome& out) {
  in.stats = client.finish();
  reconcile(in.stats, out, "traced serving pass");
  tally_wire(client, out);
  for (std::size_t i = 0; i < client.records().size(); ++i) {
    if (!staged_lane || client.jobs()[i].lane == *staged_lane) {
      in.stages.add(client.jobs()[i], client.records()[i]);
    }
  }
  trace_wire_jobs(client, *in.trace, in.engine, &in.report_bytes);
  in.event_bytes = client.event_bytes();
  in.served_jobs = static_cast<double>(client.records().size());

  add_layer_metrics(in, out);
  const double ratio = in.stages.sum_ratio();
  if (std::abs(ratio - 1.0) > kStageSumTolerance) {
    out.wrong("stage medians sum to " + std::to_string(ratio) +
              " of the latency median");
  }
}

}  // namespace perfbench
