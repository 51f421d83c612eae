// perfbench — the repository benchmark's load generator.
//
//   perfbench --workload race|preempt --seed N --seconds S --trace 0|1
//             [--trace-path FILE] [--source ID]
//
// Prints a labels line (build, ISA, host calibration), a detail line, then
// as its last line one JSON object {"correct","attempted","failed",
// "metrics"}: the end-to-end metrics untraced, the per-layer metrics traced
// (whose spans go to --trace-path).
#include <cstdlib>
#include <exception>
#include <iostream>

#include "bench.hpp"

namespace {

void usage() {
  std::cerr << "usage: perfbench --workload race|preempt --seed N "
               "--seconds S --trace 0|1 [--trace-path FILE] [--source ID]\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--trace-path") {
      options.trace_path = value;
    } else if (key == "--source") {
      options.source = value;
    } else {
      usage();
      return 2;
    }
  }
  if (argc % 2 == 0 || options.seconds <= 0.0 ||
      (options.workload != "race" && options.workload != "preempt") ||
      (options.trace && options.trace_path.empty())) {
    usage();
    return 2;
  }

  try {
    const std::vector<double> stolen = warm_host(2.0);
    const cspls::util::Json host = labels(options, stolen);
    Outcome out = options.workload == "race" ? run_race(options, host)
                                      : run_preempt(options, host);
    if (options.trace) {
      out.add("bench.failed_ratio",
              out.attempted == 0 ? 0.0
                                 : static_cast<double>(out.failed) /
                                       static_cast<double>(out.attempted),
              "ratio");
    }

    cspls::util::Json labels_line = cspls::util::Json::object();
    labels_line.set("labels", host);
    std::cout << labels_line.dump(0) << '\n';
    cspls::util::Json errors = cspls::util::Json::array();
    for (const std::string& e : out.errors) errors.push_back(e);
    out.detail.set("errors", std::move(errors));
    cspls::util::Json detail_line = cspls::util::Json::object();
    detail_line.set("detail", std::move(out.detail));
    std::cout << detail_line.dump(0) << '\n';

    cspls::util::Json metrics = cspls::util::Json::object();
    for (const Metric& m : out.metrics) {
      cspls::util::Json entry = cspls::util::Json::object();
      entry.set("value", m.value).set("unit", m.unit);
      metrics.set(m.name, std::move(entry));
    }
    cspls::util::Json result = cspls::util::Json::object();
    result.set("correct", out.correct)
        .set("attempted", out.attempted)
        .set("failed", out.failed)
        .set("metrics", std::move(metrics));
    std::cout << result.dump(0) << std::endl;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << '\n';
    return 1;
  }
  return 0;
}
