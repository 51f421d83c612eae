// Real-hardware multi-walk: the methodological anchor of the simulation.
//
// The figure harnesses extrapolate to 256 cores through order statistics;
// this binary runs the *actual* threaded racing engine on this machine
// and compares the measured mean time-to-solution against the same order-
// statistics prediction E[T(k)] at the core counts this host actually has.
// If the prediction is honest, the two must agree at k <= hardware threads
// (beyond that, oversubscription flattens wall-clock gains while total work
// keeps shrinking).  The agreement is checked, not assumed: each k <=
// hardware threads gets a verdict against kAgreementTolerance, and the
// binary exits 1 when any of them fails.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <thread>

#include "common.hpp"
#include "parallel/walker_pool.hpp"
#include "util/csv.hpp"

int main(int argc, char** argv) {
  using namespace cspls;
  const auto options = bench::parse_harness_options(
      argc, argv, "bench_real_multiwalk",
      "Real threaded multi-walk vs order-statistics prediction", 80);
  if (!options) return 0;

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  bench::print_preamble(
      "Real multi-walk — measured vs predicted (this host)",
      "Hardware threads available: " + std::to_string(hw));

  const auto spec = bench::spec_for("costas", false);
  const auto prototype = spec.instantiate();

  // Prediction from the sequential law.
  const auto law =
      bench::measure_walk_law(spec, options->samples, options->seed);
  sim::PlatformModel host;
  host.name = "this-host";
  host.cores_per_node = hw;
  host.max_cores = 64;
  host.core_speed = 1.0;

  const std::vector<std::size_t> ks{1, 2, 4, 8};
  const auto curve =
      sim::compute_speedup_curve(law.seconds, host, ks, spec.label());

  // Measurement: repeat the race, take the mean time-to-solution — the
  // sample estimate of the E[T(k)] the prediction states.
  constexpr int kRepetitions = 15;
  // Largest accepted |measured mean - predicted E[T]| / predicted E[T].
  // Fixed before measuring: for a heavy-tailed (near-exponential) T the
  // standard error of a 15-race mean is about E[T] / sqrt(15) = 0.26 E[T],
  // so 0.5 is roughly two standard errors.
  constexpr double kAgreementTolerance = 0.5;
  util::Table table({"walkers", "measured mean T (s)", "measured speedup",
                     "predicted E[T] (s)", "predicted speedup", "rel. error",
                     "solved", "verdict"});
  std::vector<std::vector<std::string>> csv_rows;
  double t1 = 0.0;
  std::vector<std::size_t> disagreeing;
  for (const std::size_t k : ks) {
    std::vector<double> times;
    int solved = 0;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      parallel::WalkerPoolOptions pool;
      pool.num_walkers = k;
      pool.master_seed = options->seed + static_cast<std::uint64_t>(rep) * 1000;
      pool.scheduling = parallel::Scheduling::kThreads;
      pool.termination = parallel::Termination::kFirstFinisher;
      const auto report = parallel::WalkerPool(pool).run(*prototype);
      if (report.solved) {
        ++solved;
        times.push_back(report.time_to_solution_seconds);
      }
    }
    const double mean =
        times.empty() ? 0.0
                      : std::accumulate(times.begin(), times.end(), 0.0) /
                            static_cast<double>(times.size());
    if (k == 1) t1 = mean;
    const double measured_speedup = mean > 0.0 ? t1 / mean : 0.0;
    const double predicted = curve.at(k).expected_seconds;
    const double rel_error =
        predicted > 0.0 ? std::abs(mean - predicted) / predicted : INFINITY;
    // Every race must solve: a mean over the solved subset alone is not an
    // estimate of E[T].
    std::string verdict = "not checked (k > hardware threads)";
    if (k <= hw) {
      const bool agrees =
          solved == kRepetitions && rel_error <= kAgreementTolerance;
      verdict = agrees ? "agrees" : "DISAGREES";
      if (!agrees) disagreeing.push_back(k);
    }
    table.add_row({std::to_string(k), util::Table::sig(mean, 3),
                   util::Table::num(measured_speedup, 2),
                   util::Table::sig(predicted, 3),
                   util::Table::num(curve.at(k).speedup, 2),
                   util::Table::num(rel_error, 2),
                   std::to_string(solved) + "/" +
                       std::to_string(kRepetitions),
                   verdict});
    csv_rows.push_back({std::to_string(k), util::Table::sig(mean, 5),
                        util::Table::num(measured_speedup, 3),
                        util::Table::sig(predicted, 5),
                        util::Table::num(curve.at(k).speedup, 3),
                        util::Table::num(rel_error, 3), verdict});
  }

  std::printf("%s\n",
              table.render(spec.label() + ", " + std::to_string(kRepetitions) +
                           " races per point")
                  .c_str());
  if (disagreeing.empty()) {
    std::printf(
        "Agreement holds: measured mean T within %.0f%% of predicted E[T]\n"
        "for every k <= %u (hardware threads).\n",
        kAgreementTolerance * 100.0, hw);
  } else {
    std::printf("Agreement FAILS (tolerance %.0f%%) for k =",
                kAgreementTolerance * 100.0);
    for (const std::size_t k : disagreeing) std::printf(" %zu", k);
    std::printf(" of the k <= %u (hardware threads) checked.\n", hw);
  }
  std::printf(
      "Beyond the hardware threads, walkers time-share cores: wall-clock\n"
      "flattens even though the winning walk keeps getting shorter — the\n"
      "simulator's per-core model is the right extrapolation for real\n"
      "clusters, not oversubscription.\n");

  util::CsvWriter csv(options->csv_prefix + "measured.csv");
  csv.write_all({"walkers", "measured_mean_s", "measured_speedup",
                 "predicted_mean_s", "predicted_speedup", "relative_error",
                 "verdict"},
                csv_rows);
  std::printf("\nCSV written to %s\n", csv.path().c_str());
  return disagreeing.empty() ? 0 : 1;
}
