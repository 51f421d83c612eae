#include "parallel/walker_pool.hpp"

#include <atomic>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "parallel/job_execution.hpp"

namespace cspls::parallel {

std::uint64_t MultiWalkReport::total_iterations() const noexcept {
  std::uint64_t total = 0;
  for (const auto& w : walkers) total += w.result.stats.iterations;
  return total;
}

void validate_options(const WalkerPoolOptions& options) {
  if (options.num_walkers == 0) {
    throw std::invalid_argument(
        "WalkerPoolOptions: num_walkers must be at least 1");
  }
  const CommunicationPolicy& comm = options.communication;
  if (comm.mode == CommMode::kAsync && !comm.exchanging()) {
    throw std::invalid_argument(
        "WalkerPoolOptions: communication.mode = async requires an "
        "exchanging strategy (async gossip over Exchange::kNone would "
        "silently never adopt)");
  }
  if (!comm.exchanging()) return;  // knobs are ignored without an exchange
  if (comm.period == 0) {
    throw std::invalid_argument(
        "WalkerPoolOptions: communication.period must be non-zero with an "
        "exchanging strategy (period 0 would silently never publish)");
  }
  if (!(comm.adopt_probability >= 0.0 && comm.adopt_probability <= 1.0)) {
    throw std::invalid_argument(
        "WalkerPoolOptions: communication.adopt_probability must be in "
        "[0, 1]");
  }
  if (comm.neighborhood == Neighborhood::kIsolated) {
    throw std::invalid_argument(
        "WalkerPoolOptions: an isolated neighborhood cannot exchange; pick "
        "a connected neighborhood or Exchange::kNone");
  }
  if (comm.exchange == Exchange::kDecayElite && comm.decay == 0) {
    throw std::invalid_argument(
        "WalkerPoolOptions: communication.decay must be >= 1 for the "
        "decay-elite strategy (0 never forgets, which is plain elite)");
  }
  if (comm.exchange == Exchange::kElite && comm.decay != 0) {
    throw std::invalid_argument(
        "WalkerPoolOptions: communication.decay is meaningless for the "
        "elite strategy (it never forgets); use Exchange::kDecayElite");
  }
}

void validate_configurations(const csp::Problem& prototype,
                             const WalkerPoolOptions& options) {
  const std::size_t n = prototype.num_variables();
  const auto require = [&](std::span<const int> values,
                           const std::string& what) {
    if (values.size() != n) {
      throw std::invalid_argument(
          "WalkerPoolOptions: " + what + " has " +
          std::to_string(values.size()) + " values but \"" +
          prototype.name() + "\" has " + std::to_string(n) + " variables");
    }
    if (!csp::is_permutation_of(values, prototype.values())) {
      throw std::invalid_argument("WalkerPoolOptions: " + what +
                                  " is not a permutation of \"" +
                                  prototype.name() + "\"'s value set");
    }
  };
  if (options.warm_start.has_value()) require(*options.warm_start, "warm_start");
  if (!options.resume.has_value()) return;
  const PoolCheckpoint& resume = *options.resume;
  if (resume.walkers.size() != options.num_walkers) {
    throw std::invalid_argument(
        "WalkerPoolOptions: resume checkpoint has " +
        std::to_string(resume.walkers.size()) + " walkers but the pool has " +
        std::to_string(options.num_walkers));
  }
  for (std::size_t i = 0; i < resume.walkers.size(); ++i) {
    const PoolCheckpoint::WalkerEntry& entry = resume.walkers[i];
    const std::string walker = "resume walker " + std::to_string(i);
    if (entry.stage == PoolCheckpoint::WalkerStage::kRunning) {
      require(entry.checkpoint.values, walker + " configuration");
      require(entry.checkpoint.best, walker + " best configuration");
    } else if (entry.stage == PoolCheckpoint::WalkerStage::kDone &&
               !entry.result.solution.empty()) {
      require(entry.result.solution, walker + " solution");
    }
  }
  for (std::size_t i = 0; i < resume.elite.size(); ++i) {
    if (resume.elite[i].has_entry) {
      require(resume.elite[i].values, "resume elite slot " + std::to_string(i));
    }
  }
}

MultiWalkReport WalkerPool::run(const csp::Problem& prototype) const {
  return run(prototype, core::StopToken{});
}

MultiWalkReport WalkerPool::run(const csp::Problem& prototype,
                                const core::StopToken& external) const {
  detail::JobExecution job(prototype, options_, external);

  // Threads only when the pool would use more than one (preferred_threads
  // is 1 for the ordered modes and for a collapsed threaded pool).
  const std::size_t num_threads = job.preferred_threads();
  if (num_threads <= 1) {
    job.run_walkers_one_by_one();
  } else {
    // Wave execution: an atomic ticket dispenser hands walker ids to a
    // bounded pool of OS threads.
    const std::size_t k = job.num_walkers();
    std::atomic<std::size_t> next{0};
    std::vector<std::jthread> pool;
    pool.reserve(num_threads);
    for (std::size_t t = 0; t < num_threads; ++t) {
      pool.emplace_back([&] {
        for (;;) {
          const std::size_t id = next.fetch_add(1, std::memory_order_relaxed);
          if (id >= k) return;
          job.run_walker(id);
        }
      });
    }
    pool.clear();  // join
  }

  return job.finalize();
}

}  // namespace cspls::parallel
