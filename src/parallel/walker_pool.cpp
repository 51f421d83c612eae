#include "parallel/walker_pool.hpp"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <list>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "parallel/job_execution.hpp"

namespace cspls::parallel {

namespace {

/// Process-wide team of parked helper threads on which threaded runs
/// execute their walker loops, so a run wakes threads instead of creating
/// them.  A helper is started only when a run asks for more helpers than
/// are idle.  After its share of a run it parks for the next one, unless
/// keep_idle_ others are parked already: it then exits, and the caller of
/// the run it served joins it before that run returns.  So the team never
/// holds more than keep_idle_ (the hardware thread count) idle threads.
class HelperTeam {
 public:
  /// Built by the first threaded run and never destroyed: a static
  /// destructor could run while another thread is still inside run() at
  /// exit, and parked helpers end with the process.
  static HelperTeam& instance() {
    static HelperTeam& team = *new HelperTeam;
    return team;
  }

  HelperTeam(const HelperTeam&) = delete;
  HelperTeam& operator=(const HelperTeam&) = delete;

  /// Run `task` on `copies` helpers at once; returns when every copy has
  /// returned, rethrowing the first exception a copy threw.  The calling
  /// thread only waits.  When a helper cannot be started, the copies
  /// already placed carry the run (the task is a ticket loop, so fewer
  /// copies still run every walker); with none placed, the error
  /// propagates.
  void run(std::size_t copies, const std::function<void()>& task) {
    Batch batch;
    batch.task = &task;
    batch.retired.reserve(copies);  // so an exiting helper cannot throw
    std::size_t queued = 0;
    std::unique_lock<std::mutex> lock(m_);
    for (; batch.pending < copies; ++batch.pending) {
      try {
        if (idle_ > queue_.size()) {
          queue_.push_back(&batch);
          ++queued;
        } else {
          start_helper(&batch);
        }
      } catch (...) {
        if (batch.pending == 0) throw;
        break;
      }
    }
    lock.unlock();
    for (std::size_t i = 0; i < queued; ++i) work_.notify_one();
    lock.lock();
    batch.done.wait(lock, [&] { return batch.pending == 0; });
    lock.unlock();
    for (std::thread& helper : batch.retired) helper.join();
    if (batch.error) std::rethrow_exception(batch.error);
  }

 private:
  /// One run's share of the team.
  struct Batch {
    const std::function<void()>* task = nullptr;
    std::size_t pending = 0;  ///< copies placed and not yet returned
    std::condition_variable done;
    std::vector<std::thread> retired;  ///< helpers that exited after it
    std::exception_ptr error;          ///< first exception a copy threw
  };
  using Helpers = std::list<std::thread>;

  HelperTeam() = default;

  /// With m_ held: start a helper whose first share is `batch`.  The node
  /// is built off-list, so a failed start leaves helpers_ untouched.
  void start_helper(Batch* batch) {
    Helpers node(1);
    const Helpers::iterator self = node.begin();
    *self = std::thread([this, self, batch] { serve(self, batch); });
    helpers_.splice(helpers_.end(), node);
  }

  /// Helper body: run the share in hand, then exit or park for the next.
  void serve(Helpers::iterator self, Batch* batch) {
    for (;;) {
      std::exception_ptr error;
      try {
        (*batch->task)();
      } catch (...) {
        error = std::current_exception();
      }
      std::unique_lock<std::mutex> lock(m_);
      if (error && !batch->error) batch->error = error;
      const bool exits = queue_.empty() && idle_ >= keep_idle_;
      if (exits) {
        batch->retired.push_back(std::move(*self));
        helpers_.erase(self);
      }
      // Notified under m_: the caller cannot see pending reach 0 and
      // leave run() (ending `batch`) before this helper lets go of m_.
      if (--batch->pending == 0) batch->done.notify_one();
      if (exits) return;
      ++idle_;
      work_.wait(lock, [&] { return !queue_.empty(); });
      --idle_;
      batch = queue_.front();
      queue_.pop_front();
    }
  }

  std::mutex m_;
  std::condition_variable work_;  ///< queued copies, for parked helpers
  std::deque<Batch*> queue_;      ///< one entry per copy awaiting a helper
  /// Parked helpers; queue_.size() of them are spoken for by queued copies.
  std::size_t idle_ = 0;
  const std::size_t keep_idle_ = std::thread::hardware_concurrency() == 0
                                     ? 2
                                     : std::thread::hardware_concurrency();
  Helpers helpers_;  ///< every live helper
};

}  // namespace

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
    // Wave execution: an atomic ticket dispenser hands walker ids to
    // num_threads helpers of the parked team.
    const std::size_t k = job.num_walkers();
    std::atomic<std::size_t> next{0};
    HelperTeam::instance().run(num_threads, [&] {
      for (;;) {
        const std::size_t id = next.fetch_add(1, std::memory_order_relaxed);
        if (id >= k) return;
        job.run_walker(id);
      }
    });
  }

  return job.finalize();
}

}  // namespace cspls::parallel
