// Magic square demo with live search narration.
//
// Solves an n x n magic square and uses the engine's observer hook to show
// the cost trajectory while the search runs — a compact illustration of how
// Adaptive Search behaves on a plateau-heavy landscape (fast descent, long
// plateau phases punctuated by partial resets), finishing with the board.
#include <cstdio>

#include "core/adaptive_search.hpp"
#include "problems/magic_square.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace cspls;

  util::ArgParser args("magic_square_demo",
                       "Watch Adaptive Search build a magic square");
  args.add_int("side", 12, "board side n (values 1..n^2)");
  args.add_uint64("seed", 7, "random seed");
  args.add_int("trace-every", 2000, "observer period in iterations");
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 2;

  const auto side = static_cast<std::size_t>(args.get_int("side"));
  problems::MagicSquare problem(side);
  std::printf("%s — magic constant M = %lld\n",
              problem.instance_description().c_str(),
              static_cast<long long>(problem.magic_constant()));

  auto params = core::Params::from_hints(problem.tuning(),
                                         problem.num_variables());
  params.max_restarts = 100;
  const core::AdaptiveSearch engine(params);
  std::printf("engine: %s\n\n", engine.params().describe().c_str());

  core::Hooks hooks;
  hooks.observer_period =
      static_cast<std::uint64_t>(args.get_int("trace-every"));
  csp::Cost best_seen = csp::kInfiniteCost;
  hooks.observer = [&](std::uint64_t iter, csp::Cost cost,
                       std::span<const int>) {
    if (cost < best_seen) best_seen = cost;
    std::printf("  iter %8llu   cost %6lld   best %6lld\n",
                static_cast<unsigned long long>(iter),
                static_cast<long long>(cost),
                static_cast<long long>(best_seen));
  };

  util::Xoshiro256 rng(args.get_uint64("seed"));
  const core::Result result = engine.solve(problem, rng, {}, hooks);

  std::printf("\n%s after %llu iterations (%llu resets, %llu restarts, "
              "%.3fs)\n\n",
              result.solved ? "SOLVED" : "best effort",
              static_cast<unsigned long long>(result.stats.iterations),
              static_cast<unsigned long long>(result.stats.resets),
              static_cast<unsigned long long>(result.stats.restarts),
              result.stats.seconds);
  std::printf("%s", problem.board_to_string().c_str());
  if (result.solved) {
    std::printf("\nverified: %s\n",
                problem.verify(result.solution) ? "yes" : "NO (bug!)");
  }
  return result.solved ? 0 : 1;
}
