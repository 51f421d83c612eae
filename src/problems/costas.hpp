// The Costas Array Problem (CAP) — the paper's headline benchmark.
//
// A Costas array of order n is an n×n permutation matrix whose n(n-1)/2
// inter-mark vectors are pairwise distinct.  In the permutation view
// (variables V[0..n-1], a permutation of 1..n), that means: for every row
// d = 1..n-1 of the difference triangle, the values V[i+d] - V[i] are all
// different.  Cost model (as in the original library / the Diaz-Richoux-
// Codognet CAP study): per-row occurrence tables of the differences; cost =
// total surplus occurrences, zero exactly on Costas arrays.  A swap touches
// the O(n) pairs involving the two positions, so cost_if_swap is O(n).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "csp/problem.hpp"

namespace cspls::problems {

class Costas final : public csp::PermutationProblem {
 public:
  /// Order n (n >= 2).  Costas arrays exist for every n <= 31; the paper's
  /// experiments run n = 18..22.
  explicit Costas(std::size_t n);
  Costas(const Costas& other);
  Costas& operator=(const Costas&) = delete;

  [[nodiscard]] const std::string& name() const noexcept override;
  [[nodiscard]] std::string instance_description() const override;
  [[nodiscard]] std::unique_ptr<csp::Problem> clone() const override;

  [[nodiscard]] csp::Cost full_cost() const override;
  [[nodiscard]] csp::Cost cost_on_variable(std::size_t i) const override;
  [[nodiscard]] csp::Cost cost_if_swap(std::size_t i,
                                       std::size_t j) const override;
  void cost_on_all_variables(std::span<csp::Cost> out) const override;
  std::uint64_t best_swap_for(std::size_t x, util::Xoshiro256& rng,
                              std::size_t& best_j, csp::Cost& best_cost,
                              std::size_t& ties) const override;
  [[nodiscard]] bool verify(std::span<const int> values) const override;
  [[nodiscard]] csp::TuningHints tuning() const noexcept override;

  [[nodiscard]] std::size_t order() const noexcept { return n_; }

 protected:
  csp::Cost on_rebind() override;
  csp::Cost did_swap(std::size_t i, std::size_t j) override;

 private:
  /// occ slot for difference `diff` in triangle row `d` (1-based row).
  [[nodiscard]] std::size_t slot(std::size_t d, int diff) const noexcept {
    return (d - 1) * stride_ + static_cast<std::size_t>(diff + static_cast<int>(n_));
  }

  /// Apply +1/-1 to the occurrence of pair (a, a+d) computed on the current
  /// values, returning the surplus-cost change.
  csp::Cost bump(std::size_t a, std::size_t d, int step,
                 const int* probe_values) const;

  /// Visit all pair starts (a, d) such that the pair {a, a+d} involves
  /// position i or position j (deduplicated); calls f(a, d).
  template <typename F>
  void for_affected_pairs(std::size_t i, std::size_t j, F&& f) const;

  /// Data-parallel candidate scan (taken when util::simd::runtime_enabled());
  /// bit-identical costs and RNG draws to the scalar loop in best_swap_for.
  std::uint64_t best_swap_for_simd(std::size_t x, util::Xoshiro256& rng,
                                   std::size_t& best_j, csp::Cost& best_cost,
                                   std::size_t& ties) const;

  /// Value-independent slot tables, built once per order and shared
  /// read-only by every instance of that order and all their clones.
  struct Tables;
  static std::shared_ptr<const Tables> tables_for(std::size_t n);

  /// Layout of scratch_: pstride_ Cost lanes, then scratch_int32s() 32-bit
  /// slots.  carve_scratch points the arrays below into it.
  [[nodiscard]] std::size_t scratch_int32s() const noexcept;
  [[nodiscard]] std::size_t scratch_bytes() const noexcept;
  void carve_scratch() noexcept;

  std::size_t n_;
  std::size_t stride_;
  /// Lane-padded row stride for the SIMD tables (multiple of i32x8 lanes).
  std::size_t pstride_;
  std::string name_ = "costas";
  std::shared_ptr<const Tables> tables_;
  /// best_swap_for acceleration tables (views into *tables_):
  /// for the pair {p, q}, slot = rowoff_[p*n+q] + sign_[p*n+q] * (V[q]-V[p])
  /// — the (d-1)*stride + n row offset with the diff's orientation folded
  /// into a sign, so the candidate loop computes slots branch-free.
  const std::uint32_t* rowoff_ = nullptr;
  const std::int8_t* sign_ = nullptr;
  /// SIMD mirrors of the tables above, lane-padded (stride pstride_) with
  /// the sign replaced by a negate mask (0 / -1): slot = ro + ((diff^m)-m),
  /// multiply-free and one vector op per eight pairs.  Padding lanes hold
  /// zeros; their computed slots are stored to scratch but never consumed.
  const std::int32_t* rowoff_pad_ = nullptr;
  const std::int32_t* sgmask_ = nullptr;
  /// Every mutable array below lives in this one allocation, which a clone
  /// copies wholesale.
  std::unique_ptr<std::byte[]> scratch_;
  /// Occurrence tables (occ_size_ slots), written by probe/rollback in
  /// cost_if_swap.
  int* occ_ = nullptr;
  std::size_t occ_size_ = 0;
  /// Per-call scratch (alloc-free steady state): cached slots of the pairs
  /// through the selected variable, and the probe undo lists.
  std::uint32_t* xrem_slots_ = nullptr;
  std::uint32_t* undo_rem_ = nullptr;
  std::uint32_t* undo_add_ = nullptr;
  /// SIMD-path scratch, all lane-padded: padded copy of values(), the three
  /// per-candidate slot arrays, the per-variable surplus accumulator and the
  /// candidate cost vector consumed by SwapScan::feed_lanes.
  std::int32_t* vals_pad_ = nullptr;
  std::int32_t* xslot_ = nullptr;
  std::int32_t* srj_ = nullptr;
  std::int32_t* sax_ = nullptr;
  std::int32_t* saj_ = nullptr;
  std::int32_t* acc32_ = nullptr;
  csp::Cost* cand_ = nullptr;
};

}  // namespace cspls::problems
