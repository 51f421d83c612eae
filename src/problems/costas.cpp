#include "problems/costas.hpp"

#include <array>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "util/simd.hpp"

namespace cspls::problems {

using csp::Cost;
namespace simd = util::simd;

namespace {
std::vector<int> canonical_values(std::size_t n) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), 1);
  return v;
}
}  // namespace

struct Costas::Tables {
  std::vector<std::uint32_t> rowoff;
  std::vector<std::int8_t> sign;
  std::vector<std::int32_t> rowoff_pad;
  std::vector<std::int32_t> sgmask;
};

std::shared_ptr<const Costas::Tables> Costas::tables_for(std::size_t n) {
  const std::size_t stride = 2 * n + 1;
  const std::size_t pstride = simd::padded_size(n, simd::i32x8::kLanes);
  const auto build = [&] {
    auto tables = std::make_shared<Tables>();
    tables->rowoff.assign(n * n, 0);
    tables->sign.assign(n * n, 0);
    tables->rowoff_pad.assign(n * pstride, 0);
    tables->sgmask.assign(n * pstride, 0);
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = 0; q < n; ++q) {
        if (p == q) continue;
        const std::size_t d = p > q ? p - q : q - p;
        tables->rowoff[p * n + q] =
            static_cast<std::uint32_t>((d - 1) * stride + n);
        tables->sign[p * n + q] = q > p ? 1 : -1;
        tables->rowoff_pad[p * pstride + q] =
            static_cast<std::int32_t>((d - 1) * stride + n);
        tables->sgmask[p * pstride + q] = q > p ? 0 : -1;
      }
    }
    return std::shared_ptr<const Tables>(std::move(tables));
  };
  // Orders up to kCachedOrders keep their tables for the process lifetime
  // (a few tens of kB in all); larger ones are built per instance and
  // shared only with its clones.
  constexpr std::size_t kCachedOrders = 64;
  if (n > kCachedOrders) return build();
  static std::mutex m;
  static std::array<std::shared_ptr<const Tables>, kCachedOrders + 1> cache;
  const std::lock_guard<std::mutex> lock(m);
  if (cache[n] == nullptr) cache[n] = build();
  return cache[n];
}

std::size_t Costas::scratch_int32s() const noexcept {
  return 6 * pstride_ + occ_size_ + 5 * n_;
}

std::size_t Costas::scratch_bytes() const noexcept {
  return pstride_ * sizeof(Cost) + scratch_int32s() * sizeof(std::int32_t);
}

void Costas::carve_scratch() noexcept {
  // Cost lanes first (8-byte aligned at the allocation's start), then the
  // lane-padded 32-bit arrays, then the rest.
  std::byte* p = scratch_.get();
  const auto take32 = [&p](std::size_t count) {
    auto* a = reinterpret_cast<std::int32_t*>(p);
    p += count * sizeof(std::int32_t);
    return a;
  };
  cand_ = reinterpret_cast<Cost*>(p);
  p += pstride_ * sizeof(Cost);
  vals_pad_ = take32(pstride_);
  xslot_ = take32(pstride_);
  srj_ = take32(pstride_);
  sax_ = take32(pstride_);
  saj_ = take32(pstride_);
  acc32_ = take32(pstride_);
  occ_ = take32(occ_size_);
  // Unsigned views of int32 storage (same-width signed/unsigned access).
  xrem_slots_ = reinterpret_cast<std::uint32_t*>(take32(n_));
  undo_rem_ = reinterpret_cast<std::uint32_t*>(take32(2 * n_));
  undo_add_ = reinterpret_cast<std::uint32_t*>(take32(2 * n_));
}

Costas::Costas(std::size_t n)
    : PermutationProblem(canonical_values(n)),
      n_(n),
      stride_(2 * n + 1),
      pstride_(simd::padded_size(n, simd::i32x8::kLanes)),
      // +8 scratch slots past the real difference triangle: the SIMD swap
      // scan parks the q == x / q == j lanes there to keep its bump/undo
      // loops branch-free (each dummy absorbs exactly one op per candidate
      // and is restored by the matching undo, so they stay at zero).
      occ_size_((n - 1) * (2 * n + 1) + 8) {
  if (n < 2) {
    throw std::invalid_argument("Costas: n must be >= 2");
  }
  tables_ = tables_for(n);
  rowoff_ = tables_->rowoff.data();
  sign_ = tables_->sign.data();
  rowoff_pad_ = tables_->rowoff_pad.data();
  sgmask_ = tables_->sgmask.data();
  scratch_ = std::make_unique_for_overwrite<std::byte[]>(scratch_bytes());
  carve_scratch();
  // Start every array's lifetime, zeroed.
  std::uninitialized_value_construct_n(cand_, pstride_);
  std::uninitialized_value_construct_n(vals_pad_, scratch_int32s());
}

Costas::Costas(const Costas& other)
    : PermutationProblem(other),
      n_(other.n_),
      stride_(other.stride_),
      pstride_(other.pstride_),
      name_(other.name_),
      tables_(other.tables_),
      rowoff_(other.rowoff_),
      sign_(other.sign_),
      rowoff_pad_(other.rowoff_pad_),
      sgmask_(other.sgmask_),
      occ_size_(other.occ_size_) {
  scratch_ = std::make_unique_for_overwrite<std::byte[]>(scratch_bytes());
  carve_scratch();
  std::uninitialized_copy_n(other.cand_, pstride_, cand_);
  std::uninitialized_copy_n(other.vals_pad_, scratch_int32s(), vals_pad_);
}

const std::string& Costas::name() const noexcept { return name_; }

std::string Costas::instance_description() const {
  std::ostringstream os;
  os << "costas n=" << n_;
  return os.str();
}

std::unique_ptr<csp::Problem> Costas::clone() const {
  return std::make_unique<Costas>(*this);
}

Cost Costas::on_rebind() {
  std::fill_n(occ_, occ_size_, 0);
  Cost cost = 0;
  for (std::size_t d = 1; d < n_; ++d) {
    for (std::size_t a = 0; a + d < n_; ++a) {
      const int diff = value(a + d) - value(a);
      if (occ_[slot(d, diff)]++ >= 1) ++cost;
    }
  }
  return cost;
}

Cost Costas::full_cost() const {
  std::vector<int> occ((n_ - 1) * stride_, 0);
  Cost cost = 0;
  for (std::size_t d = 1; d < n_; ++d) {
    for (std::size_t a = 0; a + d < n_; ++a) {
      const int diff = value(a + d) - value(a);
      if (occ[slot(d, diff)]++ >= 1) ++cost;
    }
  }
  return cost;
}

Cost Costas::cost_on_variable(std::size_t i) const {
  // Surplus occurrences of every difference produced by a pair through i.
  Cost err = 0;
  for (std::size_t q = 0; q < n_; ++q) {
    if (q == i) continue;
    const std::size_t a = std::min(i, q);
    const std::size_t d = (i > q) ? i - q : q - i;
    const int diff = value(a + d) - value(a);
    const int occ = occ_[slot(d, diff)];
    if (occ >= 2) err += occ - 1;
  }
  return err;
}

namespace {
/// Value at `pos` under an optional hypothetical exchange of positions i, j.
inline int view(std::span<const int> vals, std::size_t pos, bool swapped,
                std::size_t i, std::size_t j) noexcept {
  if (swapped) {
    if (pos == i) return vals[j];
    if (pos == j) return vals[i];
  }
  return vals[pos];
}
}  // namespace

Cost Costas::bump(std::size_t a, std::size_t d, int step,
                  const int* probe) const {
  // probe encodes (swapped?, i, j) packed by the callers below via the
  // three-int convention {swapped, i, j}; see for_affected_pairs call sites.
  const bool swapped = probe[0] != 0;
  const auto i = static_cast<std::size_t>(probe[1]);
  const auto j = static_cast<std::size_t>(probe[2]);
  const int diff = view(values(), a + d, swapped, i, j) -
                   view(values(), a, swapped, i, j);
  int& occ = occ_[slot(d, diff)];
  if (step > 0) {
    return occ++ >= 1 ? Cost{1} : Cost{0};
  }
  return --occ >= 1 ? Cost{-1} : Cost{0};
}

template <typename F>
void Costas::for_affected_pairs(std::size_t i, std::size_t j, F&& f) const {
  for (std::size_t q = 0; q < n_; ++q) {
    if (q == i) continue;
    f(std::min(i, q), (i > q) ? i - q : q - i);
  }
  for (std::size_t q = 0; q < n_; ++q) {
    if (q == j || q == i) continue;  // the {i, j} pair was already visited
    f(std::min(j, q), (j > q) ? j - q : q - j);
  }
}

Cost Costas::cost_if_swap(std::size_t i, std::size_t j) const {
  const int current[3] = {0, static_cast<int>(i), static_cast<int>(j)};
  const int exchanged[3] = {1, static_cast<int>(i), static_cast<int>(j)};
  Cost delta = 0;
  // Retract the differences of all affected pairs (current configuration)...
  for_affected_pairs(
      i, j, [&](std::size_t a, std::size_t d) { delta += bump(a, d, -1, current); });
  // ...assert them under the hypothetical exchange...
  for_affected_pairs(i, j, [&](std::size_t a, std::size_t d) {
    delta += bump(a, d, +1, exchanged);
  });
  const Cost result = total_cost() + delta;
  // ...and roll the probe back.
  for_affected_pairs(i, j, [&](std::size_t a, std::size_t d) {
    (void)bump(a, d, -1, exchanged);
  });
  for_affected_pairs(
      i, j, [&](std::size_t a, std::size_t d) { (void)bump(a, d, +1, current); });
  return result;
}

Cost Costas::did_swap(std::size_t i, std::size_t j) {
  // values() are post-swap; "swapped view" therefore reconstructs the
  // pre-swap configuration (exchange is involutive).
  const int pre_swap[3] = {1, static_cast<int>(i), static_cast<int>(j)};
  const int post_swap[3] = {0, static_cast<int>(i), static_cast<int>(j)};
  Cost delta = 0;
  for_affected_pairs(i, j, [&](std::size_t a, std::size_t d) {
    delta += bump(a, d, -1, pre_swap);
  });
  for_affected_pairs(i, j, [&](std::size_t a, std::size_t d) {
    delta += bump(a, d, +1, post_swap);
  });
  return total_cost() + delta;
}

void Costas::cost_on_all_variables(std::span<Cost> out) const {
  // One pass over the difference triangle instead of n scalar calls of O(n)
  // each: every pair's surplus is charged to both endpoints, which is
  // exactly the cost_on_variable projection summed per variable.
  const auto vals = values();
  if (!simd::runtime_enabled()) {
    std::fill(out.begin(), out.end(), Cost{0});
    for (std::size_t d = 1; d < n_; ++d) {
      const int* occ_row = occ_ + (d - 1) * stride_ +
                           static_cast<std::ptrdiff_t>(n_);
      for (std::size_t a = 0; a + d < n_; ++a) {
        const int c = occ_row[vals[a + d] - vals[a]];
        if (c >= 2) {
          const Cost s = c - 1;
          out[a] += s;
          out[a + d] += s;
        }
      }
    }
    return;
  }
  // SIMD triangle pass.  The per-row charge "out[a] += s, out[a+d] += s" is
  // two *contiguous* accumulations of the same surplus vector at offsets 0
  // and d, so apart from the occurrence gather the row is pure vector code.
  // The a+d block may overlap the a block when d < kLanes; the second
  // load/store pair sits after the first store, so the overlap is read back
  // correctly.  Accumulation runs in 32-bit (bounded by n² ≪ 2³¹) and is
  // widened into the Cost lanes once at the end.
  constexpr std::size_t kL = simd::i32x8::kLanes;
  const std::size_t n = n_;
  std::fill_n(acc32_, pstride_, 0);
  const auto one = simd::i32x8::broadcast(1);
  const auto two = simd::i32x8::broadcast(2);
  for (std::size_t d = 1; d < n; ++d) {
    const int* occ_row = occ_ + (d - 1) * stride_ +
                         static_cast<std::ptrdiff_t>(n);
    const std::size_t m = n - d;
    std::size_t a = 0;
    for (; a + kL <= m; a += kL) {
      const auto lo = simd::i32x8::load(vals.data() + a);
      const auto hi = simd::i32x8::load(vals.data() + a + d);
      const auto c = simd::i32x8::gather(occ_row, hi - lo);
      const auto s = (c - one) & simd::cmp_ge(c, two);
      (simd::i32x8::load(acc32_ + a) + s).store(acc32_ + a);
      (simd::i32x8::load(acc32_ + a + d) + s)
          .store(acc32_ + a + d);
    }
    for (; a < m; ++a) {
      const int c = occ_row[vals[a + d] - vals[a]];
      if (c >= 2) {
        acc32_[a] += c - 1;
        acc32_[a + d] += c - 1;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = acc32_[i];
}

std::uint64_t Costas::best_swap_for(std::size_t x, util::Xoshiro256& rng,
                                    std::size_t& best_j, Cost& best_cost,
                                    std::size_t& ties) const {
  // Probe-and-undo candidate deltas, one fused pass per candidate.  The cost
  // is a sum of per-slot surpluses g(c) = max(0, c - 1) whose marginals
  // telescope, so retracting the ~2n affected pairs and asserting their
  // hypothetical replacements directly on occ_ (recording the slots for the
  // undo) yields the exact cost_if_swap value with no virtual calls, no
  // rollback recomputation and — thanks to the sign-folded slot tables — no
  // branches in the inner loop.
  const std::size_t n = n_;
  const auto vals = values();
  const Cost total = total_cost();
  const int vx = vals[x];
  if (simd::runtime_enabled()) {
    return best_swap_for_simd(x, rng, best_j, best_cost, ties);
  }
  const std::uint32_t* ro_x = rowoff_ + x * n;
  const std::int8_t* sg_x = sign_ + x * n;

  // The retraction slots of x's pairs are candidate-independent: cache them.
  for (std::size_t q = 0; q < n; ++q) {
    if (q == x) continue;
    xrem_slots_[q] = static_cast<std::uint32_t>(
        static_cast<int>(ro_x[q]) + sg_x[q] * (vals[q] - vx));
  }

  int* const occ = occ_;
  std::uint32_t* const rem = undo_rem_;
  std::uint32_t* const add = undo_add_;
  csp::SwapScan scan(n);
  for (std::size_t j = 0; j < n; ++j) {
    if (j == x) continue;
    const int vj = vals[j];
    const std::uint32_t* ro_j = rowoff_ + j * n;
    const std::int8_t* sg_j = sign_ + j * n;
    std::size_t count = 0;
    Cost delta = 0;
    for (std::size_t q = 0; q < n; ++q) {
      if (q == x || q == j) continue;
      const int vq = vals[q];
      // Retract pair {x, q} (cached) and pair {j, q} (current values)...
      const std::uint32_t s_rx = xrem_slots_[q];
      delta -= (--occ[s_rx] >= 1);
      const std::uint32_t s_rj = static_cast<std::uint32_t>(
          static_cast<int>(ro_j[q]) + sg_j[q] * (vq - vj));
      delta -= (--occ[s_rj] >= 1);
      // ...and assert them under the exchange: x holds vj, j holds vx.
      const std::uint32_t s_ax = static_cast<std::uint32_t>(
          static_cast<int>(ro_x[q]) + sg_x[q] * (vq - vj));
      delta += (occ[s_ax]++ >= 1);
      const std::uint32_t s_aj = static_cast<std::uint32_t>(
          static_cast<int>(ro_j[q]) + sg_j[q] * (vq - vx));
      delta += (occ[s_aj]++ >= 1);
      rem[count] = s_rx;
      add[count] = s_ax;
      rem[count + 1] = s_rj;
      add[count + 1] = s_aj;
      count += 2;
    }
    // The {x, j} pair itself: retract once, assert its exchanged diff.
    const std::uint32_t s_rxj = xrem_slots_[j];
    delta -= (--occ[s_rxj] >= 1);
    const std::uint32_t s_axj = static_cast<std::uint32_t>(
        static_cast<int>(ro_x[j]) + sg_x[j] * (vx - vj));
    delta += (occ[s_axj]++ >= 1);
    rem[count] = s_rxj;
    add[count] = s_axj;
    ++count;
    scan.consider(j, total + delta, rng);
    for (std::size_t k = 0; k < count; ++k) {
      ++occ[rem[k]];
      --occ[add[k]];
    }
  }
  best_j = scan.best_j;
  best_cost = scan.best_cost;
  ties = scan.ties;
  return n - 1;
}

std::uint64_t Costas::best_swap_for_simd(std::size_t x, util::Xoshiro256& rng,
                                         std::size_t& best_j, Cost& best_cost,
                                         std::size_t& ties) const {
  // Data-parallel variant of the probe-and-undo scan above.  Because the
  // per-slot surplus marginals telescope (Σ marginals = Σ_slots g(final) −
  // g(initial), independent of op order), two restructurings preserve every
  // candidate cost bit-for-bit:
  //   1. the retraction of x's pairs — common to every candidate — is folded
  //      out of the j loop and applied ONCE up front (delta0), cutting the
  //      serial occurrence-bump work per candidate from 4 ops/pair to 3;
  //   2. slot addresses are batched eight pairs at a time on the lane-padded
  //      mask tables (slot = ro + ((diff^m)−m), no multiply), then consumed
  //      by the (inherently serial, scatter-carried) bump loop.
  // Candidate costs land in cand_ and the reservoir runs through
  // SwapScan::feed_lanes, which replays the historical RNG draws exactly.
  constexpr std::size_t kL = simd::i32x8::kLanes;
  const std::size_t n = n_;
  const std::size_t pn = pstride_;
  const auto vals = values();
  const Cost total = total_cost();
  const int vx = vals[x];
  std::copy(vals.begin(), vals.end(), vals_pad_);
  const std::int32_t* ro_x = rowoff_pad_ + x * pn;
  const std::int32_t* mk_x = sgmask_ + x * pn;
  const auto vxb = simd::i32x8::broadcast(vx);
  for (std::size_t q = 0; q < pn; q += kL) {
    const auto d = simd::i32x8::load(vals_pad_ + q) - vxb;
    const auto m = simd::i32x8::load(mk_x + q);
    const auto s = simd::i32x8::load(ro_x + q) + ((d ^ m) - m);
    s.store(xslot_ + q);
  }
  int* const occ = occ_;
  // Dummy scratch slots past the triangle (see the constructor): parking the
  // q == x / q == j lanes there makes every serial bump/undo loop below
  // branch-free.  A dummy sees exactly one op per pass, so its count moves
  // 0 → ±1 (contributing nothing to delta: −1 >= 1 and 0 >= 1 are both
  // false) and the inverse op restores it to zero.
  const auto D = static_cast<std::int32_t>((n - 1) * stride_);
  Cost delta0 = 0;
  xslot_[x] = D;
  for (std::size_t q = 0; q < n; ++q) {
    delta0 -= (--occ[xslot_[q]] >= 1);
  }
  const Cost base = total + delta0;
  for (std::size_t j = 0; j < n; ++j) {
    if (j == x) {
      cand_[j] = csp::kInfiniteCost;
      continue;
    }
    const int vj = vals[j];
    const std::int32_t* ro_j = rowoff_pad_ + j * pn;
    const std::int32_t* mk_j = sgmask_ + j * pn;
    const auto vjb = simd::i32x8::broadcast(vj);
    for (std::size_t q = 0; q < pn; q += kL) {
      const auto v = simd::i32x8::load(vals_pad_ + q);
      const auto mj = simd::i32x8::load(mk_j + q);
      const auto roj = simd::i32x8::load(ro_j + q);
      const auto mx = simd::i32x8::load(mk_x + q);
      const auto rox = simd::i32x8::load(ro_x + q);
      const auto dj = v - vjb;  // retractions of j's pairs + x's asserts
      (roj + ((dj ^ mj) - mj)).store(srj_ + q);
      (rox + ((dj ^ mx) - mx)).store(sax_ + q);
      const auto dx = v - vxb;  // j's asserts (j holds vx after exchange)
      (roj + ((dx ^ mj) - mj)).store(saj_ + q);
    }
    srj_[x] = D + 1;
    sax_[x] = D + 2;
    saj_[x] = D + 3;
    srj_[j] = D + 4;
    sax_[j] = D + 5;
    saj_[j] = D + 6;
    Cost delta = 0;
    for (std::size_t q = 0; q < n; ++q) {
      delta -= (--occ[srj_[q]] >= 1);
      delta += (occ[sax_[q]]++ >= 1);
      delta += (occ[saj_[q]]++ >= 1);
    }
    // The {x, j} pair: retracted in the delta0 fold, asserted here.
    const std::int32_t s_axj =
        ro_x[j] + (((vx - vj) ^ mk_x[j]) - mk_x[j]);
    delta += (occ[s_axj]++ >= 1);
    cand_[j] = base + delta;
    for (std::size_t q = 0; q < n; ++q) {
      ++occ[srj_[q]];
      --occ[sax_[q]];
      --occ[saj_[q]];
    }
    --occ[s_axj];
  }
  for (std::size_t q = 0; q < n; ++q) {
    ++occ[xslot_[q]];
  }
  csp::SwapScan scan(n);
  scan.feed_lanes(0, std::span<const Cost>(cand_, n), x, rng);
  best_j = scan.best_j;
  best_cost = scan.best_cost;
  ties = scan.ties;
  return n - 1;
}

bool Costas::verify(std::span<const int> vals) const {
  if (vals.size() != n_) return false;
  if (!csp::is_permutation_of(vals, canonical_values(n_))) return false;
  for (std::size_t d = 1; d < n_; ++d) {
    std::vector<bool> seen(2 * n_ + 1, false);
    for (std::size_t a = 0; a + d < n_; ++a) {
      const int diff = vals[a + d] - vals[a];
      const auto idx = static_cast<std::size_t>(diff + static_cast<int>(n_));
      if (seen[idx]) return false;
      seen[idx] = true;
    }
  }
  return true;
}

csp::TuningHints Costas::tuning() const noexcept {
  csp::TuningHints hints;
  // CAP settings follow the dedicated Costas study (Diaz et al.): very
  // short freezes and frequent tiny perturbations (every second local
  // minimum shuffles two positions) — an iterated-descent regime.  Plateau
  // walking hurts here (pp = 0): the difference-triangle landscape rewards
  // strict descent plus perturbation.  Swept in scratch harnesses; n = 10
  // solves in ~60 iterations median with these settings.
  hints.freeze_loc_min = 1;
  hints.freeze_swap = 0;
  hints.reset_limit = 2;
  hints.reset_fraction = 0.05;
  hints.restart_limit = static_cast<std::uint64_t>(n_) * n_ * n_ * 500;
  hints.prob_accept_plateau = 0.0;
  hints.prob_accept_local_min = 0.0;
  return hints;
}

}  // namespace cspls::problems
