#include "spgemm/semiring.hpp"

#include <cassert>
#include <stdexcept>
#include <vector>

#include "spgemm/assemble.hpp"
#include "spgemm/masked.hpp"
#include "spgemm/op.hpp"

namespace pbs {

template <typename S>
mtx::CsrMatrix spgemm_semiring(const mtx::CsrMatrix& a,
                               const mtx::CsrMatrix& b,
                               const pb::MaskSpec& mask) {
  if (a.ncols != b.nrows) {
    throw std::invalid_argument("spgemm_semiring: inner dimensions differ");
  }
  mask.check_shape(a.nrows, b.ncols, "spgemm_semiring");

  // SPA-style dense accumulator with stamp-based clearing; the semiring
  // only changes the combine step.  A masked-out product never reaches the
  // accumulator, so a masked row touches only O(nnz(mask(r,:))) slots, and
  // exact cancellation to S::zero() stays structural either way.  Each
  // thread owns one scratch for all of its rows.
  struct Scratch {
    explicit Scratch(const pb::MaskSpec& m) : mask(m) {}
    std::vector<value_t> dense;
    std::vector<index_t> stamp;
    std::vector<index_t> touched;
    detail::MaskStamp mask;
  };

  return detail::dispatch_mask(mask, [&]<bool kMasked>() {
    return detail::assemble_rowwise(
        a.nrows, b.ncols, [&]() noexcept { return Scratch(mask); },
        [&](Scratch& s, index_t r, detail::BlockBuffer& buf) {
          if (kMasked && !s.mask.begin_row(r)) return;
          if (s.dense.empty()) {
            s.dense.assign(static_cast<std::size_t>(b.ncols), S::zero());
            s.stamp.assign(static_cast<std::size_t>(b.ncols), -1);
          }
          s.touched.clear();

          for (nnz_t i = a.rowptr[r]; i < a.rowptr[static_cast<std::size_t>(r) + 1]; ++i) {
            const index_t k = a.colids[i];
            const value_t av = a.vals[i];
            for (nnz_t j = b.rowptr[k]; j < b.rowptr[static_cast<std::size_t>(k) + 1]; ++j) {
              const index_t c = b.colids[j];
              if (kMasked && s.mask.skip(c)) continue;
              const value_t product = S::mul(av, b.vals[j]);
              if (s.stamp[c] != r) {
                s.stamp[c] = r;
                s.dense[c] = product;
                s.touched.push_back(c);
              } else {
                s.dense[c] = S::add(s.dense[c], product);
              }
            }
          }

          std::sort(s.touched.begin(), s.touched.end());
          for (const index_t c : s.touched) {
            buf.cols.push_back(c);
            buf.vals.push_back(s.dense[c]);
          }
        });
  });
}

template mtx::CsrMatrix spgemm_semiring<PlusTimes>(const mtx::CsrMatrix&,
                                                   const mtx::CsrMatrix&,
                                                   const pb::MaskSpec&);
template mtx::CsrMatrix spgemm_semiring<MinPlus>(const mtx::CsrMatrix&,
                                                 const mtx::CsrMatrix&,
                                                 const pb::MaskSpec&);
template mtx::CsrMatrix spgemm_semiring<MaxMin>(const mtx::CsrMatrix&,
                                                const mtx::CsrMatrix&,
                                                const pb::MaskSpec&);
template mtx::CsrMatrix spgemm_semiring<BoolOrAnd>(const mtx::CsrMatrix&,
                                                   const mtx::CsrMatrix&,
                                                   const pb::MaskSpec&);
// The runtime-semiring bridge (spgemm/op.hpp).
template mtx::CsrMatrix spgemm_semiring<DynSemiring>(const mtx::CsrMatrix&,
                                                     const mtx::CsrMatrix&,
                                                     const pb::MaskSpec&);

mtx::CsrMatrix spgemm_semiring_named(const std::string& semiring,
                                     const mtx::CsrMatrix& a,
                                     const mtx::CsrMatrix& b) {
  return dispatch_semiring_any(semiring, [&]<typename S>() {
    return spgemm_semiring<S>(a, b);
  });
}

const std::vector<std::string>& semiring_names() {
  static const std::vector<std::string> names = {
      PlusTimes::name, MinPlus::name, MaxMin::name, BoolOrAnd::name};
  return names;
}

bool is_semiring_name(const std::string& name) {
  for (const std::string& s : semiring_names()) {
    if (s == name) return true;
  }
  return false;
}

}  // namespace pbs
