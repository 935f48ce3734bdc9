// Shared helpers for the test suite.
//
// Property tests compare floating-point matrix products across algorithms
// whose accumulation *order* differs (PB's radix sort is not stable for
// equal keys).  To make equality exact rather than tolerance-based, random
// test matrices use small-integer values: all intermediate sums then stay
// well inside the 2^53 exactly-representable range, so any order of
// additions yields bit-identical results.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "matrix/convert.hpp"
#include "matrix/coo.hpp"
#include "matrix/csr.hpp"
#include "matrix/generate.hpp"
#include "pb/pb_config.hpp"

namespace pbs::testutil {

/// Replaces all values with integers in [1, 8] derived from the entry's
/// position (deterministic, order-independent).
inline void make_values_exact(mtx::CooMatrix& coo) {
  for (nnz_t i = 0; i < coo.nnz(); ++i) {
    const auto h = static_cast<std::uint64_t>(coo.row[i]) * 0x9E3779B97F4A7C15ull +
                   static_cast<std::uint64_t>(coo.col[i]) * 0xC2B2AE3D27D4EB4Full;
    coo.val[i] = static_cast<value_t>(1 + (h >> 32) % 8);
  }
}

/// ER matrix with exact-integer values.
inline mtx::CsrMatrix exact_er(index_t nrows, index_t ncols, double d,
                               std::uint64_t seed) {
  mtx::CooMatrix coo = mtx::generate_er(nrows, ncols, d, seed);
  make_values_exact(coo);
  return mtx::coo_to_csr(coo);
}

/// R-MAT matrix with exact-integer values.
inline mtx::CsrMatrix exact_rmat(int scale, double edge_factor,
                                 std::uint64_t seed) {
  mtx::RmatParams p;
  p.scale = scale;
  p.edge_factor = edge_factor;
  p.seed = seed;
  mtx::CooMatrix coo = mtx::generate_rmat(p);
  make_values_exact(coo);
  return mtx::coo_to_csr(coo);
}

/// Small dense-ish matrix from an explicit triplet list.
inline mtx::CsrMatrix from_triplets(
    index_t nrows, index_t ncols,
    std::initializer_list<std::tuple<index_t, index_t, value_t>> entries) {
  mtx::CooMatrix coo(nrows, ncols);
  for (const auto& [r, c, v] : entries) coo.add(r, c, v);
  coo.canonicalize();
  return mtx::coo_to_csr(coo);
}

/// One tuple-stream format, for suites parameterized over every policy of
/// pb/tuple.hpp (the test body reaches the policy through pb::visit).
struct StreamFormat {
  pb::TupleFormat format;
};

inline void PrintTo(const StreamFormat& s, std::ostream* os) {
  *os << pb::to_string(s.format);
}

inline std::vector<StreamFormat> all_stream_formats() {
  return {{pb::TupleFormat::kWide},
          {pb::TupleFormat::kNarrow},
          {pb::TupleFormat::kKeyOnly},
          {pb::TupleFormat::kNarrowF32}};
}

/// Test-name generator: the format's name.
template <typename ParamInfo>
std::string stream_format_name(const ParamInfo& info) {
  return pb::to_string(info.param.format);
}

}  // namespace pbs::testutil
