// Matrix Market (.mtx) reader/writer.
//
// The paper's Table VI / Fig. 11 matrices come from the SuiteSparse Matrix
// Collection, which distributes Matrix Market files.  The reader supports
// `coordinate` matrices with real/integer/pattern fields and
// general/symmetric/skew-symmetric symmetry — enough for all twelve
// matrices in the paper.  When the files are unavailable (offline), the
// surrogate generators in surrogates.hpp stand in.
#pragma once

#include <iosfwd>
#include <string>

#include "matrix/coo.hpp"

namespace pbs::mtx {

/// Parses a Matrix Market file.  Throws std::runtime_error with a
/// line-numbered message on malformed input.  Symmetric/skew entries are
/// mirrored; the result is canonical COO.
CooMatrix read_matrix_market(const std::string& path);

/// Stream variant (used by tests to parse in-memory files).
CooMatrix read_matrix_market(std::istream& in, const std::string& name = "<stream>");

/// Writes canonical COO as `matrix coordinate real general`.
void write_matrix_market(const std::string& path, const CooMatrix& coo);
void write_matrix_market(std::ostream& out, const CooMatrix& coo);

}  // namespace pbs::mtx
