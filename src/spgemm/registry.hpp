// Name -> algorithm registry shared by benches, tests, examples and the
// CLI, with unified (algorithm × semiring × mask) dispatch.
//
// Every algorithm is registered with the set of semirings it supports.
// The bandwidth-optimized PB pipeline and the generalized Gustavson
// kernels (heap, hash, spa, reference) support every *registered* semiring
// — the built-in four plus anything added through SemiringRegistry
// (spgemm/op.hpp) at runtime; the remaining baselines (hashvec, esc) are
// numeric (+, ×) only and say so in their lookup error rather than
// silently falling back.  pb, heap, hash and spa fuse an output mask.
#pragma once

#include <string>
#include <vector>

#include "spgemm/semiring_ops.hpp"
#include "spgemm/spgemm.hpp"

namespace pbs {

struct AlgoInfo {
  std::string name;
  std::string description;
  /// The numeric (+, ×) kernel — what the paper's figures measure.
  SpGemmFn fn;
  /// False for algorithms that are quadratic-ish and only suitable for
  /// validation-scale inputs (reference).
  bool scales_to_large = true;
  /// Names of the built-in semirings this algorithm supports (always
  /// contains "plus_times"; see semiring_algorithm for the generalized
  /// kernels).
  std::vector<std::string> semirings = {PlusTimes::name};
  /// True when the algorithm's kernel is semiring-templated: it then also
  /// accepts every semiring registered at runtime (SemiringRegistry),
  /// executed through the DynSemiring bridge.
  bool generalized = false;

  [[nodiscard]] bool supports_semiring(const std::string& semiring) const;
};

/// All registered algorithms.  "pb" is the paper's contribution; "heap",
/// "hash", "hashvec" are the paper's comparators; the rest complete
/// Table I.
const std::vector<AlgoInfo>& algorithms();

/// Lookup by name; throws std::invalid_argument with the list of valid
/// names on a miss.
const AlgoInfo& algorithm(const std::string& name);

/// Non-throwing lookup; nullptr on a miss (for probing, e.g. "auto").
const AlgoInfo* find_algorithm(const std::string& name) noexcept;

/// Unified (algorithm × semiring × mask) lookup: returns the kernel
/// computing A ⊗ B with `algo` over `semiring` (built-in or
/// runtime-registered), restricted to `mask`'s pattern (or its complement)
/// when `mask` is non-null.  PB fuses the mask at its expand or compress
/// stage and heap/hash/spa in their row loops; esc, hashvec and reference
/// run multiply-then-filter (still exact, just unfused).  `mask` is
/// captured by pointer and must outlive the returned kernel; its shape is
/// validated per call.  Throws std::invalid_argument listing every valid
/// (algorithm, semiring) combination when the algorithm is unknown, the
/// semiring is unknown, or the pair is unsupported — callers never
/// silently fall back to a different algorithm or semiring.  This is the
/// kernel-resolution layer SpGemmExecutor runs every SpGemmOp on; calling
/// it directly resolves one call, with no analysis and no plan cache.
SpGemmFn masked_semiring_algorithm(const std::string& algo,
                                   const std::string& semiring,
                                   const mtx::CsrMatrix* mask,
                                   bool complement);

/// The unmasked call of masked_semiring_algorithm.
SpGemmFn semiring_algorithm(const std::string& algo,
                            const std::string& semiring);

/// Human-readable support matrix, one "algo: semiring..." line per
/// algorithm (used by CLI --help and lookup errors).  Runtime-registered
/// semirings show up on every generalized algorithm's line.
std::string algorithm_semiring_matrix();

/// The four algorithms the paper's figures compare.
std::vector<AlgoInfo> paper_comparison_set();

}  // namespace pbs
