#include "spgemm/registry.hpp"

#include <stdexcept>

#include "matrix/ops.hpp"
#include "pb/pb_spgemm.hpp"
#include "pb/plan.hpp"
#include "spgemm/masked.hpp"
#include "spgemm/op.hpp"
#include "spgemm/semiring.hpp"

namespace pbs {

namespace {

const std::vector<std::string>& all_semirings() { return semiring_names(); }

/// One flop-sized Cˆ scratch per thread, shared by every pb_run<S>
/// instantiation (the workspace holds raw tuples, so semirings can share
/// it — and must live outside the template, or each instantiation would
/// retain its own copy).  Reuse across calls means repeated invocations —
/// benchmarks, iterative applications — pay its page faults once, not per
/// call.
pb::PbWorkspace& pb_shared_workspace() {
  thread_local pb::PbWorkspace workspace;
  return workspace;
}

/// PB over semiring S through the shared per-thread workspace.
template <typename S>
mtx::CsrMatrix pb_run(const SpGemmProblem& p) {
  return pb::pb_spgemm<S>(p.a_csc, p.b_csr, pb::PbConfig{},
                          pb_shared_workspace())
      .c;
}

template <typename S>
mtx::CsrMatrix heap_run(const SpGemmProblem& p) {
  return heap_spgemm_semiring<S>(p);
}

template <typename S>
mtx::CsrMatrix hash_run(const SpGemmProblem& p) {
  return hash_spgemm_semiring<S>(p);
}

template <typename S>
mtx::CsrMatrix spa_run(const SpGemmProblem& p) {
  return spgemm_semiring<S>(p.a_csr, p.b_csr);
}

template <typename S>
mtx::CsrMatrix reference_run(const SpGemmProblem& p) {
  return reference_spgemm_semiring<S>(p);
}

/// The generalized kernel of `algo` over S; algo must be one of the
/// registry entries flagged `generalized`.
template <typename S>
SpGemmFn generalized_kernel(const std::string& algo) {
  if (algo == "pb") return pb_run<S>;
  if (algo == "heap") return heap_run<S>;
  if (algo == "hash") return hash_run<S>;
  if (algo == "spa") return spa_run<S>;
  if (algo == "reference") return reference_run<S>;
  throw std::logic_error("registry: algorithm '" + algo +
                         "' advertises generalized semirings but has no "
                         "generalized kernel");
}

/// Ditto for the fused masked kernels.  PB fuses the mask at its compress
/// stage; heap/hash/spa in their row loops; the remaining baselines fall
/// back to multiply-then-pattern_filter (exact, unfused).
template <typename S>
SpGemmFn masked_kernel(const std::string& algo, const mtx::CsrMatrix* mask,
                       bool complement) {
  if (algo == "pb") {
    return [mask, complement](const SpGemmProblem& p) {
      // Fresh build + masked execute through the shared workspace; the
      // plan was just built from these operands, so skip the fingerprint.
      const pb::PbPlan plan =
          pb::pb_plan_build(p.a_csc, p.b_csr, pb::PbConfig{});
      const pb::MaskSpec ms{mask, complement};
      return pb::pb_execute<S>(p.a_csc, p.b_csr, plan, pb_shared_workspace(),
                               /*check_fingerprint=*/false, ms)
          .c;
    };
  }
  if (algo == "heap") {
    return [mask, complement](const SpGemmProblem& p) {
      return heap_masked_semiring<S>(p, *mask, complement);
    };
  }
  if (algo == "hash") {
    return [mask, complement](const SpGemmProblem& p) {
      return hash_masked_semiring<S>(p, *mask, complement);
    };
  }
  if (algo == "spa") {
    return [mask, complement](const SpGemmProblem& p) {
      detail::check_mask_shape("spgemm_masked_semiring", p, *mask);
      return spgemm_masked_semiring<S>(p.a_csr, p.b_csr, *mask, complement);
    };
  }
  // Unfused fallback: exact result, paid as a full multiply plus an
  // O(nnz) pattern filter.  Generalized algorithms without a fused masked
  // form (reference) resolve their kernel directly — S may be the runtime
  // bridge, whose sentinel name must not be re-looked-up; the numeric-only
  // baselines only ever reach here with a built-in S.
  const SpGemmFn plain = algorithm(algo).generalized
                             ? generalized_kernel<S>(algo)
                             : semiring_algorithm(algo, S::name);
  return [plain, mask, complement](const SpGemmProblem& p) {
    detail::check_mask_shape("masked_semiring_algorithm", p, *mask);
    return mtx::pattern_filter(plain(p), *mask, complement);
  };
}

/// Validates the (algo, semiring) pair against the registry + runtime
/// semiring registry; returns the resolved AlgoInfo.
const AlgoInfo& check_pair(const std::string& algo,
                           const std::string& semiring) {
  const AlgoInfo& info = algorithm(algo);  // throws on unknown algorithm

  if (!is_registered_semiring(semiring)) {
    std::string valid;
    for (const std::string& s : SemiringRegistry::instance().names())
      valid += s + " ";
    throw std::invalid_argument(
        "unknown semiring '" + semiring + "'; registered: " + valid +
        "\nsupported (algorithm, semiring) combinations:\n" +
        algorithm_semiring_matrix());
  }
  if (!info.supports_semiring(semiring)) {
    throw std::invalid_argument(
        "algorithm '" + algo + "' does not support semiring '" + semiring +
        "' (it is numeric plus_times-only)\n"
        "supported (algorithm, semiring) combinations:\n" +
        algorithm_semiring_matrix());
  }
  return info;
}

}  // namespace

bool AlgoInfo::supports_semiring(const std::string& semiring) const {
  for (const std::string& s : semirings) {
    if (s == semiring) return true;
  }
  // Generalized kernels accept any runtime-registered semiring through the
  // DynSemiring bridge.
  return generalized && is_registered_semiring(semiring);
}

const std::vector<AlgoInfo>& algorithms() {
  static const std::vector<AlgoInfo> algos = {
      {"pb",
       "PB-SpGEMM: outer-product ESC with propagation blocking (this paper)",
       pb_run<PlusTimes>, true, all_semirings(), true},
      {"heap", "column/row Gustavson with k-way heap merge [22]",
       heap_spgemm, true, all_semirings(), true},
      {"hash", "column/row Gustavson with hash accumulation [12]",
       hash_spgemm, true, all_semirings(), true},
      {"hashvec", "hash variant with vectorized bucket-group probing [12]",
       hashvec_spgemm, true},
      {"spa", "column/row Gustavson with dense accumulator [25]",
       spa_spgemm, true, all_semirings(), true},
      {"esc", "row-partitioned expand-sort-compress [15]",
       esc_column_spgemm, true},
      {"reference", "serial ordered-map gold standard (validation only)",
       reference_spgemm, false, all_semirings(), true},
  };
  return algos;
}

const AlgoInfo* find_algorithm(const std::string& name) noexcept {
  for (const AlgoInfo& a : algorithms()) {
    if (a.name == name) return &a;
  }
  return nullptr;
}

const AlgoInfo& algorithm(const std::string& name) {
  if (const AlgoInfo* a = find_algorithm(name)) return *a;
  std::string valid;
  for (const AlgoInfo& a : algorithms()) valid += a.name + " ";
  throw std::invalid_argument("unknown SpGEMM algorithm '" + name +
                              "'; valid: " + valid);
}

std::string algorithm_semiring_matrix() {
  // Generalized algorithms list every registered semiring (so runtime
  // registrations show up); the rest list their static (plus_times) set.
  const std::vector<std::string> registered =
      SemiringRegistry::instance().names();
  std::string out;
  for (const AlgoInfo& a : algorithms()) {
    out += "  " + a.name + ":";
    for (const std::string& s : a.generalized ? registered : a.semirings)
      out += " " + s;
    out += "\n";
  }
  return out;
}

SpGemmFn semiring_algorithm(const std::string& algo,
                            const std::string& semiring) {
  const AlgoInfo& info = check_pair(algo, semiring);

  if (semiring == PlusTimes::name) return info.fn;

  // The generalized kernels; check_pair guarantees the pair is supported,
  // so `semiring` here is a non-plus_times name of a generalized algorithm
  // (built-in via the compiled instantiations, runtime via DynSemiring).
  if (is_semiring_name(semiring)) {
    return dispatch_semiring(semiring, [&]<typename S>() -> SpGemmFn {
      return generalized_kernel<S>(algo);
    });
  }
  // Runtime-registered: capture the semiring by value and activate it
  // around every call (the registry never removes entries, but a value
  // copy keeps the kernel self-contained).
  const RuntimeSemiring rs = SemiringRegistry::instance().at(semiring);
  const SpGemmFn inner = generalized_kernel<DynSemiring>(algo);
  return [rs, inner](const SpGemmProblem& p) {
    detail::ScopedSemiring guard(&rs);
    return inner(p);
  };
}

SpGemmFn masked_semiring_algorithm(const std::string& algo,
                                   const std::string& semiring,
                                   const mtx::CsrMatrix* mask,
                                   bool complement) {
  if (mask == nullptr) return semiring_algorithm(algo, semiring);
  check_pair(algo, semiring);

  if (is_semiring_name(semiring)) {
    return dispatch_semiring(semiring, [&]<typename S>() -> SpGemmFn {
      return masked_kernel<S>(algo, mask, complement);
    });
  }
  const RuntimeSemiring rs = SemiringRegistry::instance().at(semiring);
  const SpGemmFn inner = masked_kernel<DynSemiring>(algo, mask, complement);
  return [rs, inner](const SpGemmProblem& p) {
    detail::ScopedSemiring guard(&rs);
    return inner(p);
  };
}

std::vector<AlgoInfo> paper_comparison_set() {
  return {algorithm("pb"), algorithm("heap"), algorithm("hash"),
          algorithm("hashvec")};
}

}  // namespace pbs
