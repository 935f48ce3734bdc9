#include "spgemm/registry.hpp"

#include <stdexcept>

#include "matrix/ops.hpp"
#include "pb/plan.hpp"
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

/// PB over semiring S through the shared per-thread workspace: a fresh
/// plan (value-freeness derived from S, so a value-free semiring gets the
/// 8 B key-only stream masked or not) executed once, with the mask fused
/// at expand or compress.
template <typename S>
mtx::CsrMatrix pb_run(const SpGemmProblem& p, const pb::MaskSpec& mask) {
  pb::PbConfig cfg;
  cfg.value_free = semiring_is_value_free<S>();
  const pb::PbPlan plan = pb::pb_plan_build(p.a_csc, p.b_csr, cfg);
  // The plan was just built from these operands: skip the fingerprint.
  return pb::pb_execute<S>(p.a_csc, p.b_csr, plan, pb_shared_workspace(),
                           /*check_fingerprint=*/false, mask)
      .c;
}

/// The kernel of `algo` over S with `mask` (inactive = unmasked).  PB and
/// the row-wise heap/hash/spa kernels fuse the mask; the kernels without a
/// fused form (esc, hashvec, reference) run multiply-then-pattern_filter
/// (exact, unfused).  The numeric-only baselines only ever reach here with
/// S = PlusTimes (check_pair), so their registered kernel is the one.
template <typename S>
SpGemmFn kernel(const std::string& algo, const pb::MaskSpec& mask) {
  if (algo == "pb") {
    return [mask](const SpGemmProblem& p) { return pb_run<S>(p, mask); };
  }
  if (algo == "heap") {
    return [mask](const SpGemmProblem& p) {
      return heap_spgemm_semiring<S>(p, mask);
    };
  }
  if (algo == "hash") {
    return [mask](const SpGemmProblem& p) {
      return hash_spgemm_semiring<S>(p, mask);
    };
  }
  if (algo == "spa") {
    return [mask](const SpGemmProblem& p) {
      return spgemm_semiring<S>(p.a_csr, p.b_csr, mask);
    };
  }
  const SpGemmFn plain = algo == "reference"
                             ? SpGemmFn(reference_spgemm_semiring<S>)
                             : algorithm(algo).fn;
  if (!mask.active()) return plain;
  return [plain, mask](const SpGemmProblem& p) {
    mask.check_shape(p.result_rows(), p.result_cols(),
                     "masked_semiring_algorithm");
    return mtx::pattern_filter(plain(p), *mask.csr, mask.complement);
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
       [](const SpGemmProblem& p) { return pb_run<PlusTimes>(p, {}); }, true,
       all_semirings(), true},
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
  return masked_semiring_algorithm(algo, semiring, nullptr, false);
}

SpGemmFn masked_semiring_algorithm(const std::string& algo,
                                   const std::string& semiring,
                                   const mtx::CsrMatrix* mask,
                                   bool complement) {
  check_pair(algo, semiring);
  const pb::MaskSpec ms{mask, complement};

  // Built-in semirings resolve to their compiled instantiations.
  if (is_semiring_name(semiring)) {
    return dispatch_semiring(semiring, [&]<typename S>() -> SpGemmFn {
      return kernel<S>(algo, ms);
    });
  }
  // Runtime-registered: capture the semiring by value and activate it
  // around every call (the registry never removes entries, but a value
  // copy keeps the kernel self-contained).
  const RuntimeSemiring rs = SemiringRegistry::instance().at(semiring);
  const SpGemmFn inner = kernel<DynSemiring>(algo, ms);
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
