// PB-SpGEMM — the paper's contribution (Algorithm 2), generalized over an
// arbitrary semiring.
//
// C = A ⊗ B via outer-product expansion with propagation blocking:
//
//   symbolic  — flop count + bin layout + per-bin regions       (Alg. 3)
//   expand    — k outer products (S::mul), tuples routed through
//               local bins into L2-sized global bins             (Fig. 5)
//   sort      — per-bin in-place byte-skipping radix sort        (Sec. III-D)
//   compress  — per-bin two-pointer duplicate merge (S::add)     (Sec. III-E)
//   convert   — bins → canonical CSR                             (line 22)
//
// The pipeline is semiring-agnostic: only the scalar multiply in expand
// and the duplicate-combine in compress touch values, so pb_spgemm<S>
// runs the identical bandwidth-optimized machinery for (+, ×) numeric
// SpGEMM, (min, +) shortest-path relaxation, (max, min) bottleneck paths
// and (∨, ∧) boolean reachability.  Entries that combine to S::zero()
// stay structurally present (exact-cancellation convention, matching
// spgemm_semiring).  The four built-in semirings and DynSemiring, the
// bridge to semirings registered at runtime (spgemm/op.hpp), are
// explicitly instantiated in the .cpp files, so instantiation cost is paid
// once and the pre-semiring non-template entry points keep their ABI;
// pb_spgemm<S> with a custom S additionally needs pb_spgemm_impl.hpp and
// plan_impl.hpp.
//
// Every phase streams memory; the returned telemetry pairs each phase's
// wall time with the Table III byte model so callers can report sustained
// bandwidth the way the paper's Figs. 6/7b/9b do.  Runtime
// (algorithm × semiring) dispatch across the whole library lives in
// spgemm/registry.hpp.
//
// pb_spgemm is the fused form of the plan/execute split in pb/plan.hpp
// (pb_plan_build + pb_execute<S>); repeated multiplications with the same
// structure should build a plan once and execute it, or run through the
// plan-caching, self-selecting SpGemmExecutor in spgemm/executor.hpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <atomic>

#include "common/aligned_buffer.hpp"
#include "common/errors.hpp"
#include "common/fault.hpp"
#include "matrix/csc.hpp"
#include "matrix/csr.hpp"
#include "pb/pb_config.hpp"
#include "pb/tuple.hpp"
#include "spgemm/semiring_ops.hpp"

namespace pbs::pb {

/// Shared byte budget for workspace memory (tuple pools + sort scratch).
/// `cap == 0` means unlimited.  Workspaces charge growth before they
/// allocate and release on destruction, so `used` tracks the pool-wide
/// retained footprint; a growth that would push `used` past `cap` is
/// rejected and surfaces as MemoryBudgetError, which the executor's
/// degradation path treats like a real bad_alloc.
struct MemoryBudget {
  std::size_t cap = 0;
  std::atomic<std::size_t> used{0};

  [[nodiscard]] bool try_reserve(std::size_t delta) noexcept {
    if (cap == 0) {
      used.fetch_add(delta, std::memory_order_relaxed);
      return true;
    }
    std::size_t cur = used.load(std::memory_order_relaxed);
    while (true) {
      if (cur + delta > cap) return false;
      if (used.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
        return true;
      }
    }
  }

  void release(std::size_t delta) noexcept {
    used.fetch_sub(delta, std::memory_order_relaxed);
  }
};

/// Pooling allocator for the pipeline's scratch memory: the expanded
/// matrix Cˆ (flop tuples — the largest allocation of the algorithm, often
/// several times the inputs) plus the per-thread radix-sort scratch of the
/// sort/compress phase.
///
/// Re-running PB-SpGEMM with the same workspace keeps that memory mapped
/// and warm across calls, which matters twice: in iterative applications
/// (MCL, AMG setup, BFS) the allocation cost would otherwise recur every
/// iteration, and on kernels with slow page-fault paths (containers, some
/// hypervisors) first-touch faults can run an order of magnitude below
/// stream bandwidth and completely mask the algorithm.  The pools hold
/// raw bytes and carve them per request, so one workspace serves every
/// semiring instantiation and all tuple formats — a 12 B/tuple narrow
/// stream fits inside the capacity a 16 B/tuple wide run of the same flop
/// left behind, and the 8 B/tuple key-only and narrow-f32 streams fit
/// inside either, so plans alternating formats reallocate nothing.
/// Crucially each lease reserves only what its format needs: a key-only
/// acquire following a wide one asks for n·8 bytes, not n·16 — the pool
/// must never charge value bytes to a format that has no value array.
///
/// Reuse statistics distinguish calls served from pooled capacity from
/// calls that had to (re)allocate — the plan/execute layer exposes them so
/// tests and benches can assert that steady-state executions allocate
/// nothing.  One acquire (of any format) is one pipeline execution's
/// tuple-buffer request.  Not thread-safe across concurrent pipelines; the
/// per-thread scratch slots are safe to fill from inside one pipeline's
/// parallel region (each slot belongs to one OpenMP thread).
class PbWorkspace {
 public:
  struct Stats {
    std::uint64_t acquires = 0;     ///< total tuple-buffer requests
    std::uint64_t allocations = 0;  ///< requests that had to (re)allocate
    std::uint64_t reuses = 0;       ///< requests served from pooled capacity
    std::uint64_t scratch_allocations = 0;  ///< ditto for sort scratch slots
    std::uint64_t scratch_reuses = 0;
    std::size_t peak_request = 0;   ///< largest tuple count ever requested
    std::uint64_t budget_rejections = 0;  ///< growths refused by the budget
  };

  PbWorkspace() = default;
  PbWorkspace(const PbWorkspace&) = delete;
  PbWorkspace& operator=(const PbWorkspace&) = delete;

  ~PbWorkspace() { release_budget_charge(); }

  /// Attaches a shared byte budget; every subsequent growth is charged
  /// against it and a growth that would exceed `budget->cap` throws
  /// MemoryBudgetError instead of allocating.  Call before the first
  /// acquire (the pool does, at construction); the budget must outlive
  /// this workspace.
  void set_budget(MemoryBudget* budget) { budget_ = budget; }

  /// Stream of format St (pb/tuple.hpp) with room for at least n tuples,
  /// carved from the pool; contents undefined.  Reserves exactly
  /// St::bytes(n) — a format pays only for the lanes it has.  Grows
  /// geometrically, never shrinks.
  template <typename St>
  St acquire(std::size_t n) {
    note_request(n);
    const std::uint64_t before = stats_.allocations;
    std::byte* base =
        ensure(buf_, stats_.allocations, stats_.reuses, St::bytes(n));
    fresh_ = stats_.allocations != before;
    return St::carve(base, n);
  }

  // Named wide and narrow forms of acquire<St>.  perfbench/'s run_phases
  // calls them with these exact signatures, and that directory is frozen
  // by BENCHMARK.json, so they stay as one-line forwarders.
  Tuple* acquire(std::size_t n) { return acquire<WideStream>(n).tuples; }
  NarrowStream acquire_narrow(std::size_t n) {
    return acquire<NarrowStream>(n);
  }

  /// True when the most recent acquire had to (re)allocate the tuple
  /// pool — its pages are unmapped and their NUMA placement is still up
  /// for grabs (first-touch pending).
  [[nodiscard]] bool last_acquire_allocated() const { return fresh_; }

  /// NUMA-aware first touch of the most recent acquire's per-bin regions:
  /// each bin's byte range is touched (one write per page) from a thread
  /// running on the bin's home node (`bin_home`, pb_symbolic's
  /// flop-balanced bin→node partition), so Linux's first-touch policy
  /// places the pages where the bin's tuples will be produced and
  /// consumed.  No-op unless last_acquire_allocated() — pages of a reused
  /// pool are already placed and a touch would not migrate them.  On
  /// single-node hosts every bin is home to node 0 and this degenerates
  /// to a parallel pre-fault of the pool, which still beats serializing
  /// the faults into the first expand flush.  `bin_offsets` / `format`
  /// must be the geometry the acquire was sized for.
  void place_bins(std::span<const nnz_t> bin_offsets,
                  std::span<const int> bin_home, TupleFormat format);

  /// Ensures `nthreads` scratch slots exist.  Call before the parallel
  /// region that uses acquire_scratch.
  void prepare_scratch(int nthreads) {
    if (scratch_.size() < static_cast<std::size_t>(nthreads)) {
      scratch_.resize(static_cast<std::size_t>(nthreads));
    }
  }

  /// Per-thread sort scratch: a stream of format St with room for at
  /// least n tuples; contents undefined.  Each slot is owned by one
  /// thread, so slots carry their own counters (aggregated in stats())
  /// without synchronization.
  template <typename St>
  St acquire_scratch(std::size_t slot, std::size_t n) {
    ScratchSlot& s = scratch_[slot];
    return St::carve(ensure(s.buf, s.allocations, s.reuses, St::bytes(n)), n);
  }

  /// Retained pool capacity in bytes.
  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }

  /// Aggregated reuse statistics (tuple pool + scratch slots).
  [[nodiscard]] Stats stats() const {
    Stats s = stats_;
    for (const ScratchSlot& slot : scratch_) {
      s.scratch_allocations += slot.allocations;
      s.scratch_reuses += slot.reuses;
    }
    return s;
  }

  void reset_stats() {
    stats_ = {};
    for (ScratchSlot& slot : scratch_) slot.allocations = slot.reuses = 0;
  }

 private:
  struct ScratchSlot {
    AlignedBuffer<std::byte> buf;
    std::uint64_t allocations = 0;
    std::uint64_t reuses = 0;
  };

  void note_request(std::size_t n) {
    ++stats_.acquires;
    stats_.peak_request = std::max(stats_.peak_request, n);
  }

  std::byte* ensure(AlignedBuffer<std::byte>& buf, std::uint64_t& allocations,
                    std::uint64_t& reuses, std::size_t bytes) {
    if (bytes > buf.size()) {
      ++allocations;
      grow(buf, std::max(bytes, buf.size() + buf.size() / 2));
    } else {
      ++reuses;
    }
    return buf.data();
  }

  /// Grows `buf` to `target` elements, charging the budget first.  The
  /// invariant is charged-per-buffer == buf.size(): growth charges the
  /// delta; a failed aligned_alloc leaves the buffer empty (allocate
  /// frees the old block before allocating), so the whole `target`
  /// charge is released on the way out.
  void grow(AlignedBuffer<std::byte>& buf, std::size_t target) {
    FaultInjector::on_alloc(target);
    if (budget_ != nullptr && !budget_->try_reserve(target - buf.size())) {
      ++stats_.budget_rejections;
      throw MemoryBudgetError(
          "pb workspace growth to " + std::to_string(target) +
          " bytes exceeds the memory budget (cap " +
          std::to_string(budget_->cap) + ", used " +
          std::to_string(budget_->used.load(std::memory_order_relaxed)) +
          ")");
    }
    try {
      buf.allocate(target);
    } catch (...) {
      if (budget_ != nullptr) budget_->release(target);
      throw;
    }
  }

  /// Returns this workspace's entire charge to the budget (destructor /
  /// move-assign target teardown).
  void release_budget_charge() noexcept {
    if (budget_ == nullptr) return;
    std::size_t held = buf_.size();
    for (const ScratchSlot& s : scratch_) held += s.buf.size();
    if (held > 0) budget_->release(held);
    budget_ = nullptr;
  }

  AlignedBuffer<std::byte> buf_;
  std::vector<ScratchSlot> scratch_;
  Stats stats_;
  bool fresh_ = false;
  MemoryBudget* budget_ = nullptr;
};

/// Multiplies A (CSC) by B (CSR) over semiring S.  Requires
/// a.ncols == b.nrows; throws std::invalid_argument otherwise.  This
/// convenience overload allocates a fresh workspace per call.
template <typename S>
PbResult pb_spgemm(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                   const PbConfig& cfg = {});

/// Workspace-reusing variant for repeated multiplications.
template <typename S>
PbResult pb_spgemm(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                   const PbConfig& cfg, PbWorkspace& workspace);

extern template PbResult pb_spgemm<PlusTimes>(const mtx::CscMatrix&,
                                              const mtx::CsrMatrix&,
                                              const PbConfig&);
extern template PbResult pb_spgemm<MinPlus>(const mtx::CscMatrix&,
                                            const mtx::CsrMatrix&,
                                            const PbConfig&);
extern template PbResult pb_spgemm<MaxMin>(const mtx::CscMatrix&,
                                           const mtx::CsrMatrix&,
                                           const PbConfig&);
extern template PbResult pb_spgemm<BoolOrAnd>(const mtx::CscMatrix&,
                                              const mtx::CsrMatrix&,
                                              const PbConfig&);
extern template PbResult pb_spgemm<PlusTimes>(const mtx::CscMatrix&,
                                              const mtx::CsrMatrix&,
                                              const PbConfig&, PbWorkspace&);
extern template PbResult pb_spgemm<MinPlus>(const mtx::CscMatrix&,
                                            const mtx::CsrMatrix&,
                                            const PbConfig&, PbWorkspace&);
extern template PbResult pb_spgemm<MaxMin>(const mtx::CscMatrix&,
                                           const mtx::CsrMatrix&,
                                           const PbConfig&, PbWorkspace&);
extern template PbResult pb_spgemm<BoolOrAnd>(const mtx::CscMatrix&,
                                              const mtx::CsrMatrix&,
                                              const PbConfig&, PbWorkspace&);

/// Numeric (+, ×) PB-SpGEMM — equivalent to pb_spgemm<PlusTimes>.  This
/// convenience overload allocates a fresh workspace per call.
PbResult pb_spgemm(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                   const PbConfig& cfg = {});

/// Workspace-reusing numeric variant for repeated multiplications.
PbResult pb_spgemm(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                   const PbConfig& cfg, PbWorkspace& workspace);

/// Runtime dispatch by semiring name ("plus_times", "min_plus", "max_min",
/// "bool_or_and"); throws std::invalid_argument listing the valid names on
/// a miss.  Keeps the full per-phase telemetry of the template form.
PbResult pb_spgemm_named(const std::string& semiring, const mtx::CscMatrix& a,
                         const mtx::CsrMatrix& b, const PbConfig& cfg,
                         PbWorkspace& workspace);

}  // namespace pbs::pb
