#include "spgemm/executor.hpp"

#include <algorithm>
#include <list>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "common/cancel.hpp"
#include "common/errors.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "matrix/mstats.hpp"
#include "pb/expand.hpp"
#include "pb/symbolic.hpp"
#include "spgemm/epilogue.hpp"
#include "spgemm/registry.hpp"

namespace pbs {

namespace {

/// Telemetry ring capacity: the most recent samples kept for
/// calibrate()/samples().
constexpr std::size_t kMaxSamples = 512;

// Everything of an op that changes what planning produces: the algorithm
// and semiring, the mask binding (by address — the pattern behind it may
// change freely, the fused kernels re-read it per call), and the pb/model
// tunables that steer symbolic layout and "auto" selection.  The
// accumulation target is a run() argument, not part of the op, so an
// accumulating run shares its cached plan with the plain product.
// post_op IS keyed —
// the cached entry's op copy carries it into every execution, so two ops
// differing only in their post-op must not share an entry.
std::string op_cache_key(const SpGemmOp& op) {
  std::ostringstream key;
  key << op.algo << '|' << op.semiring << '|'
      << static_cast<const void*>(op.mask) << '|' << op.complement << '|'
      << static_cast<int>(op.pb.format) << '|' << op.pb.value_free << '|'
      << op.pb.nbins << '|' << op.pb.local_bin_bytes << '|'
      << op.pb.l2_bytes << '|' << static_cast<int>(op.pb.expand_mask) << '|'
      << op.post_op.scale << '|' << op.post_op.prune_threshold << '|'
      << op.post_op.top_k << '|'
      << op.model.pb_efficiency << '|'
      << op.model.column_latency_penalty << '|'
      << op.model.small_flop_threshold << '|' << op.model.pb_tuple_bytes
      << '|' << op.model.bytes_per_nnz;
  return key.str();
}

/// The op's mask in kernel terms (inactive when op.mask is null).
pb::MaskSpec mask_of(const SpGemmOp& op) { return {op.mask, op.complement}; }

/// Descriptor-level legality of op.post_op, enforced at every entry point
/// (plan time, never execute time).  `accumulate` is the accumulating
/// run's target (nullptr for a plain product).
void check_post_op(const SpGemmOp& op, const mtx::CsrMatrix* accumulate) {
  if (!op.post_op.active()) return;
  if (accumulate != nullptr) {
    throw std::invalid_argument(
        "SpGemmExecutor: post_op and accumulate are mutually exclusive "
        "(prune/top-k over a merged C is ambiguous — run the product with "
        "the post-op, then accumulate explicitly)");
  }
  if (op.pb.value_free || semiring_value_free(op.semiring)) {
    throw std::invalid_argument(
        "SpGemmExecutor: post_op on value-free semiring '" + op.semiring +
        "': every output value is the present-value 1.0, so there is "
        "nothing to scale, prune or rank");
  }
}

bool is_passthrough(const SpGemmOp& op) {
  return op.algo != "auto" && op.algo != "pb";
}

/// Serializes executions over runtime-registered semirings.  The
/// DynSemiring bridge routes scalar ops through ONE process-global
/// active-semiring pointer (spgemm/op.hpp), so the mutex must be
/// process-global too — a per-executor mutex would let two executors
/// (e.g. the tiles of a ShardRouter) interleave their activations and
/// silently compute with the wrong semiring.
std::mutex& dyn_semiring_mutex() {
  static std::mutex mu;
  return mu;
}

/// Holds dyn_semiring_mutex for a runtime-registered semiring; built-ins
/// (and every kernel compiled against them) run fully concurrent.
std::unique_lock<std::mutex> lock_dyn_semiring(const std::string& semiring) {
  if (is_semiring_name(semiring)) return {};
  return std::unique_lock<std::mutex>(dyn_semiring_mutex());
}

/// The unfused row-wise tail every non-pb run shares (a passthrough op, a
/// cached row-wise entry, pb's oom fallback): the kernel and the post-pass
/// epilogue under the dyn-semiring lock — semiring_ewise_add over a
/// runtime semiring rides the same process-global bridge — so the result
/// is the same matrix the fused pb kernels build directly.  Row-wise
/// kernels have no internal poll points: the token is polled before the
/// kernel, before the epilogue and once more after it.
mtx::CsrMatrix run_unfused(const SpGemmFn& fn, const SpGemmOp& op,
                           const SpGemmProblem& p, const CancelToken* cancel,
                           const mtx::CsrMatrix* accumulate) {
  throw_if_stopped(cancel);
  mtx::CsrMatrix c;
  {
    const std::unique_lock<std::mutex> dyn_lock =
        lock_dyn_semiring(op.semiring);
    c = fn(p);
    throw_if_stopped(cancel);
    if (op.post_op.active()) apply_post_op(c, op.post_op);
    if (accumulate != nullptr) {
      c = semiring_ewise_add(op.semiring, *accumulate, c);
    }
  }
  throw_if_stopped(cancel);
  return c;
}

/// The low-memory row-wise kernel a degraded op executes with: hash when
/// it speaks the op's semiring, heap otherwise (heap supports every
/// registered semiring).
std::string fallback_algo(const std::string& semiring) {
  const AlgoInfo* hash = find_algorithm("hash");
  return hash != nullptr && hash->supports_semiring(semiring) ? "hash"
                                                              : "heap";
}

}  // namespace

/// One cached plan: the full analysis product for (structure, op),
/// immutable after construction so in-flight executions can keep using it
/// through their shared_ptr after an eviction.
struct CachedPlanEntry {
  pb::StructureFingerprint fp;
  std::string key;
  SpGemmOp op;  ///< copy; the mask pointer stays non-owning
  std::string resolved;
  bool auto_requested = false;
  bool use_pb = false;
  model::AlgoChoice choice;
  double predicted_mflops = 0;
  double plan_seconds = 0;
  /// Derating constants the "auto" selection ran with (op tunables or
  /// calibrated overrides) — recorded into every PerfSample so a later
  /// calibrate() inverts each prediction through the right constants.
  double sel_pb_efficiency = 0;
  double sel_column_latency_penalty = 0;
  pb::PbPlan pb_plan;  ///< valid when use_pb
  SpGemmFn fn;         ///< execution path when !use_pb
  bool degraded = false;       ///< plan-time budget downgrade
  std::string degrade_reason;  ///< "budget" when degraded
  std::size_t bytes = 0;  ///< estimated footprint (set at insert time)
};

namespace {

/// Estimated resident cost of one cache entry: the struct itself, its
/// strings, and the PB symbolic arrays (per-bin offsets/fills/homes).
/// The tuple streams are NOT here — they live in the workspace pool,
/// shared by every entry.
std::size_t entry_bytes(const CachedPlanEntry& e) {
  std::size_t b = sizeof(CachedPlanEntry);
  b += e.key.capacity() + e.resolved.capacity() + e.op.algo.capacity() +
       e.op.semiring.capacity() + e.degrade_reason.capacity();
  const pb::SymbolicResult& sym = e.pb_plan.sym;
  b += sym.bin_offsets.capacity() * sizeof(nnz_t);
  b += sym.bin_fill.capacity() * sizeof(nnz_t);
  b += sym.bin_home.capacity() * sizeof(int);
  return b;
}

}  // namespace

struct SpGemmExecutor::Impl {
  explicit Impl(ExecutorOptions o) : opts(o) {
    opts.cache_capacity = std::max<std::size_t>(opts.cache_capacity, 1);
    pool.set_budget_bytes(opts.mem_budget_bytes);
  }

  using EntryPtr = std::shared_ptr<const CachedPlanEntry>;

  ExecutorOptions opts;
  mutable std::mutex mu;  ///< cache + stats + samples + calibration state
  std::list<EntryPtr> lru;  ///< front = most recently used
  std::map<std::string, SpGemmFn> passthrough_fns;  ///< fixed non-pb ops
  ExecutorStats stats;
  std::vector<model::PerfSample> samples;
  bool calibrated = false;
  double cal_pb_efficiency = 0;
  double cal_column_latency_penalty = 0;
  pb::WorkspacePool pool;

  /// Cancellation epoch: every run links the epoch current at its start;
  /// cancel() fires it and swaps in a fresh one, so only in-flight runs
  /// unwind.  shared_ptr keeps a fired epoch alive until its last run
  /// finishes polling it.
  std::shared_ptr<CancelToken> epoch = std::make_shared<CancelToken>();

  /// Builds a run's stack token from the caller's RunOptions + the
  /// current epoch.  `token` must outlive the run (caller's stack).
  void arm_token(CancelToken& token, const RunOptions& ropts,
                 std::shared_ptr<CancelToken>& epoch_snapshot) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      epoch_snapshot = epoch;
    }
    token.link(epoch_snapshot.get());
    token.link(ropts.cancel);
    if (ropts.timeout.count() > 0) {
      token.set_timeout(ropts.timeout);
    } else if (ropts.deadline.time_since_epoch().count() != 0) {
      token.set_deadline(ropts.deadline);
    }
  }

  /// Strict-ingress validation (ExecutorOptions::validate_inputs).
  void validate_problem(const SpGemmProblem& p, const SpGemmOp& op) const {
    mtx::csr_validate_or_throw(p.a_csr, "SpGemmExecutor: operand A");
    mtx::csr_validate_or_throw(p.b_csr, "SpGemmExecutor: operand B");
    if (op.mask != nullptr) {
      mtx::csr_validate_or_throw(*op.mask, "SpGemmExecutor: mask");
    }
  }

  void count_cancelled() {
    const std::lock_guard<std::mutex> lock(mu);
    ++stats.cancelled;
  }

  // ---- cache primitives (callers hold no lock) ----------------------------

  EntryPtr find(const pb::StructureFingerprint& fp, const std::string& key) {
    const std::lock_guard<std::mutex> lock(mu);
    for (auto it = lru.begin(); it != lru.end(); ++it) {
      if ((*it)->key == key && (*it)->fp == fp) {
        lru.splice(lru.begin(), lru, it);
        return lru.front();
      }
    }
    return nullptr;
  }

  /// Value-only match: same op, same dims and nnz — the flop field (the
  /// one that needs an O(ncols) pass to recompute) is vouched for by the
  /// caller.
  EntryPtr find_values_only(const SpGemmProblem& p, const std::string& key) {
    const std::lock_guard<std::mutex> lock(mu);
    for (auto it = lru.begin(); it != lru.end(); ++it) {
      const pb::StructureFingerprint& fp = (*it)->fp;
      if ((*it)->key == key && fp.a_rows == p.a_csc.nrows &&
          fp.a_cols == p.a_csc.ncols && fp.b_rows == p.b_csr.nrows &&
          fp.b_cols == p.b_csr.ncols && fp.a_nnz == p.a_csc.nnz() &&
          fp.b_nnz == p.b_csr.nnz()) {
        lru.splice(lru.begin(), lru, it);
        return lru.front();
      }
    }
    return nullptr;
  }

  void insert(EntryPtr entry) {
    const std::lock_guard<std::mutex> lock(mu);
    // A racing thread may have analyzed the same (structure, op); replace
    // rather than hold duplicates.
    for (auto it = lru.begin(); it != lru.end(); ++it) {
      if ((*it)->key == entry->key && (*it)->fp == entry->fp) {
        drop(it);
        break;
      }
    }
    stats.cache_bytes += entry->bytes;
    ++stats.cache_entries;
    lru.push_front(std::move(entry));
    if (opts.cache_capacity_bytes > 0) {
      // Byte-budget mode: the entry count is unbounded; evict by cost.
      // Among the coldest few entries (LRU tail) the one whose plan is
      // cheapest to rebuild per byte it occupies goes first — an old but
      // expensive analysis of a huge structure outlives an equally old
      // cheap one.  The newest entry is always retained, so a single
      // over-budget plan still caches (the budget is a target, not a
      // hard cap).
      while (stats.cache_bytes > opts.cache_capacity_bytes &&
             lru.size() > 1) {
        const std::size_t window = std::min<std::size_t>(8, lru.size() - 1);
        auto victim = std::prev(lru.end());
        double victim_score = score(**victim);
        auto it = std::prev(lru.end());
        for (std::size_t i = 1; i < window; ++i) {
          --it;
          const double s = score(**it);
          if (s < victim_score) {
            victim = it;
            victim_score = s;
          }
        }
        evict(victim);
      }
    } else {
      while (lru.size() > opts.cache_capacity) {
        evict(std::prev(lru.end()));
      }
    }
  }

  /// Rebuild-cost density: seconds of analysis bought back per byte held.
  static double score(const CachedPlanEntry& e) {
    return e.plan_seconds / static_cast<double>(std::max<std::size_t>(e.bytes, 1));
  }

  /// Removes an entry, keeping the byte/entry accounting consistent.
  /// In-flight holders keep their shared_ptr; only the cache's claim on
  /// the footprint is released here.
  void drop(std::list<EntryPtr>::iterator it) {
    stats.cache_bytes -= (*it)->bytes;
    --stats.cache_entries;
    lru.erase(it);
  }

  void evict(std::list<EntryPtr>::iterator it) {
    stats.bytes_evicted += (*it)->bytes;
    ++stats.evictions;
    drop(it);
  }

  /// The selection model an analysis of `op` runs under: the op's
  /// tunables, with the derating constants replaced by calibrated values
  /// once a refit has run.
  model::SelectionModel effective_model(const SpGemmOp& op) {
    model::SelectionModel m = op.model;
    const std::lock_guard<std::mutex> lock(mu);
    if (calibrated) {
      m.pb_efficiency = cal_pb_efficiency;
      m.column_latency_penalty = cal_column_latency_penalty;
    }
    return m;
  }

  model::CalibrationResult calibrate_now() {
    std::vector<model::PerfSample> local;
    model::SelectionModel base;
    {
      const std::lock_guard<std::mutex> lock(mu);
      local = samples;
      if (calibrated) {
        base.pb_efficiency = cal_pb_efficiency;
        base.column_latency_penalty = cal_column_latency_penalty;
      }
    }
    const model::CalibrationResult r = base.calibrate(local);
    const std::lock_guard<std::mutex> lock(mu);
    if (r.changed) {
      calibrated = true;
      cal_pb_efficiency = base.pb_efficiency;
      cal_column_latency_penalty = base.column_latency_penalty;
      samples.clear();  // the next window measures the refitted model
      ++stats.calibrations;
    }
    return r;
  }

  // ---- analysis ------------------------------------------------------------

  /// Full analysis for one (structure, op): "auto" selection (mask-aware,
  /// with the structural-only masked nnz estimate), kernel resolution,
  /// and the PB symbolic build when the choice lands on pb.
  EntryPtr analyze(const SpGemmProblem& p, const SpGemmOp& op,
                   const std::string& key,
                   const pb::StructureFingerprint& fp) {
    Timer timer;
    mask_of(op).check_shape(p.result_rows(), p.result_cols(),
                            "SpGemmExecutor");

    // Planning must see the op's value-freeness (it legalizes the 8 B
    // key-only stream): derive it from the semiring registration when the
    // caller did not assert it.  Derived state stays out of the cache key —
    // it is a pure function of op.semiring, which is already keyed.
    pb::PbConfig pbcfg = op.pb;
    if (!pbcfg.value_free) pbcfg.value_free = semiring_value_free(op.semiring);

    auto entry = std::make_shared<CachedPlanEntry>();
    entry->fp = fp;
    entry->key = key;
    entry->op = op;
    entry->auto_requested = op.algo == "auto";

    std::string resolved = op.algo;
    if (entry->auto_requested) {
      const std::vector<nnz_t> row_flops = mtx::row_flops(p.a_csr, p.b_csr);
      const nnz_t nnz_est = pb::pb_estimate_nnz_c(row_flops, p.b_csr.ncols);
      const double cf = static_cast<double>(fp.flop) /
                        static_cast<double>(std::max<nnz_t>(nnz_est, 1));
      const AlgoInfo* hash = find_algorithm("hash");
      const bool hash_available =
          hash != nullptr && hash->supports_semiring(op.semiring);
      model::SelectionModel m = effective_model(op);
      m.pb_tuple_bytes = static_cast<double>(pb::bytes_per_tuple(
          pb::predict_tuple_format(p.a_csc.nrows, p.b_csr.ncols, fp.flop,
                                   pbcfg)));
      // Record the derating the prediction used: a later calibrate()
      // inverts predictions through this constant.
      entry->sel_pb_efficiency = m.pb_efficiency;
      entry->sel_column_latency_penalty = m.column_latency_penalty;
      model::MaskModel mm;
      if (op.mask != nullptr) {
        mm.present = true;
        mm.complement = op.complement;
        // Credit exactly the expand-time skip the pb path will run.
        mm.expand_skip = pb::engage_expand_mask(
            mask_of(op), pbcfg, p.a_csr.nrows, p.b_csr.ncols);
        mm.mask_nnz = op.mask->nnz();
        const double cells = static_cast<double>(p.a_csr.nrows) *
                             static_cast<double>(p.b_csr.ncols);
        if (cells > 0) {
          const double density =
              static_cast<double>(op.mask->nnz()) / cells;
          mm.kept_density = op.complement ? 1.0 - density : density;
        }
        if (!op.complement) {
          // Structural-only masked estimate: per-row caps make the
          // output bound strictly sharper than the global nnz(mask) min.
          mm.mask_nnz =
              std::min(mm.mask_nnz,
                       pb::pb_estimate_nnz_c_masked(row_flops, *op.mask));
          if (fp.flop > 0) {
            nnz_t covered = 0;
            for (index_t r = 0; r < p.a_csr.nrows; ++r) {
              if (op.mask->row_nnz(r) > 0) covered += row_flops[r];
            }
            mm.coverage = static_cast<double>(covered) /
                          static_cast<double>(fp.flop);
          }
        }
      }
      entry->choice =
          model::select_algorithm(cf, fp.flop, hash_available, m, mm);
      resolved = entry->choice.algo;
      entry->predicted_mflops = resolved == "pb"
                                    ? entry->choice.pb_mflops
                                    : entry->choice.column_mflops;
    }

    // Resolve through the registry even for pb: unknown names and
    // unsupported (algo, semiring) pairs fail here, at plan time.
    entry->fn = masked_semiring_algorithm(resolved, op.semiring, op.mask,
                                          op.complement);
    entry->resolved = std::move(resolved);
    entry->use_pb = entry->resolved == "pb";
    if (entry->use_pb) {
      const auto cap = static_cast<double>(opts.mem_budget_bytes);
      bool over_budget = false;
      // Cheap bound before paying the symbolic build: no stream format is
      // narrower than 8 B/tuple, so flop tuples that cannot fit even at
      // that width cannot fit at all.
      if (cap > 0 && static_cast<double>(fp.flop) * 8.0 > cap) {
        over_budget = true;
      } else {
        pb::SymbolicHints hints;
        hints.flop = fp.flop;
        entry->pb_plan = pb::pb_plan_build(p.a_csc, p.b_csr, pbcfg, hints);
        if (cap > 0) {
          // Exact requirement of the built plan: the full tuple stream
          // plus one max-bin sort scratch per thread, at the chosen
          // format's width.
          const pb::SymbolicResult& sym = entry->pb_plan.sym;
          const auto bpt = static_cast<double>(
              pb::bytes_per_tuple(sym.format));
          nnz_t max_bin = 0;
          for (const nnz_t f : sym.bin_fill) max_bin = std::max(max_bin, f);
          const double need =
              bpt * (static_cast<double>(sym.bin_offsets.back()) +
                     static_cast<double>(max_threads()) *
                         static_cast<double>(max_bin));
          over_budget = need > cap;
        }
      }
      if (over_budget) {
        // Graceful degradation: this (structure, op) serves through the
        // low-memory row-wise kernel instead of failing.  The downgrade
        // is a property of the cached plan — re-raising the budget means
        // a new executor (or larger cache pressure evicting the entry).
        const std::string fb = fallback_algo(op.semiring);
        entry->fn = masked_semiring_algorithm(fb, op.semiring, op.mask,
                                              op.complement);
        entry->resolved = fb;
        entry->use_pb = false;
        entry->degraded = true;
        entry->degrade_reason = "budget";
        entry->pb_plan = pb::PbPlan{};
        const std::lock_guard<std::mutex> lock(mu);
        ++stats.degraded_plans;
      }
    }
    entry->plan_seconds = timer.elapsed_s();
    entry->bytes = entry_bytes(*entry);
    return entry;
  }

  /// The cached entry for (p, op) — fingerprint, find, and on a miss
  /// analyze + insert — with the lookup counted as a cache hit or miss.
  EntryPtr resolve(const SpGemmProblem& p, const SpGemmOp& op,
                   const std::string& key, bool& hit) {
    const pb::StructureFingerprint fp =
        pb::StructureFingerprint::of(p.a_csc, p.b_csr);
    EntryPtr entry = find(fp, key);
    hit = entry != nullptr;
    if (!hit) {
      entry = analyze(p, op, key, fp);
      insert(entry);
    }
    const std::lock_guard<std::mutex> lock(mu);
    hit ? ++stats.cache_hits : ++stats.cache_misses;
    return entry;
  }

  // ---- execution -----------------------------------------------------------

  mtx::CsrMatrix execute_entry(const EntryPtr& entry, const SpGemmProblem& p,
                               RunInfo* info,
                               const CancelToken* cancel = nullptr,
                               const mtx::CsrMatrix* accumulate = nullptr) {
    Timer timer;
    mtx::CsrMatrix c;
    pb::PbTelemetry pb_stats;
    bool oom_fallback = false;
    if (entry->use_pb) {
      try {
        const std::unique_lock<std::mutex> dyn_lock =
            lock_dyn_semiring(entry->op.semiring);
        const pb::WorkspacePool::Lease lease = pool.acquire();
        // The epilogue rides INTO the kernels: an accumulation target
        // merges during CSR conversion (pb/output.hpp) and the post-op
        // applies in the per-bin filter stage — neither the plain product
        // nor the unpruned C is ever materialized.
        const pb::PbEpilogue epi{accumulate, entry->op.post_op};
        pb::PbResult r = pb::pb_execute_named(
            entry->op.semiring, p.a_csc, p.b_csr, entry->pb_plan,
            lease.workspace(), /*check_fingerprint=*/false,
            mask_of(entry->op), cancel, epi);
        pb_stats = r.stats;
        c = std::move(r.c);
      } catch (const std::bad_alloc&) {
        // Budget rejection, injected allocation fault, or the real thing.
        // The lease already returned (RAII above); degrade THIS run to the
        // row-wise fallback and keep the cached pb plan — a later, perhaps
        // less contended, run retries pb and stays bit-identical to a
        // fresh executor's.
        throw_if_stopped(cancel);
        const std::lock_guard<std::mutex> lock(mu);
        ++stats.oom_fallbacks;
        ++stats.degraded_runs;
        oom_fallback = true;
      }
    }
    if (!entry->use_pb) {
      c = run_unfused(entry->fn, entry->op, p, cancel, accumulate);
    } else if (oom_fallback) {
      c = run_unfused(masked_semiring_algorithm(
                          fallback_algo(entry->op.semiring), entry->op.semiring,
                          entry->op.mask, entry->op.complement),
                      entry->op, p, cancel, accumulate);
    }
    const double seconds = timer.elapsed_s();
    const double achieved =
        seconds > 0
            ? static_cast<double>(entry->fp.flop) / seconds / 1e6
            : 0.0;

    // Close the telemetry loop: unmasked "auto" executes feed the
    // calibration sample window (a mask changes both roofline bounds, so
    // masked pairs would fold the mask term into the derating constants).
    if (entry->auto_requested && entry->op.mask == nullptr && !oom_fallback &&
        entry->predicted_mflops > 0 && achieved > 0) {
      bool want_calibration = false;
      {
        const std::lock_guard<std::mutex> lock(mu);
        samples.push_back({entry->resolved, entry->choice.cf,
                           entry->predicted_mflops, achieved,
                           entry->sel_pb_efficiency,
                           entry->sel_column_latency_penalty});
        if (samples.size() > kMaxSamples) {
          samples.erase(samples.begin());
        }
        want_calibration = opts.calibrate_after > 0 && !calibrated &&
                           samples.size() >= opts.calibrate_after;
      }
      if (want_calibration) (void)calibrate_now();
    }

    if (info != nullptr) {
      fill_info(*info, *entry);
      info->achieved_mflops = achieved;
      if (entry->use_pb && !oom_fallback) info->pb_stats = pb_stats;
      if (oom_fallback) {
        info->algo = fallback_algo(entry->op.semiring);
        info->used_pb = false;
        info->degraded = true;
        info->degrade_reason = "oom";
      }
    }
    return c;
  }

  static void fill_info(RunInfo& info, const CachedPlanEntry& entry) {
    info.algo = entry.resolved;
    info.used_pb = entry.use_pb;
    info.degraded = entry.degraded;
    info.degrade_reason = entry.degrade_reason;
    info.flop = entry.fp.flop;
    info.plan_seconds = entry.plan_seconds;
    info.predicted_mflops = entry.predicted_mflops;
    info.choice = entry.choice;
  }

  SpGemmFn passthrough_fn(const SpGemmOp& op, const std::string& key) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      const auto it = passthrough_fns.find(key);
      if (it != passthrough_fns.end()) return it->second;
    }
    SpGemmFn fn = masked_semiring_algorithm(op.algo, op.semiring, op.mask,
                                            op.complement);
    const std::lock_guard<std::mutex> lock(mu);
    return passthrough_fns.emplace(key, std::move(fn)).first->second;
  }

  mtx::CsrMatrix run_passthrough(const SpGemmProblem& p, const SpGemmOp& op,
                                 RunInfo* info,
                                 const CancelToken* cancel = nullptr,
                                 const mtx::CsrMatrix* accumulate = nullptr) {
    mask_of(op).check_shape(p.result_rows(), p.result_cols(),
                            "SpGemmExecutor");
    // Fixed baseline kernels never fuse the epilogue: post-pass, same
    // result as the fused paths.
    mtx::CsrMatrix c = run_unfused(passthrough_fn(op, op_cache_key(op)), op,
                                   p, cancel, accumulate);
    {
      const std::lock_guard<std::mutex> lock(mu);
      ++stats.executes;
      ++stats.passthrough;
    }
    if (info != nullptr) {
      *info = RunInfo{};
      info->algo = op.algo;
      info->passthrough = true;
    }
    return c;
  }
};

SpGemmExecutor::SpGemmExecutor(ExecutorOptions opts)
    : impl_(std::make_unique<Impl>(opts)) {}

SpGemmExecutor::~SpGemmExecutor() = default;

mtx::CsrMatrix SpGemmExecutor::run_product(const SpGemmProblem& p,
                                           const SpGemmOp& op, RunInfo* info,
                                           bool values_only,
                                           const RunOptions& ropts,
                                           const mtx::CsrMatrix* accumulate) {
  Impl& im = *impl_;
  if (info != nullptr) *info = RunInfo{};  // no stale fields across reuses
  check_post_op(op, accumulate);
  if (im.opts.validate_inputs) im.validate_problem(p, op);

  // This run's token: RunOptions deadline/cancel + the executor's
  // cancel() epoch, all polled through one stack token.
  CancelToken token;
  std::shared_ptr<CancelToken> epoch_snapshot;
  im.arm_token(token, ropts, epoch_snapshot);

  try {
    if (is_passthrough(op)) {
      // A fixed baseline algorithm caches nothing beyond kernel
      // resolution: there is no analysis to reuse and no fingerprint to
      // verify.
      return im.run_passthrough(p, op, info, &token, accumulate);
    }

    const std::string key = op_cache_key(op);
    // With no structure on file for this op the value-only path falls
    // through to the full, fingerprinted one.
    Impl::EntryPtr entry =
        values_only ? im.find_values_only(p, key) : nullptr;
    const bool value_only = entry != nullptr;
    bool hit = value_only;
    if (!value_only) entry = im.resolve(p, op, key, hit);
    {
      const std::lock_guard<std::mutex> lock(im.mu);
      ++im.stats.executes;
      if (value_only) {
        ++im.stats.cache_hits;
        ++im.stats.value_only_hits;
      }
    }
    mtx::CsrMatrix c = im.execute_entry(entry, p, info, &token, accumulate);
    if (info != nullptr) {
      info->cache_hit = hit;
      info->value_only = value_only;
    }
    return c;
  } catch (const CancelledError&) {
    im.count_cancelled();
    throw;
  }
}

mtx::CsrMatrix SpGemmExecutor::run(const SpGemmProblem& p, const SpGemmOp& op,
                                   RunInfo* info) {
  return run(p, op, RunOptions{}, info);
}

mtx::CsrMatrix SpGemmExecutor::run(const SpGemmProblem& p, const SpGemmOp& op,
                                   const RunOptions& ropts, RunInfo* info) {
  return run_product(p, op, info, /*values_only=*/false, ropts);
}

mtx::CsrMatrix SpGemmExecutor::run(const SpGemmProblem& p, const SpGemmOp& op,
                                   const mtx::CsrMatrix& accumulate_into,
                                   RunInfo* info) {
  // The target threads into the execution itself: the pb path merges it
  // during CSR conversion (fused accumulate), the row-wise paths post-pass
  // through semiring_ewise_add — bit-identical by construction.
  return run_product(p, op, info, /*values_only=*/false, RunOptions{},
                     &accumulate_into);
}

mtx::CsrMatrix SpGemmExecutor::run_values_updated(const SpGemmProblem& p,
                                                  const SpGemmOp& op,
                                                  RunInfo* info) {
  return run_values_updated(p, op, RunOptions{}, info);
}

mtx::CsrMatrix SpGemmExecutor::run_values_updated(const SpGemmProblem& p,
                                                  const SpGemmOp& op,
                                                  const RunOptions& ropts,
                                                  RunInfo* info) {
  return run_product(p, op, info, /*values_only=*/true, ropts);
}

void SpGemmExecutor::cancel() {
  Impl& im = *impl_;
  std::shared_ptr<CancelToken> old;
  {
    const std::lock_guard<std::mutex> lock(im.mu);
    old = std::move(im.epoch);
    im.epoch = std::make_shared<CancelToken>();
  }
  old->request_cancel();
}

void SpGemmExecutor::prepare(const SpGemmProblem& p, const SpGemmOp& op,
                             RunInfo* info) {
  Impl& im = *impl_;
  check_post_op(op, nullptr);
  if (im.opts.validate_inputs) im.validate_problem(p, op);
  if (is_passthrough(op)) {
    mask_of(op).check_shape(p.result_rows(), p.result_cols(),
                            "SpGemmExecutor");
    Timer timer;
    (void)im.passthrough_fn(op, op_cache_key(op));  // throws on bad pairs
    // Fixed baseline plans still report the problem's flop, they just
    // never re-verify it.
    const pb::StructureFingerprint fp =
        pb::StructureFingerprint::of(p.a_csc, p.b_csr);
    if (info != nullptr) {
      *info = RunInfo{};
      info->algo = op.algo;
      info->passthrough = true;
      info->flop = fp.flop;
      info->plan_seconds = timer.elapsed_s();
    }
    return;
  }
  bool hit = false;
  const Impl::EntryPtr entry = im.resolve(p, op, op_cache_key(op), hit);
  if (info != nullptr) {
    *info = RunInfo{};
    Impl::fill_info(*info, *entry);
    info->cache_hit = hit;
  }
}

ExecutorStats SpGemmExecutor::stats() const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->stats;
}

pb::WorkspacePool::Stats SpGemmExecutor::pool_stats() const {
  return impl_->pool.stats();
}

pb::PbWorkspace::Stats SpGemmExecutor::workspace_stats() const {
  return impl_->pool.workspace_stats();
}

std::vector<model::PerfSample> SpGemmExecutor::samples() const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->samples;
}

model::SelectionModel SpGemmExecutor::selection_model() const {
  model::SelectionModel m;
  const std::lock_guard<std::mutex> lock(impl_->mu);
  if (impl_->calibrated) {
    m.pb_efficiency = impl_->cal_pb_efficiency;
    m.column_latency_penalty = impl_->cal_column_latency_penalty;
  }
  return m;
}

model::CalibrationResult SpGemmExecutor::calibrate() {
  return impl_->calibrate_now();
}

}  // namespace pbs
