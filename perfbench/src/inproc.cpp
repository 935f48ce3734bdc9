// er-square and rmat-skew: C = A·A over plus_times through one
// SpGemmExecutor with the default ("auto") op, on a repeated structure —
// plus the per-layer measurements every traced run shares.
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "common/cache_info.hpp"
#include "common/parallel.hpp"
#include "matrix/convert.hpp"
#include "model/roofline.hpp"
#include "pb/expand.hpp"
#include "pb/output.hpp"
#include "pb/plan.hpp"
#include "pb/sort_compress.hpp"
#include "spgemm/executor.hpp"

namespace perfbench {

namespace {

using namespace pbs;

double ms(const Tracer& t, const char* name) {
  return median(t.durations(name)) * 1e3;
}

/// pb_execute's barrier sequence, called phase by phase through the pb
/// module's public functions on one plan and workspace.
mtx::CsrMatrix run_phases(const SpGemmProblem& p, const pb::PbPlan& plan,
                          pb::PbWorkspace& ws, Tracer& tracer) {
  const mtx::CscMatrix& a = p.a_csc;
  const mtx::CsrMatrix& b = p.b_csr;
  const pb::SymbolicResult& sym = plan.sym;
  const int nbins = sym.layout.nbins;
  const auto len = static_cast<std::size_t>(sym.bin_offsets.back());
  pb::SortCompressResult sc;
  switch (sym.format) {
    case pb::TupleFormat::kNarrow: {
      pb::NarrowStream s;
      {
        Tracer::Scope t(tracer, "pb.expand");
        s = ws.acquire_narrow(len);
        ws.place_bins(sym.bin_offsets, sym.bin_home, sym.format);
        pb::pb_expand_narrow<PlusTimes>(a, b, sym, plan.cfg, s.keys, s.vals);
      }
      {
        Tracer::Scope t(tracer, "pb.sort_compress");
        sc = pb::pb_sort_compress_narrow<PlusTimes>(
            s.keys, s.vals, sym.bin_offsets, sym.bin_fill, nbins, &ws, {},
            &sym.layout, sym.col_bits);
      }
      Tracer::Scope t(tracer, "pb.convert");
      return pb::pb_build_csr_narrow(s.keys, s.vals, sym.bin_offsets,
                                     sc.merged, sym.layout, sym.col_bits,
                                     a.nrows, b.ncols);
    }
    case pb::TupleFormat::kWide: {
      pb::Tuple* s = nullptr;
      {
        Tracer::Scope t(tracer, "pb.expand");
        s = ws.acquire(len);
        ws.place_bins(sym.bin_offsets, sym.bin_home, sym.format);
        pb::pb_expand<PlusTimes>(a, b, sym, plan.cfg, s);
      }
      {
        Tracer::Scope t(tracer, "pb.sort_compress");
        sc = pb::pb_sort_compress<PlusTimes>(s, sym.bin_offsets, sym.bin_fill,
                                             nbins, &ws);
      }
      Tracer::Scope t(tracer, "pb.convert");
      return pb::pb_build_csr(s, sym.bin_offsets, sc.merged, a.nrows,
                              b.ncols);
    }
    default:
      throw std::runtime_error(
          "phase sequence covers the narrow and wide formats only");
  }
}

/// Median MFLOPS of `reps` runs of `algo` on p through one executor.
double kernel_mflops(const SpGemmProblem& p, const std::string& algo,
                     nnz_t flop, int reps, Tracer& tracer, const char* span) {
  SpGemmExecutor exec;
  SpGemmOp op;
  op.algo = algo;
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    Tracer::Scope s(tracer, span);
    (void)exec.run(p, op);
    t.push_back(s.elapsed());
  }
  return static_cast<double>(flop) / median(std::move(t)) / 1e6;
}

}  // namespace

void measure_layers(const LayerInputs& in, Tracer& tracer, Result& out) {
  const mtx::CsrMatrix& a = *in.a;
  auto& m = out.metrics;

  // ---- matrix ----
  for (int r = 0; r < 3; ++r) {
    Tracer::Scope s(tracer, "matrix.csr_to_csc");
    (void)mtx::csr_to_csc(a);
  }
  for (int r = 0; r < 5; ++r) {
    Tracer::Scope s(tracer, "matrix.validate");
    if (!mtx::csr_validate(a)) out.fail("csr_validate rejected the input");
  }
  m["matrix.csr_to_csc_ms"] = ms(tracer, "matrix.csr_to_csc");
  m["matrix.validate_ms"] = ms(tracer, "matrix.validate");

  const SpGemmProblem p = SpGemmProblem::square(a);
  const SpGemmOp op;

  // ---- spgemm ----
  for (int r = 0; r < 5; ++r) {
    Tracer::Scope s(tracer, "spgemm.fingerprint");
    (void)pb::StructureFingerprint::of(p.a_csc, p.b_csr);
  }
  for (int r = 0; r < 3; ++r) {
    SpGemmExecutor fresh;
    Tracer::Scope s(tracer, "spgemm.prepare");
    fresh.prepare(p, op);
  }
  m["spgemm.fingerprint_ms"] = ms(tracer, "spgemm.fingerprint");
  m["spgemm.prepare_ms"] = ms(tracer, "spgemm.prepare");
  m["spgemm.run_ms"] = in.run_s * 1e3;

  // ---- pb: the executor forced to pb, pb_execute, and the phase
  // sequence, interleaved on one plan and workspace ----
  pb::PbPlan plan;
  for (int r = 0; r < 3; ++r) {
    Tracer::Scope s(tracer, "pb.plan_build");
    plan = pb::pb_plan_build(p.a_csc, p.b_csr, op.pb);
  }
  pb::PbWorkspace ws;
  SpGemmExecutor exec_pb;
  SpGemmOp op_pb;
  op_pb.algo = "pb";
  (void)exec_pb.run(p, op_pb);
  pb::PbResult ref = pb::pb_execute<PlusTimes>(p.a_csc, p.b_csr, plan, ws, false);
  int bitwise = 0;
  for (int r = 0; r < 3; ++r) {
    {
      Tracer::Scope s(tracer, "spgemm.run_pb");
      (void)exec_pb.run(p, op_pb);
    }
    {
      Tracer::Scope s(tracer, "pb.execute");
      ref = pb::pb_execute<PlusTimes>(p.a_csc, p.b_csr, plan, ws, false);
    }
    mtx::CsrMatrix phased;
    {
      Tracer::Scope s(tracer, "pb.phases");
      phased = run_phases(p, plan, ws, tracer);
    }
    // At more than one thread the barrier expand's flush order varies
    // between runs, and with it the order duplicates are summed in; the
    // bit-for-bit check runs at one thread below.
    ++out.attempted;
    if (same_product(phased, ref.c, 0.0)) {
      ++bitwise;
    } else if (!same_product(phased, ref.c, 1e-9)) {
      ++out.failed;
      out.fail("phase sequence differs from pb_execute");
    }
  }
  out.detail["pb.phases_bitwise_at_threads"] = std::to_string(bitwise) + "/3";
  const double exec_ms = ms(tracer, "pb.execute");
  const double expand_ms = ms(tracer, "pb.expand");
  const double sc_ms = ms(tracer, "pb.sort_compress");
  const double convert_ms = ms(tracer, "pb.convert");
  m["spgemm.overhead_ms"] = ms(tracer, "spgemm.run_pb") - exec_ms;
  m["pb.plan_build_ms"] = ms(tracer, "pb.plan_build");
  m["pb.execute_ms"] = exec_ms;
  m["pb.expand_ms"] = expand_ms;
  m["pb.sort_compress_ms"] = sc_ms;
  m["pb.convert_ms"] = convert_ms;
  m["pb.unattributed_ms"] = exec_ms - (expand_ms + sc_ms + convert_ms);

  // Bandwidth from pb_execute's Table III byte model over the times the
  // phase calls took: computed, not counted.
  const pb::PbTelemetry tm = ref.stats;
  const auto gbs = [](double bytes, double t_ms) {
    return t_ms > 0 ? bytes / (t_ms * 1e-3) / 1e9 : 0.0;
  };
  m["pb.expand_gbs"] = gbs(tm.expand.bytes, expand_ms);
  m["pb.sort_compress_gbs"] = gbs(tm.sort.bytes + tm.compress.bytes, sc_ms);
  m["pb.convert_gbs"] = gbs(tm.convert.bytes, convert_ms);
  for (const char* phase : {"expand", "sort_compress", "convert"}) {
    m[std::string("pb.") + phase + "_stream_frac"] =
        m[std::string("pb.") + phase + "_gbs"] / in.stream_gbs;
  }
  const double stream_bytes = static_cast<double>(plan.sym.bin_offsets.back()) *
                              tm.tuple_bytes();
  m["pb.flop"] = static_cast<double>(tm.flop);
  m["pb.nnz_c"] = static_cast<double>(tm.nnz_c);
  m["pb.cf"] = tm.cf();
  m["pb.tuple_bytes"] = tm.tuple_bytes();
  m["pb.stream_mb"] = stream_bytes / (1024.0 * 1024.0);
  const auto llc = static_cast<double>(cache_info().l3_bytes);
  m["pb.stream_over_llc"] = llc > 0 ? stream_bytes / llc : 0;

  // Plain single-threaded baseline of the same plan, where the phase
  // sequence must reproduce pb_execute bit for bit.
  {
    const ThreadCountGuard one(1);
    {
      Tracer::Scope s(tracer, "pb.single_thread");
      ref = pb::pb_execute<PlusTimes>(p.a_csc, p.b_csr, plan, ws, false);
    }
    Tracer off(false);
    ++out.attempted;
    if (!same_product(run_phases(p, plan, ws, off), ref.c, 0.0)) {
      ++out.failed;
      out.fail("one-thread phase sequence differs from pb_execute bitwise");
    }
  }
  const double t1_ms = ms(tracer, "pb.single_thread");
  m["pb.single_thread_ms"] = t1_ms;
  m["pb.parallel_eff"] = t1_ms / (in.threads * exec_ms);

  // ---- model: selection audit against the kernels auto did not pick ----
  const double flop = static_cast<double>(tm.flop);
  std::map<std::string, double> mflops;
  mflops["pb"] = flop / (ms(tracer, "spgemm.run_pb") * 1e-3) / 1e6;
  mflops["hash"] = kernel_mflops(p, "hash", tm.flop, 2, tracer, "spgemm.run_hash");
  mflops["heap"] = kernel_mflops(p, "heap", tm.flop, 2, tracer, "spgemm.run_heap");
  const double chosen = flop / in.run_s / 1e6;
  double best_other = 0;
  for (const auto& [algo, v] : mflops) {
    out.detail["model.mflops." + algo] = std::to_string(v);
    if (algo != in.chosen_algo) best_other = std::max(best_other, v);
  }
  out.detail["model.chosen"] = in.chosen_algo;
  m["model.choice_regret"] = best_other / chosen;
  m["model.pred_over_achieved"] = in.predicted_mflops / chosen;
  const auto est = pb::pb_estimate_nnz_c(p.a_csc, p.b_csr);
  m["model.cf_est_over_actual"] =
      est > 0 ? static_cast<double>(tm.nnz_c) / static_cast<double>(est) : 0;
  const double bound_mflops =
      in.stream_gbs *
      model::ai_outer_lower_tuple(tm.cf(), model::kDefaultBytesPerNnz,
                                  tm.tuple_bytes()) *
      1e3;
  m["model.roofline_frac"] = chosen / bound_mflops;
}

void run_inproc(const Args& args, Tracer& tracer, Result& out) {
  const double seconds = args.real("seconds");
  const int threads = static_cast<int>(args.num("threads"));
  const int setups = static_cast<int>(args.num("setups"));
  const mtx::CsrMatrix a = generate_operand(
      args.str("kind"), static_cast<int>(args.num("scale")), args.real("ef"),
      static_cast<std::uint64_t>(args.num("seed")));
  out.detail["input.rows"] = std::to_string(a.nrows);
  out.detail["input.nnz"] = std::to_string(a.nnz());
  const SpGemmOp op;

  // ---- set-up, several times: CSR→CSC, executor, first run cold ----
  std::unique_ptr<SpGemmProblem> p;
  std::unique_ptr<SpGemmExecutor> exec;
  std::vector<double> setup_s;
  RunInfo info;
  nnz_t nnz_c = -1;
  for (int k = 0; k < setups; ++k) {
    exec.reset();
    p.reset();
    mtx::CsrMatrix c;
    const auto t0 = Clock::now();
    {
      Tracer::Scope s(tracer, "setup");
      {
        Tracer::Scope t(tracer, "spgemm.problem");
        p = std::make_unique<SpGemmProblem>(SpGemmProblem::square(a));
      }
      exec = std::make_unique<SpGemmExecutor>();
      Tracer::Scope t(tracer, "spgemm.first_run");
      c = exec->run(*p, op, &info);
    }
    setup_s.push_back(seconds_since(t0));
    ++out.attempted;
    if (nnz_c < 0) nnz_c = c.nnz();
    if (c.nnz() != nnz_c) {
      ++out.failed;
      out.fail("set-up products differ in nnz");
    }
  }

  // ---- timed loop.  A traced run alternates recorded and unrecorded
  // multiplies, so the difference is the tracing overhead. ----
  Tracer off(false);
  std::vector<double> lat, lat_traced;
  double flop_done = 0;
  std::int64_t completed = 0;
  mtx::CsrMatrix last;
  const auto loop0 = Clock::now();
  for (std::int64_t i = 0;; ++i) {
    Tracer& t = tracer.enabled() && i % 2 == 1 ? tracer : off;
    ++out.attempted;
    mtx::CsrMatrix c;
    bool ran = false;
    try {
      Tracer::Scope req(t, "multiply", t.enabled() ? t.next_request() : -1);
      Tracer::Scope s(t, "spgemm.run");
      c = exec->run(*p, op, &info);
      (t.enabled() ? lat_traced : lat).push_back(s.elapsed());
      ran = true;
    } catch (const std::exception& e) {
      out.fail(std::string("run threw: ") + e.what());
    }
    if (ran && c.nnz() == nnz_c) {
      ++completed;
      flop_done += static_cast<double>(info.flop);
    } else {
      ++out.failed;
      if (ran) out.fail("product nnz changed between runs");
    }
    if (seconds_since(loop0) >= seconds && i >= 3) {
      last = std::move(c);
      break;
    }
  }
  const double wall = seconds_since(loop0);
  const double rss = peak_rss_mb();

  // ---- output check: the timed result against the hash kernel ----
  ++out.attempted;
  if (!same_product(last, hash_spgemm(*p), 1e-9)) {
    ++out.failed;
    out.fail("product differs from the hash kernel's");
  }
  last = {};
  // The expanded stream next to the last-level cache it is meant to
  // outgrow.
  if (info.used_pb) {
    out.detail["pb.stream_bytes"] = std::to_string(
        static_cast<double>(info.flop) * info.pb_stats.tuple_bytes());
    out.detail["pb.llc_bytes"] = std::to_string(cache_info().l3_bytes);
  }
  out.detail["algo"] = info.algo;
  out.detail["flop"] = std::to_string(info.flop);
  out.detail["nnz_c"] = std::to_string(nnz_c);

  if (!tracer.enabled()) {
    out.metrics["mflops"] = flop_done / wall / 1e6;
    out.metrics["requests_per_s"] = static_cast<double>(completed) / wall;
    out.metrics["setup_s"] = median(setup_s);
    out.metrics["peak_rss_mb"] = rss;
    latency_metrics(lat, out);
    return;
  }

  const ExecutorStats st = exec->stats();
  const pb::WorkspacePool::Stats ps = exec->pool_stats();
  out.metrics["spgemm.cache_hit_ratio"] = st.hit_ratio();
  out.metrics["spgemm.value_only_ratio"] =
      st.executes > 0 ? static_cast<double>(st.value_only_hits) / st.executes : 0;
  out.metrics["spgemm.pool_reuse_ratio"] =
      ps.leases > 0 ? static_cast<double>(ps.reused) / ps.leases : 0;
  out.metrics["trace.overhead_frac"] = median(lat_traced) / median(lat) - 1.0;
  exec.reset();
  p.reset();

  LayerInputs in;
  in.a = &a;
  in.threads = threads;
  in.stream_gbs = args.real("stream-gbs");
  in.run_s = median(tracer.durations("spgemm.run"));
  in.chosen_algo = info.algo;
  in.predicted_mflops = info.predicted_mflops;
  measure_layers(in, tracer, out);
  measure_serve_probe(a, args.str("socket"), tracer, out);
}

}  // namespace perfbench
