// Masked triangle-counting sweep: the fused masked descriptor
// (SpGemmOp{mask = L} through SpGemmExecutor::run) vs the unfused
// multiply-then-Hadamard formulation, per algorithm, on R-MAT graphs.
//
//   triangles = Σ ( (L·L) .* L ),  L = strict lower triangle of the
//   pattern adjacency matrix
//
// The fused path restricts the product to L's pattern inside the kernel —
// PB drops masked-out tuples at its compress stage (reported below as
// `dropped`), the Gustavson row loops skip them outright — so it writes
// nnz((L·L) .* L) instead of nnz(L·L) and never runs the Hadamard pass.
//
//   ./bench_masked_triangle [--scales 11,12,13] [--efs 8] [--reps 5]
//                           [--warmup 1] [--algos pb,hash,heap,auto]
//                           [--json FILE]
#include "bench_common.hpp"

#include "matrix/convert.hpp"
#include "matrix/generate.hpp"
#include "matrix/ops.hpp"
#include "spgemm/executor.hpp"
#include "spgemm/op.hpp"

namespace {

using namespace pbs;
using namespace pbs::bench;

mtx::CsrMatrix make_lower(int scale, double ef) {
  mtx::RmatParams params;
  params.scale = scale;
  params.edge_factor = ef;
  params.seed = 7;
  const mtx::CsrMatrix adj = mtx::to_pattern(mtx::drop_diagonal(
      mtx::symmetrize(mtx::coo_to_csr(mtx::generate_rmat(params)))));
  return mtx::tril(adj);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const std::vector<int> scales = args.get_int_list("scales", {11, 12, 13});
  const std::vector<int> efs = args.get_int_list("efs", {8});
  const int reps = args.get_int("reps", 5);
  const int warmup = args.get_int("warmup", 1);
  const std::vector<std::string> algos =
      args.get_string_list("algos", {"pb", "hash", "heap", "auto"});
  JsonSink sink(args);

  print_header("masked triangle counting — fused descriptor vs multiply-then-Hadamard",
               "fused: SpGemmOp{mask = L} through the executor; unfused: "
               "full L*L then pattern filter");
  Table table({"scale", "ef", "algo", "resolved", "fused_ms", "unfused_ms",
               "speedup", "dropped", "triangles"});

  for (const int scale : scales) {
    for (const int ef : efs) {
      const mtx::CsrMatrix lower = make_lower(scale, static_cast<double>(ef));
      const SpGemmProblem p = SpGemmProblem::square(lower);
      const nnz_t flop = mtx::count_flops(lower, lower);

      for (const std::string& algo : algos) {
        // Fused: one descriptor, prepared once and run repeatedly through
        // the executor's cached plan (analysis paid once — the
        // architecture's steady state).
        SpGemmOp op;
        op.algo = algo;
        op.mask = &lower;
        SpGemmExecutor exec;
        RunInfo info;
        exec.prepare(p, op, &info);
        double triangles = 0;
        const RunStats fused = measure_seconds(
            [&] { triangles = mtx::value_sum(exec.run(p, op, &info)); },
            reps, warmup);
        const nnz_t dropped = info.used_pb ? info.pb_stats.mask_dropped : 0;

        // Unfused: the same concrete algorithm's full product, then the
        // value-safe masking pass (pattern_filter — what hadamard with a
        // pattern mask computes).  "auto" resolves to the masked plan's
        // choice so both sides run the same kernel family.
        const AlgoInfo& unfused_algo = algorithm(info.algo);
        double triangles_unfused = 0;
        const RunStats unfused = measure_seconds(
            [&] {
              triangles_unfused = mtx::value_sum(
                  mtx::pattern_filter(unfused_algo.fn(p), lower));
            },
            reps, warmup);

        const double speedup = fused.min > 0 ? unfused.min / fused.min : 0.0;
        table.row(scale, ef, algo, info.algo, fused.min * 1e3,
                  unfused.min * 1e3, speedup, dropped,
                  static_cast<long long>(triangles));
        if (triangles != triangles_unfused) {
          std::cerr << "MISMATCH: fused " << triangles << " vs unfused "
                    << triangles_unfused << "\n";
          return 1;
        }
        Json record;
        record.field("bench", std::string("masked_triangle"))
            .field("scale", static_cast<std::int64_t>(scale))
            .field("ef", static_cast<std::int64_t>(ef))
            .field("algo", algo)
            .field("resolved", info.algo)
            .field("flop", static_cast<std::int64_t>(flop))
            .field("fused_ms", fused.min * 1e3)
            .field("unfused_ms", unfused.min * 1e3)
            .field("speedup", speedup)
            .field("mask_dropped", static_cast<std::int64_t>(dropped))
            .field("triangles", static_cast<std::int64_t>(triangles));
        sink.add(record);
      }
    }
  }
  table.print(std::cout);
  return 0;
}
