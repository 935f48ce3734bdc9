// Triangle counting with masked SpGEMM — one of the paper's motivating
// graph-analytics workloads (Sec. I cites Azad/Buluç/Gilbert [2]).
//
// Algorithm: let L be the strictly lower-triangular part of the (pattern)
// adjacency matrix.  Each triangle {i > j > k} contributes exactly one to
// (L·L)(i,j) with (i,j) an edge of L, so
//
//     triangles = Σ ( (L·L) .* L )
//
//   ./triangle_counting [scale] [edge_factor]
//
// Runs on an R-MAT graph (skewed, like real social networks).  Two
// formulations are compared:
//   * multiply-then-Hadamard: full L·L with each registry algorithm, then
//     a separate masking pass;
//   * the fused masked descriptor (SpGemmOp{mask = L} through
//     SpGemmExecutor::run): the mask rides inside the kernel — PB drops
//     masked-out tuples at its compress stage (the telemetry reports how
//     many), the Gustavson row loops skip them outright — and "auto"
//     selection accounts for the mask's density.
#include <pbs/pbs.hpp>

#include <cstdlib>
#include <iostream>

namespace {

double count_triangles(const pbs::mtx::CsrMatrix& lower, const char* algo,
                       double* seconds) {
  pbs::Timer timer;
  const pbs::SpGemmProblem p = pbs::SpGemmProblem::square(lower);
  const pbs::mtx::CsrMatrix ll = pbs::algorithm(algo).fn(p);
  const double count = pbs::mtx::value_sum(pbs::mtx::hadamard(ll, lower));
  *seconds = timer.elapsed_s();
  return count;
}

// The fused alternative through the operation descriptor: SpGEMM
// restricted to the mask's pattern skips every product outside L and the
// separate Hadamard pass.
double count_triangles_masked(const pbs::mtx::CsrMatrix& lower,
                              const char* algo, double* seconds,
                              pbs::nnz_t* pb_dropped) {
  pbs::Timer timer;
  const pbs::SpGemmProblem p = pbs::SpGemmProblem::square(lower);
  pbs::SpGemmOp op;
  op.algo = algo;
  op.mask = &lower;
  pbs::SpGemmExecutor exec;
  pbs::RunInfo info;
  const double count = pbs::mtx::value_sum(exec.run(p, op, &info));
  *seconds = timer.elapsed_s();
  *pb_dropped = info.used_pb ? info.pb_stats.mask_dropped : 0;
  return count;
}

}  // namespace

int main(int argc, char** argv) {
  const int scale = argc > 1 ? std::atoi(argv[1]) : 14;
  const double edge_factor = argc > 2 ? std::atof(argv[2]) : 8.0;

  pbs::mtx::RmatParams params;
  params.scale = scale;
  params.edge_factor = edge_factor;
  params.seed = 7;

  std::cout << "Triangle counting on an R-MAT graph, scale " << scale
            << ", edge factor " << edge_factor << "\n";

  // Undirected graph: symmetrize the generator output, strip self-loops,
  // keep the pattern only.
  const pbs::mtx::CsrMatrix adj = pbs::mtx::to_pattern(pbs::mtx::drop_diagonal(
      pbs::mtx::symmetrize(pbs::mtx::coo_to_csr(pbs::mtx::generate_rmat(params)))));
  const pbs::mtx::CsrMatrix lower = pbs::mtx::tril(adj);
  std::cout << "graph: " << adj.nrows << " vertices, " << adj.nnz() / 2
            << " edges\n";

  const pbs::mtx::SquareStats stats = pbs::mtx::square_stats(lower);
  std::cout << "L^2: flop = " << stats.flops << ", cf = " << stats.cf
            << (stats.cf < 4 ? "  (cf < 4: PB's favourable regime)\n"
                             : "  (cf > 4: hash's favourable regime)\n");

  std::cout << "multiply-then-Hadamard:\n";
  for (const char* algo : {"pb", "hash", "heap"}) {
    double seconds = 0;
    const double triangles = count_triangles(lower, algo, &seconds);
    std::cout << "  " << algo << ": " << static_cast<long long>(triangles)
              << " triangles in " << seconds * 1e3 << " ms\n";
  }
  std::cout << "fused masked descriptor (SpGemmOp{mask = L}):\n";
  for (const char* algo : {"pb", "hash", "heap", "auto"}) {
    double seconds = 0;
    pbs::nnz_t dropped = 0;
    const double triangles =
        count_triangles_masked(lower, algo, &seconds, &dropped);
    std::cout << "  " << algo << ": " << static_cast<long long>(triangles)
              << " triangles in " << seconds * 1e3 << " ms";
    if (dropped > 0) {
      std::cout << "  (pb compress dropped " << dropped
                << " masked-out tuples)";
    }
    std::cout << "\n";
  }
  return 0;
}
