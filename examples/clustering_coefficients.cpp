// Local clustering coefficients — another graph-analytics workload from
// the paper's introduction (Sec. I lists "clustering coefficients" next to
// triangle counting).
//
//   cc(v) = 2 · triangles(v) / (deg(v) · (deg(v) − 1))
//
// Per-vertex triangle counts come from one masked SpGEMM: with A the
// undirected adjacency pattern, (A·A).*A counts, for every edge (u,v), the
// common neighbours of u and v; the row sums of that matrix are
// 2·triangles(v).  Everything here is public-API plumbing around the
// masked SPA kernel, spgemm_semiring with an output mask.
//
//   ./clustering_coefficients [scale] [edge_factor]
#include <pbs/pbs.hpp>

#include <cstdlib>
#include <iostream>
#include <vector>

int main(int argc, char** argv) {
  const int scale = argc > 1 ? std::atoi(argv[1]) : 13;
  const double edge_factor = argc > 2 ? std::atof(argv[2]) : 8.0;

  pbs::mtx::RmatParams params;
  params.scale = scale;
  params.edge_factor = edge_factor;
  params.seed = 31;
  const pbs::mtx::CsrMatrix adj = pbs::mtx::to_pattern(pbs::mtx::drop_diagonal(
      pbs::mtx::symmetrize(pbs::mtx::coo_to_csr(pbs::mtx::generate_rmat(params)))));
  const pbs::index_t n = adj.nrows;

  std::cout << "Clustering coefficients on an R-MAT graph: " << n
            << " vertices, " << adj.nnz() / 2 << " edges\n";

  pbs::Timer timer;
  const pbs::mtx::CsrMatrix wedge_closures =
      pbs::spgemm_semiring<pbs::PlusTimes>(adj, adj, {&adj, false});
  const std::vector<pbs::value_t> tri2 = pbs::mtx::row_sums(wedge_closures);
  const double spgemm_ms = timer.elapsed_ms();

  // Per-vertex coefficient + distribution summary.
  double total_cc = 0;
  pbs::index_t eligible = 0;
  std::vector<int> histogram(10, 0);
  for (pbs::index_t v = 0; v < n; ++v) {
    const auto deg = static_cast<double>(adj.row_nnz(v));
    if (deg < 2) continue;
    const double cc = tri2[v] / (deg * (deg - 1.0));
    total_cc += cc;
    ++eligible;
    const int bucket = std::min(9, static_cast<int>(cc * 10));
    ++histogram[bucket];
  }

  const double triangles =
      pbs::mtx::value_sum(wedge_closures) / 6.0;  // each counted 6x in A·A.*A
  std::cout << "triangles: " << static_cast<long long>(triangles)
            << ", average clustering coefficient: "
            << (eligible ? total_cc / eligible : 0.0) << " (over " << eligible
            << " vertices with degree >= 2)\n";
  std::cout << "cc distribution (deciles):";
  for (const int h : histogram) std::cout << " " << h;
  std::cout << "\nmasked SpGEMM time: " << spgemm_ms << " ms\n";
  return 0;
}
