// Table VI — the statistics of the real-matrix suite: n, nnz, d, flop,
// nnz(C) and compression factor of A².  Prints the paper's published values
// next to the values measured on the matrices actually used (real files if
// PBS_MATRIX_DIR/--dir is set, surrogates otherwise), so the surrogate
// fidelity is auditable.
#include "bench_common.hpp"
#include "matrix/surrogates.hpp"

int main(int argc, char** argv) {
  using namespace pbs;
  const bench::Args args(argc, argv);
  const double shrink = args.get_double("shrink", 12.0);
  const std::string dir = args.get_string("dir", "");

  bench::print_header(
      "Table VI — evaluation-matrix statistics (paper vs this build)",
      dir.empty() ? "surrogates at shrink " + std::to_string(shrink) +
                        " (set PBS_MATRIX_DIR for real SuiteSparse files)"
                  : "real matrices from " + dir);

  bench::Table t({"matrix", "n", "nnz", "d", "cf(paper)", "n(meas)",
                  "nnz(meas)", "d(meas)", "flop(meas)", "nnzC(meas)",
                  "cf(meas)", "maxdeg", "flop-imb", "source"});
  for (const mtx::SuiteEntry& e : mtx::table6_suite()) {
    const mtx::SuiteMatrix sm = mtx::load_suite_matrix(
        e, shrink, dir.empty() ? std::nullopt : std::optional(dir));
    const mtx::SquareStats s = mtx::square_stats(sm.matrix);
    const mtx::DegreeStats ds = mtx::degree_stats(sm.matrix);
    t.row(e.name, e.n, e.nnz, e.d, e.cf, s.n, s.nnz, s.d, s.flops, s.nnz_c,
          s.cf, ds.max_degree, ds.flop_imbalance,
          sm.from_file ? "file" : "surrogate");
  }
  t.print(std::cout);
  std::cout << "\n# surrogate recipes and the offshore nnz(C) typo "
               "correction: see README \"Host substitutions\" and "
               "src/matrix/surrogates.*\n";
  return 0;
}
