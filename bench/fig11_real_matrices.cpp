// Fig. 11 — squaring the twelve Table VI matrices, sorted by ascending
// compression factor (the paper's x-axis), with the four algorithms.
//
// Expected shape (paper Secs. V-B, VI): PB-SpGEMM wins on matrices with
// cf < 4 (everything left of 'offshore'); HashSpGEMM takes over on the
// high-cf FEM matrices (cant, hood) where the expanded Cˆ costs PB 2·flop
// extra traffic.
//
// Real SuiteSparse .mtx files are used when PBS_MATRIX_DIR (or --dir) is
// set; otherwise the structured surrogates (README.md, "Host
// substitutions") stand in, shrunk by --shrink (default 12) to laptop
// scale.
#include "bench_common.hpp"
#include "matrix/surrogates.hpp"

int main(int argc, char** argv) {
  using namespace pbs;
  const bench::Args args(argc, argv);
  const double shrink = args.get_double("shrink", 12.0);
  const int reps = args.get_int("reps", 3);
  const int warmup = args.get_int("warmup", 2);
  const std::string dir = args.get_string("dir", "");
  const auto algo_names = args.get_string_list(
      "algos", {"pb", "heap", "hash", "hashvec"});

  bench::print_header(
      "Fig. 11 — A^2 on the Table VI suite, ascending compression factor",
      dir.empty()
          ? "surrogate matrices (README \"Host substitutions\"), shrink " + std::to_string(shrink)
          : "real matrices from " + dir);

  bench::Table t([&] {
    std::vector<std::string> h{"matrix", "cf(paper)", "cf(meas)", "flop"};
    for (const auto& a : algo_names) h.push_back(a + "(MF/s)");
    h.push_back("winner");
    return h;
  }());

  for (const mtx::SuiteEntry& entry : mtx::table6_sorted_by_cf()) {
    const mtx::SuiteMatrix sm = mtx::load_suite_matrix(
        entry, shrink, dir.empty() ? std::nullopt : std::optional(dir));
    const SpGemmProblem problem = SpGemmProblem::square(sm.matrix);
    const nnz_t flop = mtx::count_flops(sm.matrix, sm.matrix);
    const nnz_t nnzc = mtx::symbolic_nnz(sm.matrix, sm.matrix);
    const double cf = nnzc > 0 ? static_cast<double>(flop) / nnzc : 0.0;

    std::vector<double> mflops;
    for (const auto& name : algo_names) {
      mflops.push_back(
          bench::algo_mflops(algorithm(name), problem, flop, reps, warmup));
    }
    const std::size_t win = static_cast<std::size_t>(
        std::max_element(mflops.begin(), mflops.end()) - mflops.begin());

    std::vector<std::string> cells{entry.name};
    auto num = [](double v) {
      std::ostringstream ss;
      ss << std::setprecision(4) << v;
      return ss.str();
    };
    cells.push_back(num(entry.cf));
    cells.push_back(num(cf));
    cells.push_back(std::to_string(flop));
    for (const double m : mflops) cells.push_back(num(m));
    cells.push_back(algo_names[win]);
    t.row_cells(std::move(cells));
  }
  t.print(std::cout);
  std::cout << "\n# paper's conclusion: PB wins for cf < 4, hash wins for "
               "cf > 4\n";
  return 0;
}
