// Fig. 14 — the dual-socket (full machine) configuration: the same
// ER/R-MAT sweep as Figs. 7/9 but with every hardware thread instead of one
// socket.
//
// The paper's finding: on two NUMA sockets PB loses its edge on R-MAT
// because bins allocated on one socket get sorted by threads on the other,
// paying the ~33 GB/s cross-socket bandwidth of Table VII.  This host has a
// single NUMA domain (README.md, "Host substitutions"): the *code path* (all threads, shared
// bins) is exercised, but the cross-socket penalty cannot manifest — the
// bench reports that explicitly so readers do not over-interpret the rows.
#include "bench_sweeps.hpp"

int main(int argc, char** argv) {
  using namespace pbs;
  const bench::Args args(argc, argv);

  set_threads(max_threads());  // "both sockets": everything the host has

  for (const auto kind :
       {bench::MatrixKind::kEr, bench::MatrixKind::kRmat}) {
    bench::run_random_sweep(
        std::string("Fig. 14 — full-machine performance, ") +
            (kind == bench::MatrixKind::kEr ? "ER" : "R-MAT") +
            " (paper: dual-socket Skylake; this host: single NUMA domain, "
            "substitution per README \"Host substitutions\")",
        kind, args);
    std::cout << "\n";
  }
  return 0;
}
