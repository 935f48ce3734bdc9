// Fig. 10 — R-MAT matrices on platform 2 (paper: POWER9; here: the same
// host — substitution per README.md, "Host substitutions").
#include "bench_sweeps.hpp"

int main(int argc, char** argv) {
  const pbs::bench::Args args(argc, argv);
  pbs::bench::run_random_sweep(
      "Fig. 10 — R-MAT matrices on platform 2 (paper: POWER9; here: same "
      "host, substitution per README \"Host substitutions\")",
      pbs::bench::MatrixKind::kRmat, args);
  return 0;
}
