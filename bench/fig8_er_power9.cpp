// Fig. 8 — ER random matrices on platform 2.
//
// The paper's second platform is an IBM POWER9; no second ISA is available
// in this environment, so this bench reruns the identical sweep on the host
// and stands as the platform-2 data point (substitution documented in
// README.md, "Host substitutions").  The paper's POWER9 finding is qualitative — "PB-SpGEMM
// performs better than column SpGEMM algorithms and its performance remains
// relatively stable" — which is exactly what this rerun can (dis)confirm.
#include "bench_sweeps.hpp"

int main(int argc, char** argv) {
  const pbs::bench::Args args(argc, argv);
  pbs::bench::run_random_sweep(
      "Fig. 8 — ER matrices on platform 2 (paper: POWER9; here: same host, "
      "substitution per README \"Host substitutions\")",
      pbs::bench::MatrixKind::kEr, args);
  return 0;
}
