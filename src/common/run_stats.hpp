// Summary statistics over repeated benchmark runs.
#pragma once

#include <vector>

namespace pbs {

/// min / median / mean / max / stddev of a sample set.  The bench harness
/// reports the *minimum* time (best run) for FLOPS, like the paper's
/// STREAM-style methodology, but keeps the spread so a reported number
/// carries its noise (README.md, "Host substitutions").
struct RunStats {
  double min = 0, median = 0, mean = 0, max = 0, stddev = 0;
  int n = 0;

  static RunStats of(std::vector<double> samples);
};

}  // namespace pbs
