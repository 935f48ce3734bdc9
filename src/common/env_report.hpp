// Machine/environment description printed at the top of every bench run so
// that bench numbers are traceable to a concrete configuration (README.md,
// "Host substitutions").
#pragma once

#include <iosfwd>
#include <string>

namespace pbs {

struct EnvReport {
  std::string cpu_model;
  int logical_cpus = 0;
  int omp_max_threads = 0;
  std::size_t l1d_bytes = 0;
  std::size_t l2_bytes = 0;
  std::size_t l3_bytes = 0;
};

/// Gathers /proc/cpuinfo + cache + OpenMP facts.
EnvReport collect_env_report();

/// Pretty-prints as a comment block ("# cpu: ...").
void print_env_report(std::ostream& os, const EnvReport& report);

}  // namespace pbs
