// pbs_perfbench — the workload runner behind perfbench/run.py.
//
//   pbs_perfbench --stream-mb N
//       STREAM copy/triad over three arrays of N MiB each; prints one
//       JSON object.  run.py runs it in its own process before every
//       workload, so its arrays never count toward the workload's RSS.
//   pbs_perfbench --workload NAME --seed S --seconds T --trace 0|1
//                 --threads N --stream-gbs G --trace-out FILE ...
//       Runs one workload (the remaining parameters come from
//       workloads.json) and prints one JSON object: correct, attempted,
//       failed, metrics by name, and the host and context details.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>

#include "bench.hpp"
#include "common/cache_info.hpp"
#include "common/env_report.hpp"
#include "common/numa.hpp"
#include "common/parallel.hpp"
#include "common/stream.hpp"

namespace {

using namespace perfbench;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";  // run.py rejects the run
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void record_host(int threads, Result& out) {
  const pbs::EnvReport env = pbs::collect_env_report();
  const pbs::CacheInfo& c = pbs::cache_info();
  out.detail["host.cpu"] = env.cpu_model;
  out.detail["host.nproc"] = std::to_string(env.logical_cpus);
  out.detail["host.omp_threads"] = std::to_string(threads);
  out.detail["host.numa_nodes"] = std::to_string(pbs::numa_topology().nnodes);
  out.detail["host.l1d_bytes"] = std::to_string(c.l1d_bytes);
  out.detail["host.l2_bytes"] = std::to_string(c.l2_bytes);
  out.detail["host.llc_bytes"] = std::to_string(c.l3_bytes);
}

void print_result(const Result& r) {
  std::ostringstream os;
  os << "{\"correct\":" << (r.checks_passed && r.failed == 0 ? "true" : "false")
     << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
     << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : r.metrics) {
    os << (first ? "" : ",") << json_string(name) << ":" << json_number(value);
    first = false;
  }
  os << "},\"detail\":{";
  first = true;
  for (const auto& [name, value] : r.detail) {
    os << (first ? "" : ",") << json_string(name) << ":" << json_string(value);
    first = false;
  }
  os << "},\"errors\":[";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    os << (i ? "," : "") << json_string(r.errors[i]);
  }
  os << "]}\n";
  std::cout << os.str() << std::flush;
}

int run_stream(const Args& args) {
  // 0 sizes each array at four times the detected last-level cache, so
  // the figure is memory bandwidth and not cache bandwidth.
  constexpr std::size_t kMiB = std::size_t{1} << 20;
  std::size_t mb = static_cast<std::size_t>(args.num("stream-mb"));
  if (mb == 0) mb = std::max<std::size_t>(4 * pbs::cache_info().l3_bytes / kMiB, 64);
  const std::size_t elements = mb * kMiB / sizeof(double);
  const pbs::StreamResult s = pbs::run_stream(elements, 4, 0);
  std::cout << "{\"copy_gbs\":" << json_number(s.copy_gbs)
            << ",\"triad_gbs\":" << json_number(s.triad_gbs)
            << ",\"array_mb\":" << mb
            << ",\"threads\":" << pbs::max_threads()
            << ",\"llc_bytes\":" << pbs::cache_info().l3_bytes << "}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args(argc, argv);
    if (args.has("stream-mb")) return run_stream(args);

    const std::string workload = args.str("workload");
    const int threads = static_cast<int>(args.num("threads"));
    pbs::set_threads(threads);
    Tracer tracer(args.num("trace") != 0);
    Result out;
    record_host(threads, out);
    try {
      if (workload == "serve-mix") {
        run_serve_mix(args, tracer, out);
      } else {
        run_inproc(args, tracer, out);
      }
    } catch (const std::exception& e) {
      out.fail(std::string("workload aborted: ") + e.what());
    }
    if (tracer.enabled()) {
      tracer.write_jsonl(args.str("trace-out"));
      for (const auto& [name, ms] : tracer.median_self_ms()) {
        out.detail["self_ms." + name] = json_number(ms);
      }
      out.detail["trace.spans"] = std::to_string(tracer.size());
    }
    print_result(out);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "pbs_perfbench: " << e.what() << "\n";
    return 2;
  }
}
