// Table VII — NUMA local/remote bandwidth and latency, plus the library's
// own NUMA placement layer.
//
// The paper measures ~50 GB/s / 88 ns locally vs ~33 GB/s / 147 ns across
// Skylake sockets to explain Fig. 14.  This host exposes a single NUMA
// domain (README.md, "Host substitutions"), so the bench measures the local figures with the
// same methodology — a STREAM copy kernel for bandwidth and a
// pointer-chase over a cache-busting working set for latency — and reports
// remote access as unavailable.
//
// The second half reports what the placement layer does with the detected
// topology: pb_symbolic's bin→home-node partition (contiguous,
// flop-balanced) and a PB squaring through PbWorkspace::place_bins, whose
// tuple pool is first-touched bin-by-bin on each bin's home node.  On one
// node the partition is all zeros and place_bins degenerates to a
// parallel pre-fault — the multiply still validates the path end to end.
//
//   ./bench_table7_numa [--mb N] [--reps R] [--hops H] [--scale S]
//                       [--json out.json]
#include <numeric>
#include <random>

#include "bench_common.hpp"
#include "common/aligned_buffer.hpp"
#include "common/cache_info.hpp"
#include "common/numa.hpp"
#include "common/stream.hpp"
#include "matrix/convert.hpp"
#include "matrix/generate.hpp"
#include "pb/pb_spgemm.hpp"
#include "pb/symbolic.hpp"

namespace {

// Average load-to-use latency (ns) via a randomized pointer chase: each
// element holds the index of the next, so every load depends on the last.
double chase_latency_ns(std::size_t elements, std::int64_t hops) {
  pbs::AlignedBuffer<std::uint64_t> next(elements);
  std::vector<std::uint64_t> order(elements);
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 rng(99);
  std::shuffle(order.begin(), order.end(), rng);
  for (std::size_t i = 0; i + 1 < elements; ++i) next[order[i]] = order[i + 1];
  next[order[elements - 1]] = order[0];

  std::uint64_t p = order[0];
  pbs::Timer t;
  for (std::int64_t i = 0; i < hops; ++i) p = next[p];
  const double ns = t.elapsed_s() * 1e9 / static_cast<double>(hops);
  // Defeat dead-code elimination.
  if (p == ~0ull) std::cerr << "";
  return ns;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pbs;
  const bench::Args args(argc, argv);

  bench::print_header(
      "Table VII — NUMA local and cross-socket bandwidth / latency",
      "paper: 50.26 GB/s + 88.1 ns local, 33.36 GB/s + 147.4 ns remote");

  // Bandwidth: STREAM copy, all threads (the paper uses a STREAM copy
  // kernel with data pinned to one socket).
  const StreamResult local = run_stream(
      static_cast<std::size_t>(args.get_int("mb", 192)) * 1024 * 1024 /
          (3 * sizeof(double)),
      args.get_int("reps", 5));

  // Latency: pointer chase over 8x the last-level cache.
  const std::size_t working_set =
      std::max<std::size_t>(8 * cache_info().l3_bytes, 64u << 20);
  const double latency =
      chase_latency_ns(working_set / sizeof(std::uint64_t),
                       args.get_int("hops", 1 << 22));

  bench::Table t({"access", "bandwidth(GB/s)", "latency(ns)"});
  {
    std::ostringstream bw, lat;
    bw << std::setprecision(4) << local.copy_gbs;
    lat << std::setprecision(4) << latency;
    t.row_cells({"local (socket 0 -> socket 0)", bw.str(), lat.str()});
  }
  t.row_cells({"remote (socket 0 -> socket 1)", "n/a (single NUMA domain)",
               "n/a (single NUMA domain)"});
  t.print(std::cout);
  std::cout << "\n# On a real dual-socket host, rerun under `numactl "
               "--cpunodebind=1 --membind=0` to obtain the remote row.\n";

  // --- the library's placement layer on this topology ---------------------
  const NumaTopology& topo = numa_topology();
  std::cout << "\n# detected topology: " << topo.nnodes << " node(s), "
            << topo.cpu_to_node.size() << " cpu(s) mapped\n";

  const int scale = args.get_int("scale", 12);
  const mtx::CsrMatrix a = mtx::coo_to_csr(
      mtx::generate_er(mtx::RandomScale{scale, 8.0}, 7));
  const mtx::CscMatrix a_csc = mtx::csr_to_csc(a);
  const pb::SymbolicResult sym = pb::pb_symbolic(a_csc, a, pb::PbConfig{});

  std::vector<int> bins_per_node(static_cast<std::size_t>(sym.numa_nodes), 0);
  for (const int node : sym.bin_home) {
    ++bins_per_node[static_cast<std::size_t>(node)];
  }
  std::cout << "# bin->home partition over er-s" << scale << "^2: "
            << sym.layout.nbins << " bins across " << sym.numa_nodes
            << " node(s):";
  for (std::size_t n = 0; n < bins_per_node.size(); ++n) {
    std::cout << " node" << n << "=" << bins_per_node[n];
  }
  std::cout << "\n";

  // Exercise place_bins through a default PB squaring (its acquire path
  // first-touches the pool bin-by-bin on each bin's home node).
  const pb::PbResult placed = pb::pb_spgemm(a_csc, a);
  std::cout << "# squaring through place_bins: " << placed.stats.mflops()
            << " MFLOPS\n";

  bench::JsonSink json(args);
  if (json.enabled()) {
    json.add(bench::Json()
                 .field("bench", std::string("table7_numa"))
                 .field("kind", std::string("local"))
                 .field("copy_gbs", local.copy_gbs)
                 .field("latency_ns", latency)
                 .field("numa_nodes", static_cast<std::int64_t>(topo.nnodes))
                 .field("cpus_mapped",
                        static_cast<std::int64_t>(topo.cpu_to_node.size())));
    json.add(bench::Json()
                 .field("bench", std::string("table7_numa"))
                 .field("kind", std::string("placement"))
                 .field("input", "er-s" + std::to_string(scale))
                 .field("nbins", static_cast<std::int64_t>(sym.layout.nbins))
                 .field("bin_home_nodes",
                        static_cast<std::int64_t>(sym.numa_nodes))
                 .field("placed_mflops", placed.stats.mflops()));
  }
  return 0;
}
