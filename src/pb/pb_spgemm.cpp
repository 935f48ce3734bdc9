#include "pb/pb_spgemm_impl.hpp"

#include <algorithm>

#include "common/numa.hpp"
#include "common/parallel.hpp"
#include "spgemm/op.hpp"

namespace pbs::pb {

namespace {

// One write per page is enough to bind it; 0 is safe anywhere in the pool
// (tuple contents are undefined until expand overwrites them, and region
// padding is alignment slack by contract).
void touch_pages(std::byte* begin, std::byte* end) {
  constexpr std::size_t kPage = 4096;
  for (std::byte* p = begin; p < end;
       p += kPage - reinterpret_cast<std::uintptr_t>(p) % kPage) {
    *p = std::byte{0};
  }
}

}  // namespace

void PbWorkspace::place_bins(std::span<const nnz_t> bin_offsets,
                             std::span<const int> bin_home,
                             TupleFormat format) {
  if (!fresh_ || bin_offsets.size() < 2) return;
  fresh_ = false;
  const auto nbins = bin_offsets.size() - 1;
  const auto total = static_cast<std::size_t>(bin_offsets[nbins]);
  std::byte* base = buf_.data();

  // Byte ranges of bin b in the pool: one per lane of the format's stream
  // (the AoS tuples, or the key block and, unless key-only, the value
  // block that follows it).
  auto touch_bin = [&](std::size_t b) {
    visit(format, [&]<typename St>(St) {
      St::carve(base, total).for_each_lane(
          static_cast<std::size_t>(bin_offsets[b]),
          static_cast<std::size_t>(bin_offsets[b + 1]), touch_pages);
    });
  };

  // Each bin is touched by exactly ONE thread — a thread on the bin's
  // home node when that node has one in this team, any thread round-robin
  // otherwise — so the pass is race-free (TSan-clean) and the faults are
  // spread across the team even on a single node.
  std::vector<int> thread_node(static_cast<std::size_t>(max_threads()), 0);
  parallel_team([&](Team& team) {
    const auto tid = static_cast<std::size_t>(team.id());
    const auto nthreads = static_cast<std::size_t>(team.size());
    thread_node[tid] = current_numa_node();
    team.barrier();
    int my_rank = 0;   // rank among the team's threads on my node
    int node_cnt = 0;  // how many of them there are
    int max_node = 0;
    for (std::size_t t = 0; t < nthreads; ++t) {
      if (thread_node[t] == thread_node[tid]) {
        if (t < tid) ++my_rank;
        ++node_cnt;
      }
      max_node = std::max(max_node, thread_node[t]);
    }
    std::vector<char> node_present(static_cast<std::size_t>(max_node) + 1, 0);
    for (std::size_t t = 0; t < nthreads; ++t)
      node_present[static_cast<std::size_t>(thread_node[t])] = 1;
    std::size_t on_node = 0;     // bins whose home node is mine
    std::size_t homeless = 0;    // bins whose home node has no thread here
    for (std::size_t b = 0; b < nbins; ++b) {
      const int home = b < bin_home.size() ? bin_home[b] : 0;
      const bool home_present =
          home >= 0 && home <= max_node &&
          node_present[static_cast<std::size_t>(home)] != 0;
      if (home_present) {
        if (home != thread_node[tid]) continue;
        if (static_cast<int>(on_node++ % static_cast<std::size_t>(node_cnt)) ==
            my_rank) {
          touch_bin(b);
        }
      } else if (homeless++ % nthreads == tid) {
        touch_bin(b);
      }
    }
  });
}

// The runtime-semiring bridge (spgemm/op.hpp): pb_spgemm_named reaches
// these for any semiring registered at runtime.
template PbResult pb_spgemm<DynSemiring>(const mtx::CscMatrix&,
                                         const mtx::CsrMatrix&,
                                         const PbConfig&);
template PbResult pb_spgemm<DynSemiring>(const mtx::CscMatrix&,
                                         const mtx::CsrMatrix&,
                                         const PbConfig&, PbWorkspace&);

template PbResult pb_spgemm<PlusTimes>(const mtx::CscMatrix&,
                                       const mtx::CsrMatrix&, const PbConfig&);
template PbResult pb_spgemm<MinPlus>(const mtx::CscMatrix&,
                                     const mtx::CsrMatrix&, const PbConfig&);
template PbResult pb_spgemm<MaxMin>(const mtx::CscMatrix&,
                                    const mtx::CsrMatrix&, const PbConfig&);
template PbResult pb_spgemm<BoolOrAnd>(const mtx::CscMatrix&,
                                       const mtx::CsrMatrix&, const PbConfig&);
template PbResult pb_spgemm<PlusTimes>(const mtx::CscMatrix&,
                                       const mtx::CsrMatrix&, const PbConfig&,
                                       PbWorkspace&);
template PbResult pb_spgemm<MinPlus>(const mtx::CscMatrix&,
                                     const mtx::CsrMatrix&, const PbConfig&,
                                     PbWorkspace&);
template PbResult pb_spgemm<MaxMin>(const mtx::CscMatrix&,
                                    const mtx::CsrMatrix&, const PbConfig&,
                                    PbWorkspace&);
template PbResult pb_spgemm<BoolOrAnd>(const mtx::CscMatrix&,
                                       const mtx::CsrMatrix&, const PbConfig&,
                                       PbWorkspace&);

PbResult pb_spgemm(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                   const PbConfig& cfg) {
  PbWorkspace workspace;
  return pb_spgemm<PlusTimes>(a, b, cfg, workspace);
}

PbResult pb_spgemm(const mtx::CscMatrix& a, const mtx::CsrMatrix& b,
                   const PbConfig& cfg, PbWorkspace& workspace) {
  return pb_spgemm<PlusTimes>(a, b, cfg, workspace);
}

PbResult pb_spgemm_named(const std::string& semiring, const mtx::CscMatrix& a,
                         const mtx::CsrMatrix& b, const PbConfig& cfg,
                         PbWorkspace& workspace) {
  return dispatch_semiring_any(semiring, [&]<typename S>() {
    return pb_spgemm<S>(a, b, cfg, workspace);
  });
}

}  // namespace pbs::pb
