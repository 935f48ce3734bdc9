#include "common/stream.hpp"

#include <algorithm>

#include "common/aligned_buffer.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"

namespace pbs {

double StreamResult::best_gbs() const {
  return std::max({copy_gbs, scale_gbs, add_gbs, triad_gbs});
}

namespace {

// Bytes moved per element, per kernel (read + write traffic), as defined by
// the reference STREAM benchmark.
constexpr double kCopyBytes = 2.0 * sizeof(double);
constexpr double kScaleBytes = 2.0 * sizeof(double);
constexpr double kAddBytes = 3.0 * sizeof(double);
constexpr double kTriadBytes = 3.0 * sizeof(double);

}  // namespace

StreamResult run_stream(std::size_t elements, int ntimes, int threads) {
  if (threads <= 0) threads = max_threads();
  ThreadCountGuard guard(threads);

  AlignedBuffer<double> a(elements), b(elements), c(elements);
  const double scalar = 3.0;

  parallel_for(Static{}, elements, [&](std::size_t i) noexcept {
    a[i] = 1.0;
    b[i] = 2.0;
    c[i] = 0.0;
  });

  double best_copy = 0, best_scale = 0, best_add = 0, best_triad = 0;
  Timer t;
  for (int iter = 0; iter < ntimes; ++iter) {
    t.reset();
    parallel_for(Static{}, elements,
                 [&](std::size_t i) noexcept { c[i] = a[i]; });
    best_copy = std::max(best_copy, kCopyBytes * elements / t.elapsed_s());

    t.reset();
    parallel_for(Static{}, elements,
                 [&](std::size_t i) noexcept { b[i] = scalar * c[i]; });
    best_scale = std::max(best_scale, kScaleBytes * elements / t.elapsed_s());

    t.reset();
    parallel_for(Static{}, elements,
                 [&](std::size_t i) noexcept { c[i] = a[i] + b[i]; });
    best_add = std::max(best_add, kAddBytes * elements / t.elapsed_s());

    t.reset();
    parallel_for(Static{}, elements, [&](std::size_t i) noexcept {
      a[i] = b[i] + scalar * c[i];
    });
    best_triad = std::max(best_triad, kTriadBytes * elements / t.elapsed_s());
  }

  constexpr double kGiga = 1e9;
  return StreamResult{best_copy / kGiga, best_scale / kGiga, best_add / kGiga,
                      best_triad / kGiga};
}

}  // namespace pbs
