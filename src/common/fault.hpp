#pragma once

// Deterministic fault injection for robustness testing, compiled into
// all builds (the disabled fast path is one relaxed atomic load).
//
// Three fault families:
//   - nth-allocation failure: FaultInjector::fail_alloc_after(n) makes
//     the (n+1)-th budgeted workspace allocation throw
//     FaultInjectedAllocError (one-shot: the injector disarms after
//     firing so a retry on the same executor succeeds).
//   - phase-boundary throws: FaultInjector::throw_at(point, skip)
//     makes the (skip+1)-th crossing of that FaultPoint throw
//     FaultInjectedError (also one-shot).
//   - forced-slow bins: FaultInjector::slow_bin(ms) sleeps every
//     sort/compress bin task, for deadline/cancel stress tests.
//
// Env activation (read once, on first hook crossing):
//   PBS_FAULT_ALLOC_AFTER=N
//   PBS_FAULT_THROW_AT=point[:skip]   point in {plan_build, expand,
//                                     sort_compress, convert}
//   PBS_FAULT_SLOW_BIN_MS=MS

#include <cstddef>
#include <cstdint>

namespace pbs {

enum class FaultPoint : int {
  kPlanBuild = 0,
  kExpand = 1,
  kSortCompress = 2,
  kConvert = 3,
};
inline constexpr int kNumFaultPoints = 4;

const char* fault_point_name(FaultPoint p) noexcept;

class FaultInjector {
 public:
  // True once any fault is armed (API or env).  Relaxed fast path.
  static bool enabled() noexcept;

  // --- arming (tests / CLI) ---
  static void fail_alloc_after(std::int64_t n) noexcept;
  static void throw_at(FaultPoint p, std::int64_t skip = 0) noexcept;
  static void slow_bin(std::uint32_t ms) noexcept;
  static void reset() noexcept;

  // --- hooks (library call sites) ---

  // Budgeted workspace allocation about to happen.  Throws
  // FaultInjectedAllocError when the armed countdown hits zero.
  static void on_alloc(std::size_t bytes) {
    if (!enabled()) return;
    on_alloc_slow(bytes);
  }

  // Phase boundary crossed (outside any parallel region).  Throws
  // FaultInjectedError when the armed countdown hits zero.
  static void at(FaultPoint p) {
    if (!enabled()) return;
    at_slow(p);
  }

  // Per-bin work item about to run; sleeps when slow-bin is armed.
  static void on_bin() {
    if (!enabled()) return;
    on_bin_slow();
  }

 private:
  static void on_alloc_slow(std::size_t bytes);
  static void at_slow(FaultPoint p);
  static void on_bin_slow();
};

}  // namespace pbs
