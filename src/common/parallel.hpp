// The library's one parallel layer: every OpenMP construct of the project
// is in this header, and the kernels call the helpers below.
//
//   parallel_for(sched, n, body[, cancel])     body(i), i in [0, n)
//   parallel_reduce(sched, n, id, body, combine)
//       body(acc, i) folds into one partial per thread (each starting at
//       `id`); partials combine in thread-id order, so under Static{} the
//       result depends only on the thread count.
//   parallel_team(body[, cancel])              body(team) on every thread;
//       Team gives id()/size(), work-shared loops (for_each ends in a
//       barrier, for_each_nowait does not), barrier(), and run(step).
//
// Schedules are OpenMP's static, dynamic and guided, picked at compile
// time by the tag type (Dynamic and Guided carry a chunk size).  There is
// no runtime schedule on purpose: schedule(runtime) reads process-global
// state that concurrent executor runs would share.
//
// Errors and cancellation, the same in every helper: a throw from a loop
// body (or a team.run step) is caught on its thread, the first one is
// kept and every later iteration is skipped; with a CancelToken each
// iteration first polls it and a fired token skips the rest.  After the
// join the kept exception is rethrown, else the token's typed error
// (DeadlineError / CancelledError) is raised if it fired.  A `noexcept`
// body run without a token compiles to the bare loop.  In a team, code
// outside the loops must not throw before the thread's last barrier
// (teammates would wait there forever): wrap such steps in team.run().
// Everything is a template over the body: no std::function, no
// allocation, no barrier the pragma would not have.
#pragma once

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <type_traits>
#include <utility>

#include "common/cancel.hpp"

namespace pbs {

/// Number of threads an upcoming parallel region will use.
inline int max_threads() { return omp_get_max_threads(); }

/// Caps the global OpenMP thread count (used by scalability benches).
inline void set_threads(int n) { omp_set_num_threads(std::max(1, n)); }

/// RAII guard that temporarily overrides the OpenMP thread count.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int n) : saved_(omp_get_max_threads()) {
    omp_set_num_threads(std::max(1, n));
  }
  ~ThreadCountGuard() { omp_set_num_threads(saved_); }
  ThreadCountGuard(const ThreadCountGuard&) = delete;
  ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;

 private:
  int saved_;
};

/// Schedule tags: Static deals one contiguous block per thread; Dynamic
/// and Guided hand out `chunk`-iteration (minimum) chunks on demand.
struct Static {};
struct Dynamic {
  int chunk = 1;
};
struct Guided {
  int chunk = 1;
};

namespace detail {

// Orphaned worksharing loops without the closing barrier, one per kind.
template <typename I, typename F>
void ws_for(Static, I n, F&& f) {
#pragma omp for schedule(static) nowait
  for (I i = 0; i < n; ++i) f(i);
}

template <typename I, typename F>
void ws_for(Dynamic s, I n, F&& f) {
  const int chunk = std::max(1, s.chunk);
#pragma omp for schedule(dynamic, chunk) nowait
  for (I i = 0; i < n; ++i) f(i);
}

template <typename I, typename F>
void ws_for(Guided s, I n, F&& f) {
  const int chunk = std::max(1, s.chunk);
#pragma omp for schedule(guided, chunk) nowait
  for (I i = 0; i < n; ++i) f(i);
}

/// Shared error state of one parallel region (see the file comment).
class RegionErrors {
 public:
  explicit RegionErrors(const CancelToken* cancel) : cancel_(cancel) {}

  /// Called from a catch block: keeps the first exception, stops the rest.
  void capture() noexcept {
    if (!claimed_.exchange(true, std::memory_order_acq_rel))
      error_ = std::current_exception();
    stop_.store(true, std::memory_order_relaxed);
  }

  /// A worksharing loop under the protocol: the bare loop for a noexcept
  /// body when no token is polled, else skip-once-stopped and catch.
  template <typename Sched, typename I, typename F>
  void loop(Sched s, I n, F& body) {
    if constexpr (std::is_nothrow_invocable_v<F&, I>) {
      if (cancel_ == nullptr) return ws_for(s, n, body);
    }
    ws_for(s, n, [&](I i) noexcept {
      if (stop_.load(std::memory_order_relaxed) || stop_requested(cancel_))
        return;
      try {
        body(i);
      } catch (...) {
        capture();
      }
    });
  }

  /// After the join: rethrow the kept exception or the token's error.
  void finish() const {
    if (error_ != nullptr) std::rethrow_exception(error_);
    throw_if_stopped(cancel_);
  }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<bool> claimed_{false};
  std::exception_ptr error_;
  const CancelToken* cancel_;
};

}  // namespace detail

/// One thread's view of a parallel_team region.
class Team {
 public:
  Team(detail::RegionErrors& err, int id, int size)
      : err_(err), id_(id), size_(size) {}

  [[nodiscard]] int id() const noexcept { return id_; }
  [[nodiscard]] int size() const noexcept { return size_; }

  /// Work-shared loop over [0, n) closing with a barrier; every thread of
  /// the team must reach it.
  template <typename Sched, typename I, typename F>
  void for_each(Sched s, I n, F&& body) {
    err_.loop(s, n, body);
    barrier();
  }

  /// Work-shared loop over [0, n) without the closing barrier.
  template <typename Sched, typename I, typename F>
  void for_each_nowait(Sched s, I n, F&& body) {
    err_.loop(s, n, body);
  }

  /// Runs `step` on this thread under the error protocol: a throw is kept
  /// and stops the region's loops.  Returns false if it threw.
  template <typename F>
  bool run(F&& step) noexcept {
    try {
      step();
      return true;
    } catch (...) {
      err_.capture();
      return false;
    }
  }

  void barrier() noexcept {
#pragma omp barrier
  }

 private:
  detail::RegionErrors& err_;
  int id_;
  int size_;
};

/// Runs `body(i)` for every i in [0, n) across the thread team.
template <typename Sched, typename I, typename F>
void parallel_for(Sched s, I n, F&& body, const CancelToken* cancel = nullptr) {
  detail::RegionErrors err(cancel);
#pragma omp parallel
  err.loop(s, n, body);
  err.finish();
}

/// Runs `body(team)` on every thread of a new team.
template <typename F>
void parallel_team(F&& body, const CancelToken* cancel = nullptr) {
  detail::RegionErrors err(cancel);
#pragma omp parallel
  {
    Team team(err, omp_get_thread_num(), omp_get_num_threads());
    team.run([&] { body(team); });
  }
  err.finish();
}

/// See the file comment; copying `identity` and `combine` must not throw.
template <typename Sched, typename I, typename T, typename F, typename C>
T parallel_reduce(Sched s, I n, T identity, F&& body, C&& combine) {
  T result = identity;
  detail::RegionErrors err(nullptr);
#pragma omp parallel
  {
    T local = identity;
    auto step = [&](I i) noexcept(std::is_nothrow_invocable_v<F&, T&, I>) {
      body(local, i);
    };
    err.loop(s, n, step);
    // schedule(static, 1) over the team size hands iteration t to thread
    // t, and `ordered` runs the folds in iteration order.
    const int nt = omp_get_num_threads();
#pragma omp for ordered schedule(static, 1) nowait
    for (int t = 0; t < nt; ++t) {
#pragma omp ordered
      result = combine(std::move(result), std::move(local));
    }
  }
  err.finish();
  return result;
}

}  // namespace pbs
