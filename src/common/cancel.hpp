#pragma once

// Cooperative cancellation + deadlines for long-running SpGEMM runs.
//
// A CancelToken is configured (deadline, parent links) before it is
// shared with worker threads; after that only the atomic cancel flag
// mutates.  Hot loops poll stop_requested(), which throttles the
// steady_clock read through a thread_local counter so the expand inner
// loop never contends on a shared cache line.  Phase boundaries call
// throw_if_stopped(), which reads the clock unconditionally and raises
// the typed error (DeadlineError if the deadline passed, else
// CancelledError).

#include <atomic>
#include <chrono>
#include <cstdint>

#include "errors.hpp"

namespace pbs {

class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  // Fire the token.  const so shared `const CancelToken*` handles can
  // still cancel (the flag is mutable by design).
  void request_cancel() const noexcept {
    cancelled_.store(true, std::memory_order_release);
  }

  // --- configuration: call before sharing the token across threads ---

  void set_deadline(std::chrono::steady_clock::time_point tp) noexcept {
    deadline_ = tp;
    has_deadline_ = true;
  }

  void set_timeout(std::chrono::nanoseconds d) noexcept {
    set_deadline(std::chrono::steady_clock::now() + d);
  }

  // Link a parent: this token reports stopped when the parent does.
  // At most two parents (caller token + executor epoch token).
  void link(const CancelToken* parent) noexcept {
    if (parent == nullptr) return;
    if (parents_[0] == nullptr) {
      parents_[0] = parent;
    } else if (parents_[1] == nullptr) {
      parents_[1] = parent;
    }
  }

  // --- polling ---

  bool cancel_requested() const noexcept {
    if (cancelled_.load(std::memory_order_acquire)) return true;
    for (const CancelToken* p : parents_)
      if (p != nullptr && p->cancel_requested()) return true;
    return false;
  }

  bool deadline_expired() const noexcept {
    if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_)
      return true;
    for (const CancelToken* p : parents_)
      if (p != nullptr && p->deadline_expired()) return true;
    return false;
  }

  bool has_deadline() const noexcept {
    if (has_deadline_) return true;
    for (const CancelToken* p : parents_)
      if (p != nullptr && p->has_deadline()) return true;
    return false;
  }

  // Hot-loop check: flag every call, clock every 64th call per thread.
  bool stop_requested() const noexcept {
    if (cancel_requested()) return true;
    if (!has_deadline()) return false;
    thread_local std::uint32_t poll = 0;
    if ((++poll & 63u) != 0) return false;
    return deadline_expired();
  }

  void throw_if_stopped() const {
    if (deadline_expired())
      throw DeadlineError("spgemm run exceeded its deadline");
    if (cancel_requested())
      throw CancelledError("spgemm run was cancelled");
  }

 private:
  mutable std::atomic<bool> cancelled_{false};
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  const CancelToken* parents_[2] = {nullptr, nullptr};
};

inline bool stop_requested(const CancelToken* t) noexcept {
  return t != nullptr && t->stop_requested();
}

inline void throw_if_stopped(const CancelToken* t) {
  if (t != nullptr) t->throw_if_stopped();
}

}  // namespace pbs
