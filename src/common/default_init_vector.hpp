// Storage for the index and value arrays of sparse matrices (CSR colids /
// vals, CSC rowids / vals).
//
// std::vector value-initializes what `resize` adds.  For a trivial T that
// is a serial zero-fill which also page-faults every new page on the
// calling thread — for a product C, 12 B per entry written by one core
// before a parallel producer overwrites all of it, and with the pages
// then owned by that core's NUMA node.  DefaultInitAllocator
// default-initializes instead, which for a trivial T writes nothing: the
// allocation stays untouched until the threads that produce the entries
// first-touch their own pages.
//
// The contract that buys this: whoever sizes such an array writes every
// element before the array escapes.  Builds without NDEBUG poison new
// elements with all-0xFF bytes (a NaN for double, -1 for index_t), so a
// site that still relied on zero-filling shows up in the Debug and
// sanitizer test runs instead of reading zeros by luck.
#pragma once

#include <algorithm>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace pbs {

/// std::allocator whose value-less construct default-initializes; every
/// other construct falls through allocator_traits to std::construct_at.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  using value_type = T;
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  DefaultInitAllocator() noexcept = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
#ifndef NDEBUG
    if constexpr (std::is_trivially_copyable_v<U>) {
      std::memset(static_cast<void*>(p), 0xFF, sizeof(U));
    }
#endif
  }
};

/// A std::vector over DefaultInitAllocator.  It converts implicitly *to*
/// a plain std::vector<T> (a copy), so code that holds a matrix's arrays
/// as std::vector<T> — perfbench's serve-mix copies a reference's values
/// that way — keeps compiling.  There is deliberately no conversion
/// *from* std::vector<T>: a producer builds its output in this type, so
/// no site pays a hidden full copy on the way in.
template <typename T>
struct DefaultInitVector : std::vector<T, DefaultInitAllocator<T>> {
  using Base = std::vector<T, DefaultInitAllocator<T>>;
  using Base::Base;

  operator std::vector<T>() const {
    return std::vector<T>(this->begin(), this->end());
  }

  friend bool operator==(const DefaultInitVector& a,
                         const DefaultInitVector& b) {
    return static_cast<const Base&>(a) == static_cast<const Base&>(b);
  }
  friend bool operator==(const DefaultInitVector& a, const std::vector<T>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
};

}  // namespace pbs
