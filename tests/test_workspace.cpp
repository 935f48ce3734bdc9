#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "pb/pb_spgemm.hpp"
#include "spgemm/spgemm.hpp"
#include "test_util.hpp"

namespace pbs::pb {
namespace {

TEST(Workspace, GrowsGeometricallyAndReuses) {
  PbWorkspace ws;
  EXPECT_EQ(ws.capacity(), 0u);  // capacity() reports pooled bytes
  Tuple* p1 = ws.acquire(100);
  ASSERT_NE(p1, nullptr);
  EXPECT_GE(ws.capacity(), 100u * sizeof(Tuple));
  const std::size_t cap1 = ws.capacity();
  // Smaller request: same buffer, no growth.
  Tuple* p2 = ws.acquire(50);
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(ws.capacity(), cap1);
  // Larger request: grows at least geometrically.
  ws.acquire(cap1 / sizeof(Tuple) + 1);
  EXPECT_GE(ws.capacity(), cap1 + cap1 / 2);
}

TEST(Workspace, MixedFormatMultipliesReuseOnePool) {
  // One workspace serving wide, key-only and f32 plans back to back: after
  // the largest stream is paid for, every later acquire is a reuse.
  PbWorkspace ws;
  const mtx::CsrMatrix m = testutil::exact_er(300, 300, 5.0, 94);
  const SpGemmProblem p = SpGemmProblem::square(m);

  PbConfig wide_cfg;
  wide_cfg.format = FormatPolicy::kWide;
  const PbResult wide = pb_spgemm<BoolOrAnd>(p.a_csc, p.b_csr, wide_cfg, ws);
  const std::size_t cap = ws.capacity();
  ws.reset_stats();

  const PbResult keyonly =
      pb_spgemm<BoolOrAnd>(p.a_csc, p.b_csr, PbConfig{}, ws);
  EXPECT_EQ(keyonly.stats.format, TupleFormat::kKeyOnly);
  PbConfig f32_cfg;
  f32_cfg.format = FormatPolicy::kF32;
  const PbResult f32 = pb_spgemm<BoolOrAnd>(p.a_csc, p.b_csr, f32_cfg, ws);
  EXPECT_EQ(f32.stats.format, TupleFormat::kNarrowF32);

  EXPECT_EQ(ws.capacity(), cap);  // 8 B streams never outgrow the 16 B one
  const PbWorkspace::Stats s = ws.stats();
  EXPECT_EQ(s.allocations, 0u);
  EXPECT_GE(s.reuses, 2u);
  EXPECT_TRUE(equal_exact(wide.c, keyonly.c));
  EXPECT_TRUE(equal_exact(wide.c, f32.c));
}

TEST(Workspace, StatsCountGrowShrinkGrowSequences) {
  PbWorkspace ws;
  ws.acquire(1000);  // grow
  ws.acquire(10);    // shrink: served from pool
  ws.acquire(1000);  // back to peak: still served from pool
  PbWorkspace::Stats s = ws.stats();
  EXPECT_EQ(s.acquires, 3u);
  EXPECT_EQ(s.allocations, 1u);
  EXPECT_EQ(s.reuses, 2u);
  EXPECT_EQ(s.peak_request, 1000u);

  ws.acquire(5000);  // beyond capacity: second allocation
  s = ws.stats();
  EXPECT_EQ(s.allocations, 2u);
  EXPECT_EQ(s.peak_request, 5000u);

  ws.reset_stats();
  s = ws.stats();
  EXPECT_EQ(s.acquires, 0u);
  EXPECT_EQ(s.allocations, 0u);
  EXPECT_EQ(ws.capacity(), 5000u * sizeof(Tuple));  // the pool is retained
}

/// Byte ranges of a stream's lanes for tuples [0, n): the AoS tuples, or
/// the key array then the value array.
template <typename St>
std::vector<std::pair<std::byte*, std::byte*>> lanes(const St& s,
                                                     std::size_t n) {
  std::vector<std::pair<std::byte*, std::byte*>> out;
  s.for_each_lane(0, n, [&](std::byte* lo, std::byte* hi) {
    out.emplace_back(lo, hi);
  });
  return out;
}

/// Bytes each format must reserve for n tuples: keys padded to a cache
/// line, then the values; key-only nothing past its 8 B keys.
std::size_t expected_bytes(TupleFormat f, std::size_t n) {
  const std::size_t key_lines =
      (n * 4 + kCacheLineBytes - 1) / kCacheLineBytes * kCacheLineBytes;
  if (f == TupleFormat::kWide) return n * 16;
  if (f == TupleFormat::kNarrow) return key_lines + n * 8;
  if (f == TupleFormat::kKeyOnly) return n * 8;
  return key_lines + n * 4;  // kNarrowF32
}

// Every stream policy leases from the same byte pool: each reserves
// exactly its format's bytes — key-only no value bytes at all — reuses a
// pool any format at least as wide sized, and gets one scratch slot per
// thread.
class WorkspaceStream
    : public ::testing::TestWithParam<testutil::StreamFormat> {};

TEST_P(WorkspaceStream, ReservesExactlyItsFormatsBytes) {
  visit(GetParam().format, [&]<typename St>(St) {
    for (const std::size_t n : {1001u, 1024u}) {
      PbWorkspace ws;
      const St s = ws.acquire<St>(n);
      EXPECT_EQ(ws.capacity(), expected_bytes(St::kFormat, n)) << n;
      const auto ls = lanes(s, n);
      const bool soa_values =
          !std::is_same_v<St, WideStream> && St::kHasValues;
      ASSERT_EQ(ls.size(), soa_values ? 2u : 1u);
      // Lanes start line-aligned, the value lane after the key span.
      std::size_t lane_bytes = 0;
      for (const auto& [lo, hi] : ls) {
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(lo) % kCacheLineBytes, 0u);
        lane_bytes += static_cast<std::size_t>(hi - lo);
      }
      EXPECT_EQ(lane_bytes, n * St::kBytes);
      if (soa_values) EXPECT_GE(ls[1].first, ls[0].second);
    }
    if constexpr (!St::kHasValues) {
      // No hidden value reserve: n keys cost half a wide lease.
      PbWorkspace ws;
      (void)ws.acquire<St>(1024);
      EXPECT_LT(ws.capacity(), 1024u * sizeof(Tuple));
    }
  });
}

TEST_P(WorkspaceStream, ReusesAPoolAnyWiderFormatSized) {
  visit(GetParam().format, [&]<typename St>(St) {
    for (const testutil::StreamFormat first : testutil::all_stream_formats()) {
      visit(first.format, [&]<typename First>(First) {
        SCOPED_TRACE(to_string(first.format));
        PbWorkspace ws;
        const First f = ws.acquire<First>(1024);
        const std::size_t cap = ws.capacity();
        const St s = ws.acquire<St>(1024);
        const PbWorkspace::Stats st = ws.stats();
        EXPECT_EQ(st.acquires, 2u);
        if (First::kBytes >= St::kBytes) {
          // Served from the same bytes without growth.
          EXPECT_EQ(ws.capacity(), cap);
          EXPECT_EQ(lanes(s, 1024).front().first,
                    lanes(f, 1024).front().first);
          EXPECT_EQ(st.allocations, 1u);
          EXPECT_EQ(st.reuses, 1u);
        } else {
          EXPECT_EQ(st.allocations, 2u);  // a narrower pool must grow
        }
      });
    }
  });
  // The same bytes in more, narrower tuples also fit: 2048 key-only keys
  // are exactly a 1024-tuple wide lease.
  PbWorkspace ws;
  (void)ws.acquire(1024);
  const std::size_t cap = ws.capacity();
  (void)ws.acquire<KeyOnlyStream>(2048);
  EXPECT_EQ(ws.capacity(), cap);
  EXPECT_EQ(ws.stats().allocations, 1u);
}

TEST_P(WorkspaceStream, ScratchSlotsPoolPerThread) {
  visit(GetParam().format, [&]<typename St>(St) {
    PbWorkspace ws;
    ws.prepare_scratch(2);
    const St s0 = ws.acquire_scratch<St>(0, 64);
    const std::byte* base0 = lanes(s0, 64).front().first;
    ASSERT_NE(base0, nullptr);
    // A smaller request reuses the slot.
    EXPECT_EQ(lanes(ws.acquire_scratch<St>(0, 32), 32).front().first, base0);
    // Slots are independent.
    EXPECT_NE(lanes(ws.acquire_scratch<St>(1, 16), 16).front().first, base0);
    const PbWorkspace::Stats s = ws.stats();
    EXPECT_EQ(s.scratch_allocations, 2u);
    EXPECT_EQ(s.scratch_reuses, 1u);
  });
}

INSTANTIATE_TEST_SUITE_P(Formats, WorkspaceStream,
                         ::testing::ValuesIn(testutil::all_stream_formats()),
                         testutil::stream_format_name<
                             ::testing::TestParamInfo<testutil::StreamFormat>>);

TEST(Workspace, SharedAcrossDifferentProblems) {
  PbWorkspace ws;
  const mtx::CsrMatrix big = testutil::exact_er(400, 400, 6.0, 91);
  const mtx::CsrMatrix small = testutil::exact_er(100, 100, 3.0, 92);
  const SpGemmProblem pb_big = SpGemmProblem::square(big);
  const SpGemmProblem pb_small = SpGemmProblem::square(small);

  const PbResult r1 = pb_spgemm(pb_big.a_csc, pb_big.b_csr, PbConfig{}, ws);
  const std::size_t cap_after_big = ws.capacity();
  const PbResult r2 = pb_spgemm(pb_small.a_csc, pb_small.b_csr, PbConfig{}, ws);
  const PbResult r3 = pb_spgemm(pb_big.a_csc, pb_big.b_csr, PbConfig{}, ws);

  EXPECT_EQ(ws.capacity(), cap_after_big);  // big buffer retained
  EXPECT_TRUE(equal_exact(r1.c, r3.c));     // reuse does not corrupt results
  EXPECT_TRUE(equal_exact(r2.c, reference_spgemm(pb_small)));
}

TEST(Workspace, RepeatedCallsAreDeterministic) {
  PbWorkspace ws;
  const mtx::CsrMatrix a = testutil::exact_rmat(8, 6.0, 93);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const PbResult first = pb_spgemm(p.a_csc, p.b_csr, PbConfig{}, ws);
  for (int i = 0; i < 3; ++i) {
    const PbResult again = pb_spgemm(p.a_csc, p.b_csr, PbConfig{}, ws);
    EXPECT_TRUE(equal_exact(first.c, again.c)) << "iteration " << i;
  }
}

TEST(AlignedBuffer, CacheLineAlignment) {
  AlignedBuffer<double> b(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % kCacheLineBytes, 0u);
  EXPECT_EQ(b.size(), 100u);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer<int> a(10);
  a[0] = 42;
  int* const ptr = a.data();
  AlignedBuffer<int> b(std::move(a));
  EXPECT_EQ(b.data(), ptr);
  EXPECT_EQ(b[0], 42);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_TRUE(a.empty());

  AlignedBuffer<int> c;
  c = std::move(b);
  EXPECT_EQ(c.data(), ptr);
  EXPECT_EQ(b.data(), nullptr);
}

TEST(AlignedBuffer, EmptyAndReallocate) {
  AlignedBuffer<int> b;
  EXPECT_TRUE(b.empty());
  b.allocate(5);
  EXPECT_EQ(b.size(), 5u);
  b.allocate(0);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.data(), nullptr);
}

TEST(AlignedBuffer, RangeForIteration) {
  AlignedBuffer<int> b(4);
  for (std::size_t i = 0; i < 4; ++i) b[i] = static_cast<int>(i);
  int sum = 0;
  for (const int v : b) sum += v;
  EXPECT_EQ(sum, 6);
}

}  // namespace
}  // namespace pbs::pb
