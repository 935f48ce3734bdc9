// The narrow-key SoA tuple format (pb/tuple.hpp): plan-level format
// selection, bit-identity of the narrow and wide paths across semirings
// and bin counts, and the format boundaries — col_bits at the 32-bit
// fit edge, single-row bins, empty bins, the wide fallback, and exact
// cancellation — plus the per-phase API of every stream policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/parallel.hpp"
#include "pb/binning.hpp"
#include "pb/expand.hpp"
#include "pb/output.hpp"
#include "pb/pb_spgemm.hpp"
#include "pb/plan.hpp"
#include "pb/sort_compress.hpp"
#include "spgemm/semiring.hpp"
#include "test_util.hpp"

namespace pbs::pb {
namespace {

// Runs the full pipeline under both formats and requires bitwise-equal
// CSR.  Returns the narrow result for further checks.  Inputs must carry
// exact-integer values (testutil) so sums are order-independent.
mtx::CsrMatrix expect_formats_identical(const mtx::CscMatrix& a,
                                        const mtx::CsrMatrix& b,
                                        PbConfig cfg,
                                        const std::string& semiring) {
  PbWorkspace wide_ws, narrow_ws;
  cfg.validate = true;
  cfg.format = FormatPolicy::kWide;
  const PbResult wide = pb_spgemm_named(semiring, a, b, cfg, wide_ws);
  EXPECT_EQ(wide.stats.format, TupleFormat::kWide);
  cfg.format = FormatPolicy::kNarrow;
  const PbResult narrow = pb_spgemm_named(semiring, a, b, cfg, narrow_ws);
  EXPECT_TRUE(mtx::equal_exact(wide.c, narrow.c)) << semiring;
  return narrow.c;
}

TEST(PbFormat, NarrowVsWideBitIdenticalAcrossSemirings) {
  const mtx::CsrMatrix m = testutil::exact_er(400, 400, 6.0, 41);
  const mtx::CscMatrix a = mtx::csr_to_csc(m);
  for (const std::string& s : semiring_names()) {
    PbConfig cfg;
    cfg.nbins = 8;
    (void)expect_formats_identical(a, m, cfg, s);
  }
}

TEST(PbFormat, AutoSelectsNarrowWhenBitsFitAndReportsBytes) {
  const mtx::CsrMatrix m = testutil::exact_er(500, 500, 5.0, 42);
  const mtx::CscMatrix a = mtx::csr_to_csc(m);
  const PbPlan plan = pb_plan_build(a, m, PbConfig{});
  // 500 rows / 500 cols: col_bits = 9 and any bin width fits 32 bits.
  EXPECT_EQ(plan.sym.format, TupleFormat::kNarrow);
  EXPECT_EQ(plan.sym.col_bits, 9);

  PbWorkspace ws;
  const PbResult r = pb_execute<PlusTimes>(a, m, plan, ws);
  EXPECT_EQ(r.stats.format, TupleFormat::kNarrow);
  EXPECT_EQ(r.stats.tuple_bytes(), 12.0);
  // The byte models must charge the narrow stream: the sort streams
  // 12 B/tuple, not 16.
  EXPECT_EQ(r.stats.sort.bytes, 12.0 * static_cast<double>(r.stats.flop));
}

TEST(PbFormat, ForcedWideStaysWide) {
  const mtx::CsrMatrix m = testutil::exact_er(300, 300, 4.0, 43);
  const mtx::CscMatrix a = mtx::csr_to_csc(m);
  PbConfig cfg;
  cfg.format = FormatPolicy::kWide;
  const PbPlan plan = pb_plan_build(a, m, cfg);
  EXPECT_EQ(plan.sym.format, TupleFormat::kWide);

  PbWorkspace ws;
  const PbResult r = pb_execute<PlusTimes>(a, m, plan, ws);
  EXPECT_EQ(r.stats.format, TupleFormat::kWide);
  EXPECT_EQ(r.stats.tuple_bytes(), 16.0);
}

TEST(PbFormat, ColBitsAtTheFitBoundary) {
  // B has 2^30 columns -> col_bits = 30.  With 4 rows in one bin the row
  // needs 2 bits: 32 exactly, the last geometry that still packs narrow.
  const index_t wide_cols = index_t{1} << 30;
  const mtx::CsrMatrix a_csr = testutil::from_triplets(
      4, 4, {{0, 0, 2.0}, {1, 1, 3.0}, {2, 2, 5.0}, {3, 3, 7.0}});
  const mtx::CsrMatrix b = testutil::from_triplets(
      4, wide_cols,
      {{0, 0, 1.0},
       {0, wide_cols - 1, 4.0},
       {1, 12345, 6.0},
       {2, wide_cols - 2, 8.0},
       {3, 0, 9.0}});
  const mtx::CscMatrix a = mtx::csr_to_csc(a_csr);

  PbConfig cfg;
  cfg.nbins = 1;
  const PbPlan plan = pb_plan_build(a, b, cfg);
  ASSERT_EQ(plan.sym.col_bits, 30);
  ASSERT_EQ(plan.sym.layout.local_row_bits(4), 2);
  EXPECT_EQ(plan.sym.format, TupleFormat::kNarrow);

  const mtx::CsrMatrix c = expect_formats_identical(a, b, cfg, "plus_times");
  const mtx::CsrMatrix expected = testutil::from_triplets(
      4, wide_cols,
      {{0, 0, 2.0},
       {0, wide_cols - 1, 8.0},
       {1, 12345, 18.0},
       {2, wide_cols - 2, 40.0},
       {3, 0, 63.0}});
  EXPECT_TRUE(mtx::equal_exact(c, expected));
}

TEST(PbFormat, FallsBackToWideWhenBitsDontFit) {
  // Same 2^30 columns but 8 rows in one bin: 3 + 30 = 33 bits -> the
  // narrow request cannot be honored and symbolic falls back to wide.
  const index_t wide_cols = index_t{1} << 30;
  const mtx::CsrMatrix a_csr = testutil::from_triplets(
      8, 4, {{0, 0, 2.0}, {5, 1, 3.0}, {7, 3, 7.0}});
  const mtx::CsrMatrix b = testutil::from_triplets(
      4, wide_cols, {{0, 7, 1.0}, {1, wide_cols - 1, 4.0}, {3, 99, 6.0}});
  const mtx::CscMatrix a = mtx::csr_to_csc(a_csr);

  PbConfig cfg;
  cfg.nbins = 1;
  cfg.format = FormatPolicy::kNarrow;  // request is a preference, not a demand
  const PbPlan plan = pb_plan_build(a, b, cfg);
  EXPECT_EQ(plan.sym.format, TupleFormat::kWide);

  PbWorkspace ws;
  const PbResult r = pb_execute<PlusTimes>(a, b, plan, ws);
  const mtx::CsrMatrix expected = testutil::from_triplets(
      8, wide_cols,
      {{0, 7, 2.0}, {5, wide_cols - 1, 12.0}, {7, 99, 42.0}});
  EXPECT_TRUE(mtx::equal_exact(r.c, expected));
}

TEST(PbFormat, SingleRowBinsAndEmptyBins) {
  // One bin per row (range shift 0, local row always 0) and a matrix with
  // empty rows, so some bins receive nothing.
  mtx::CooMatrix acoo(16, 16);
  acoo.add(0, 3, 2.0);
  acoo.add(7, 7, 3.0);
  acoo.add(15, 0, 5.0);
  acoo.canonicalize();
  const mtx::CsrMatrix m = mtx::coo_to_csr(acoo);
  const mtx::CscMatrix a = mtx::csr_to_csc(m);

  PbConfig cfg;
  cfg.nbins = 16;
  const PbPlan plan = pb_plan_build(a, m, cfg);
  EXPECT_EQ(plan.sym.format, TupleFormat::kNarrow);
  EXPECT_EQ(plan.sym.layout.local_row_bits(16), 0);

  for (const std::string& s : semiring_names()) {
    (void)expect_formats_identical(a, m, cfg, s);
  }
}

TEST(PbFormat, ExactCancellationKeepsStructuralZeros) {
  // C(0,0) = 1*1 + (-1)*1 = 0: the entry must survive structurally in
  // both formats (the library's exact-cancellation convention).
  const mtx::CsrMatrix a_csr =
      testutil::from_triplets(2, 2, {{0, 0, 1.0}, {0, 1, -1.0}});
  const mtx::CsrMatrix b =
      testutil::from_triplets(2, 2, {{0, 0, 1.0}, {1, 0, 1.0}});
  const mtx::CscMatrix a = mtx::csr_to_csc(a_csr);

  const mtx::CsrMatrix c =
      expect_formats_identical(a, b, PbConfig{}, "plus_times");
  ASSERT_EQ(c.nnz(), 1);
  EXPECT_EQ(c.colids[0], 0);
  EXPECT_EQ(c.vals[0], 0.0);
}

TEST(PbFormat, FuzzAcrossShapesPoliciesAndSemirings) {
  mtx::SplitMix64 rng(77);
  for (int round = 0; round < 24; ++round) {
    const auto n = static_cast<index_t>(16 + rng.next_below(120));
    const auto k = static_cast<index_t>(16 + rng.next_below(120));
    const auto mcols = static_cast<index_t>(16 + rng.next_below(120));
    const mtx::CsrMatrix a_csr =
        testutil::exact_er(n, k, 3.0, 500 + round);
    const mtx::CsrMatrix b = testutil::exact_er(k, mcols, 3.0, 900 + round);
    const mtx::CscMatrix a = mtx::csr_to_csc(a_csr);

    PbConfig cfg;
    const int nbins_choices[] = {0, 1, 3, 17, 64};
    cfg.nbins = nbins_choices[rng.next_below(5)];
    cfg.local_bin_bytes = rng.next_below(2) == 0 ? 16 : 512;
    const std::string semiring =
        semiring_names()[rng.next_below(semiring_names().size())];
    (void)expect_formats_identical(a, b, cfg, semiring);
  }
}

TEST(PbFormat, LocalGlobalRowRoundTripsAcrossPolicies) {
  const index_t nrows = 1000;
  const BinLayout layout = make_range_layout(nrows, 8);
  for (index_t row = 0; row < nrows; ++row) {
    const int bin = layout.binid(row);
    const index_t local = layout.local_row(row);
    ASSERT_GE(local, 0);
    ASSERT_LT(local, index_t{1} << layout.local_row_bits(nrows));
    ASSERT_EQ(layout.global_row(bin, local), row) << "row " << row;
  }
}

TEST(PbFormat, NarrowKeyCodecRoundTripsAndOrdersRowMajor) {
  for (const int col_bits : {0, 1, 9, 20, 30}) {
    const index_t max_col = col_bits > 0 ? (index_t{1} << col_bits) - 1 : 0;
    // Whatever row space remains of the 32-bit key (index_t caps it at 31).
    const int row_bits = std::min(31, 32 - col_bits);
    const auto max_local = static_cast<index_t>(
        (std::uint32_t{1} << row_bits) - 1u);
    for (const index_t local : {index_t{0}, max_local / 2, max_local}) {
      for (const index_t col : {index_t{0}, max_col / 2, max_col}) {
        const narrow_key_t key = make_narrow_key(local, col, col_bits);
        ASSERT_EQ(narrow_key_local_row(key, col_bits), local);
        ASSERT_EQ(narrow_key_col(key, col_bits), col);
      }
    }
    // Row-major: a larger local row beats any column.
    if (col_bits > 0 && max_local > 0) {
      EXPECT_LT(make_narrow_key(0, max_col, col_bits),
                make_narrow_key(1, 0, col_bits));
    }
  }
}

TEST(PbFormat, WideKvSortBitIdenticalToReferenceAcrossPolicies) {
  // The wide path's per-bin sort now runs radix_sort_lsd_kv over a
  // deinterleaved u64/f64 SoA pair (8 B histogram reads instead of 16 B
  // record streams).  Both sorts are stable, so on exact-integer inputs
  // the forced-wide pipeline must stay bit-identical to the gold standard
  // for every semiring.
  const mtx::CsrMatrix m = testutil::exact_er(350, 350, 6.0, 61);
  const mtx::CscMatrix a = mtx::csr_to_csc(m);
  const SpGemmProblem p = SpGemmProblem::square(m);
  for (const std::string& s : semiring_names()) {
    const mtx::CsrMatrix expected = dispatch_semiring(
        s, [&]<typename S>() { return reference_spgemm_semiring<S>(p); });
    PbConfig cfg;
    cfg.format = FormatPolicy::kWide;
    cfg.validate = true;
    PbWorkspace ws;
    const PbResult r = pb_spgemm_named(s, a, m, cfg, ws);
    EXPECT_EQ(r.stats.format, TupleFormat::kWide);
    EXPECT_TRUE(mtx::equal_exact(r.c, expected)) << s;
  }
}

TEST(PbFormat, PredictionMatchesSymbolicForRangePolicy) {
  for (const auto& [nrows, ncols, density] :
       {std::tuple{200, 200, 4.0}, std::tuple{2000, 2000, 8.0}}) {
    const mtx::CsrMatrix m = testutil::exact_er(
        static_cast<index_t>(nrows), static_cast<index_t>(ncols), density, 7);
    const mtx::CscMatrix a = mtx::csr_to_csc(m);
    for (const bool value_free : {false, true}) {
      PbConfig cfg;
      cfg.value_free = value_free;
      const SymbolicResult sym = pb_symbolic(a, m, cfg);
      EXPECT_EQ(sym.format,
                value_free ? TupleFormat::kKeyOnly : TupleFormat::kNarrow);
      EXPECT_EQ(predict_tuple_format(a.nrows, m.ncols, sym.flop, cfg),
                sym.format);
    }
  }
}

// ---- key-only (8 B) and narrow-f32 (8 B) formats -------------------------

// Runs bool_or_and under forced-wide and under `policy` and requires
// bitwise-equal CSR.  Bit-identity is
// exact, not approximate: every surviving wide value is S::add/S::mul of
// nonzeros = exactly 1.0, which is exactly what the key-only convert
// synthesizes.
void expect_keyonly_matches_wide(const mtx::CscMatrix& a,
                                 const mtx::CsrMatrix& b, PbConfig cfg,
                                 FormatPolicy policy) {
  cfg.validate = true;
  cfg.format = FormatPolicy::kWide;
  PbWorkspace wide_ws;
  const PbResult wide = pb_spgemm<BoolOrAnd>(a, b, cfg, wide_ws);
  EXPECT_EQ(wide.stats.format, TupleFormat::kWide);
  PbConfig kcfg = cfg;
  kcfg.format = policy;
  PbWorkspace ws;
  const PbResult keyonly = pb_spgemm<BoolOrAnd>(a, b, kcfg, ws);
  EXPECT_EQ(keyonly.stats.format, TupleFormat::kKeyOnly) << to_string(policy);
  EXPECT_TRUE(mtx::equal_exact(wide.c, keyonly.c)) << to_string(policy);
}

TEST(PbFormatKeyOnly, BitIdenticalToWideAcrossPolicies) {
  const mtx::CsrMatrix m = testutil::exact_er(400, 400, 6.0, 44);
  const mtx::CscMatrix a = mtx::csr_to_csc(m);
  for (const int nbins : {1, 8}) {
    PbConfig cfg;
    cfg.nbins = nbins;
    // Both the explicit request and auto (pb_spgemm<BoolOrAnd> injects
    // value_free) must land on key-only.
    expect_keyonly_matches_wide(a, m, cfg, FormatPolicy::kKeyOnly);
    expect_keyonly_matches_wide(a, m, cfg, FormatPolicy::kAuto);
  }
}

TEST(PbFormatKeyOnly, AutoSelectsKeyOnlyAndChargesEightBytes) {
  const mtx::CsrMatrix m = testutil::exact_er(500, 500, 5.0, 45);
  const mtx::CscMatrix a = mtx::csr_to_csc(m);
  PbWorkspace ws;
  const PbResult r = pb_spgemm<BoolOrAnd>(a, m, PbConfig{}, ws);
  EXPECT_EQ(r.stats.format, TupleFormat::kKeyOnly);
  EXPECT_EQ(r.stats.tuple_bytes(), 8.0);
  // Eq. 4 accounting: the sort streams 8 B/tuple, not 12 or 16.
  EXPECT_EQ(r.stats.sort.bytes, 8.0 * static_cast<double>(r.stats.flop));
  // Same semiring through the named (DynSemiring-capable) entry point.
  PbWorkspace named_ws;
  const PbResult named =
      pb_spgemm_named("bool_or_and", a, m, PbConfig{}, named_ws);
  EXPECT_EQ(named.stats.format, TupleFormat::kKeyOnly);
  EXPECT_TRUE(mtx::equal_exact(r.c, named.c));
}

TEST(PbFormatKeyOnly, EngagesWhereNarrowCannotFit) {
  // 2^30 columns and 8 rows in one bin: 3 + 30 = 33 bits, past the narrow
  // fit — but the key-only stream carries the full 64-bit global key, so
  // value-free workloads still get the 8 B format at any geometry.
  const index_t wide_cols = index_t{1} << 30;
  const mtx::CsrMatrix a_csr = testutil::from_triplets(
      8, 4, {{0, 0, 2.0}, {5, 1, 3.0}, {7, 3, 7.0}});
  const mtx::CsrMatrix b = testutil::from_triplets(
      4, wide_cols, {{0, 7, 1.0}, {1, wide_cols - 1, 4.0}, {3, 99, 6.0}});
  const mtx::CscMatrix a = mtx::csr_to_csc(a_csr);

  PbConfig cfg;
  cfg.nbins = 1;
  cfg.value_free = true;
  const PbPlan plan = pb_plan_build(a, b, cfg);
  ASSERT_GT(plan.sym.layout.local_row_bits(8) + plan.sym.col_bits, 32);
  EXPECT_EQ(plan.sym.format, TupleFormat::kKeyOnly);

  expect_keyonly_matches_wide(a, b, cfg, FormatPolicy::kAuto);
}

TEST(PbFormatKeyOnly, RequestFallsBackForValuedSemirings) {
  // A key-only request for a semiring that carries values is illegal; the
  // library treats requests as preferences and falls back to the auto
  // choice (the CLI layers a strict error on top for explicit --format).
  const mtx::CsrMatrix m = testutil::exact_er(300, 300, 4.0, 46);
  const mtx::CscMatrix a = mtx::csr_to_csc(m);
  PbConfig cfg;
  cfg.format = FormatPolicy::kKeyOnly;
  PbWorkspace ws;
  const PbResult r = pb_spgemm<PlusTimes>(a, m, cfg, ws);
  EXPECT_EQ(r.stats.format, TupleFormat::kNarrow);
  EXPECT_TRUE(
      mtx::equal_exact(r.c, reference_spgemm(SpGemmProblem::square(m))));
}

TEST(PbFormatKeyOnly, ExactCancellationStaysStructurallyCorrect) {
  // Why dropping the value stream cannot break the exact-cancellation
  // convention: in a value-free semiring, add and mul of NONZERO operands
  // always yield the present-value (1 ∨ 1 = 1 ≠ 0), so no accumulation of
  // nonzeros can cancel to zero — every distinct key survives compress in
  // the valued formats too, and the patterns agree by construction.  The
  // only way a bool_or_and output can hold a zero is an explicit stored
  // 0.0 in an operand (bool-false), and symbolic downgrades key-only
  // whenever an operand stores a zero, so the value stream is retained
  // exactly when it can matter.
  const mtx::CsrMatrix a_csr = testutil::from_triplets(1, 1, {{0, 0, 0.0}});
  const mtx::CsrMatrix b = testutil::from_triplets(1, 1, {{0, 0, 1.0}});
  const mtx::CscMatrix a = mtx::csr_to_csc(a_csr);

  PbConfig cfg;
  cfg.value_free = true;  // asserted, yet the operand scan must override
  const PbPlan plan = pb_plan_build(a, b, cfg);
  EXPECT_NE(plan.sym.format, TupleFormat::kKeyOnly);

  PbWorkspace ws;
  const PbResult r = pb_spgemm<BoolOrAnd>(a, b, cfg, ws);
  ASSERT_EQ(r.c.nnz(), 1);
  EXPECT_EQ(r.c.vals[0], 0.0);  // 0 ∧ 1 = 0, stored structurally
}

TEST(PbFormatF32, BitIdenticalToWideOnExactValuesAcrossSemirings) {
  // exact_er values are integers 1..8: every product and sum in this
  // problem is exactly representable in f32, so the narrowed value lane
  // must round-trip bit-identically through the f64 CSR.
  const mtx::CsrMatrix m = testutil::exact_er(400, 400, 6.0, 47);
  const mtx::CscMatrix a = mtx::csr_to_csc(m);
  for (const std::string& s : semiring_names()) {
    PbConfig cfg;
    cfg.validate = true;
    cfg.format = FormatPolicy::kWide;
    PbWorkspace wide_ws;
    const PbResult wide = pb_spgemm_named(s, a, m, cfg, wide_ws);
    PbConfig fcfg = cfg;
    fcfg.format = FormatPolicy::kF32;
    PbWorkspace ws;
    const PbResult f32 = pb_spgemm_named(s, a, m, fcfg, ws);
    EXPECT_EQ(f32.stats.format, TupleFormat::kNarrowF32) << s;
    EXPECT_EQ(f32.stats.tuple_bytes(), 8.0) << s;
    EXPECT_TRUE(mtx::equal_exact(wide.c, f32.c)) << s;
  }
}

TEST(PbFormatF32, FallsBackToWideWhenBitsDontFit) {
  // The f32 format keeps the narrow 32-bit key, so it inherits the narrow
  // fit constraint: 33 varying bits force the wide fallback.
  const index_t wide_cols = index_t{1} << 30;
  const mtx::CsrMatrix a_csr = testutil::from_triplets(
      8, 4, {{0, 0, 2.0}, {5, 1, 3.0}, {7, 3, 7.0}});
  const mtx::CsrMatrix b = testutil::from_triplets(
      4, wide_cols, {{0, 7, 1.0}, {1, wide_cols - 1, 4.0}, {3, 99, 6.0}});
  const mtx::CscMatrix a = mtx::csr_to_csc(a_csr);

  PbConfig cfg;
  cfg.nbins = 1;
  cfg.format = FormatPolicy::kF32;
  const PbPlan plan = pb_plan_build(a, b, cfg);
  EXPECT_EQ(plan.sym.format, TupleFormat::kWide);
}

// The phase API over each stream policy (pb/tuple.hpp), driven by hand:
// generic expand -> sort_compress -> convert (plain or fused-accumulate)
// must reproduce pb_execute bit for bit at one thread, with and without
// workspace scratch, a mask and an accumulate operand.  Key-only needs a
// value-free semiring, so it runs bool_or_and; the valued streams run
// plus_times.
class PbStreamPhases
    : public ::testing::TestWithParam<testutil::StreamFormat> {};

TEST_P(PbStreamPhases, GenericPhasesMatchPbExecuteBitForBit) {
  visit(GetParam().format, [&]<typename St>(St) {
    using S = std::conditional_t<St::kHasValues, PlusTimes, BoolOrAnd>;
    const ThreadCountGuard one_thread(1);

    const mtx::CsrMatrix m = testutil::exact_er(300, 300, 5.0, 62);
    const mtx::CscMatrix a = mtx::csr_to_csc(m);
    const mtx::CsrMatrix mask = testutil::exact_er(300, 300, 30.0, 63);
    const mtx::CsrMatrix c_old = testutil::exact_er(300, 300, 3.0, 64);

    PbConfig cfg;
    cfg.format = St::kFormat == TupleFormat::kWide     ? FormatPolicy::kWide
                 : St::kFormat == TupleFormat::kNarrow ? FormatPolicy::kNarrow
                 : St::kHasValues ? FormatPolicy::kF32
                                  : FormatPolicy::kKeyOnly;
    cfg.value_free = !St::kHasValues;
    cfg.expand_mask = ExpandMaskMode::kOff;  // the mask filters at compress
    cfg.validate = true;
    const PbPlan plan = pb_plan_build(a, m, cfg);
    const SymbolicResult& sym = plan.sym;
    ASSERT_EQ(sym.format, St::kFormat);
    const auto len = static_cast<std::size_t>(sym.bin_offsets.back());

    for (const bool use_scratch : {false, true}) {
      for (const bool masked : {false, true}) {
        for (const bool accumulate : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << "scratch=" << use_scratch << " mask=" << masked
                       << " accumulate=" << accumulate);
          const MaskSpec ms = masked ? MaskSpec{&mask, false} : MaskSpec{};
          PbEpilogue epi;
          epi.accumulate = accumulate ? &c_old : nullptr;
          PbWorkspace ref_ws;
          const PbResult ref =
              pb_execute<S>(a, m, plan, ref_ws, true, ms, nullptr, epi);

          AlignedBuffer<std::byte> buf(St::bytes(len));
          const St stream = St::carve(buf.data(), len);
          PbWorkspace ws;
          pb_expand<S>(a, m, sym, plan.cfg, stream);
          const SortCompressResult sc = pb_sort_compress<S>(
              stream, sym.bin_offsets, sym.bin_fill, sym.layout.nbins,
              use_scratch ? &ws : nullptr, ms, &sym.layout, sym.col_bits);
          const mtx::CsrMatrix c =
              accumulate
                  ? pb_accumulate_csr<S>(stream, sym.bin_offsets, sc.merged,
                                         c_old, sym.layout, sym.col_bits,
                                         a.nrows, m.ncols)
                  : pb_build_csr(stream, sym.bin_offsets, sc.merged,
                                 &sym.layout, sym.col_bits, a.nrows, m.ncols);
          EXPECT_TRUE(mtx::equal_exact(c, ref.c));
          if (use_scratch) EXPECT_GT(ws.stats().scratch_allocations, 0u);
          if (masked || accumulate) continue;

          // Bins are row-ordered contiguous ranges, so bin b's survivors
          // fill C's slots from the sum of the earlier bins' survivors on:
          // the invariant a count-free, one-sweep convert would rely on.
          nnz_t before = 0;
          for (int bin = 0; bin < sym.layout.nbins; ++bin) {
            ASSERT_EQ(c.rowptr[static_cast<std::size_t>(bin)
                               << sym.layout.shift],
                      before)
                << "bin " << bin;
            before += sc.merged[static_cast<std::size_t>(bin)];
          }
          ASSERT_EQ(c.nnz(), before);

          // The plain product against the serial reference, too.
          EXPECT_TRUE(mtx::equal_exact(
              c, reference_spgemm_semiring<S>(SpGemmProblem::square(m))));
        }
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Formats, PbStreamPhases,
                         ::testing::ValuesIn(testutil::all_stream_formats()),
                         testutil::stream_format_name<
                             ::testing::TestParamInfo<testutil::StreamFormat>>);

}  // namespace
}  // namespace pbs::pb
