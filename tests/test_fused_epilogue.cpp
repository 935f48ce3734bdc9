// Fused epilogues (PR 10): bit-identity of the in-kernel paths against
// their unfused two-pass formulations, across the full variant matrix —
// fused accumulate vs semiring_ewise_add post-pass, expand-stage masking
// vs compress-stage filtering, and the fused elementwise post-op
// (scale/prune/top-k) vs the separate mtx:: passes — over
// {plus_times, min_plus, max_min, bool_or_and} x
// {wide, narrow, key-only, narrow-f32} x {mask, complemented mask};
// plus the PostOp spec parser and the descriptor-layer validation rules
// (post-op x accumulate, post-op on a value-free semiring).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "matrix/ops.hpp"
#include "spgemm/epilogue.hpp"
#include "spgemm/executor.hpp"
#include "spgemm/op.hpp"
#include "spgemm/spgemm.hpp"
#include "test_util.hpp"

namespace pbs {
namespace {

/// One (semiring, tuple format) point of the variant matrix.  Key-only
/// needs a value-free semiring, so bool_or_and covers it; the valued
/// semirings each run wide, narrow and narrow-f32.
struct Variant {
  const char* semiring;
  pb::FormatPolicy format;
  const char* format_name;
};

std::vector<Variant> variant_matrix() {
  std::vector<Variant> v;
  for (const char* s : {"plus_times", "min_plus", "max_min"}) {
    v.push_back({s, pb::FormatPolicy::kWide, "wide"});
    v.push_back({s, pb::FormatPolicy::kNarrow, "narrow"});
    v.push_back({s, pb::FormatPolicy::kF32, "f32"});
  }
  v.push_back({"bool_or_and", pb::FormatPolicy::kWide, "wide"});
  v.push_back({"bool_or_and", pb::FormatPolicy::kKeyOnly, "keyonly"});
  return v;
}

/// mtx::keep_top_k_per_row selects the same entries as the fused top-k
/// but appends ties after the strictly-above-cutoff entries, so a tied
/// row can come out of ascending column order; the fused epilogue always
/// emits column-ordered rows.  Canonicalize before bitwise comparison.
mtx::CsrMatrix sorted_rows(mtx::CsrMatrix m) {
  std::vector<std::pair<index_t, value_t>> row;
  for (index_t r = 0; r < m.nrows; ++r) {
    const nnz_t lo = m.rowptr[r];
    const nnz_t hi = m.rowptr[static_cast<std::size_t>(r) + 1];
    row.clear();
    for (nnz_t i = lo; i < hi; ++i) row.emplace_back(m.colids[i], m.vals[i]);
    std::sort(row.begin(), row.end());
    for (nnz_t i = lo; i < hi; ++i) {
      m.colids[i] = row[static_cast<std::size_t>(i - lo)].first;
      m.vals[i] = row[static_cast<std::size_t>(i - lo)].second;
    }
  }
  return m;
}

std::string trace(const Variant& v) {
  return std::string(v.semiring) + "/" + v.format_name;
}

SpGemmOp pb_op(const Variant& v) {
  SpGemmOp op;
  op.algo = "pb";
  op.semiring = v.semiring;
  op.pb.format = v.format;
  return op;
}

// ---- fused accumulate -----------------------------------------------------

// The tentpole claim: run(p, op, c_old) merges C during CSR conversion,
// and the result is bit-identical to the explicit two-pass
// semiring_ewise_add(c_old, product) it replaced — for every semiring
// and tuple format.
TEST(FusedEpilogue, AccumulateMatchesThePostPassAcrossTheVariantMatrix) {
  const mtx::CsrMatrix a = testutil::exact_er(220, 200, 5.0, 501);
  const mtx::CsrMatrix b = testutil::exact_er(200, 180, 5.0, 502);
  const mtx::CsrMatrix c_old = testutil::exact_er(220, 180, 3.0, 503);
  const SpGemmProblem p = SpGemmProblem::multiply(a, b);
  SpGemmExecutor exec;

  for (const Variant& v : variant_matrix()) {
    SCOPED_TRACE(trace(v));
    const SpGemmOp op = pb_op(v);
    const mtx::CsrMatrix product = exec.run(p, op);
    const mtx::CsrMatrix expected =
        semiring_ewise_add(op.semiring, c_old, product);
    RunInfo info;
    const mtx::CsrMatrix fused = exec.run(p, op, c_old, &info);
    EXPECT_TRUE(info.used_pb);
    EXPECT_TRUE(mtx::equal_exact(fused, expected));
  }
}

// An accumulating run shares its cached plan with the plain product of
// the same op: accumulate is a per-call argument, not part of the key.
TEST(FusedEpilogue, AccumulatingRunSharesThePlanWithThePlainProduct) {
  const mtx::CsrMatrix a = testutil::exact_er(160, 160, 4.0, 504);
  const mtx::CsrMatrix c_old = testutil::exact_er(160, 160, 3.0, 505);
  const SpGemmProblem p = SpGemmProblem::multiply(a, a);
  SpGemmExecutor exec;
  SpGemmOp op;
  op.algo = "pb";

  RunInfo first, second;
  (void)exec.run(p, op, &first);
  (void)exec.run(p, op, c_old, &second);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
}

// Accumulating into an empty (all-zero-rows) C must degenerate to the
// plain product, and a product accumulated into itself doubles under
// plus_times — two easy algebraic gold checks on the fused path.
TEST(FusedEpilogue, AccumulateAlgebraicIdentities) {
  const mtx::CsrMatrix a = testutil::exact_er(150, 150, 4.0, 506);
  const SpGemmProblem p = SpGemmProblem::multiply(a, a);
  SpGemmExecutor exec;
  SpGemmOp op;
  op.algo = "pb";

  const mtx::CsrMatrix product = exec.run(p, op);
  mtx::CsrMatrix empty;
  empty.nrows = product.nrows;
  empty.ncols = product.ncols;
  empty.rowptr.assign(static_cast<std::size_t>(product.nrows) + 1, 0);
  EXPECT_TRUE(mtx::equal_exact(exec.run(p, op, empty), product));

  const mtx::CsrMatrix doubled = exec.run(p, op, product);
  EXPECT_TRUE(mtx::equal_exact(doubled, mtx::add(product, product)));
}

// ---- expand-stage masking -------------------------------------------------

// Masking in the expand scatter loop (kOn) must produce the same C as
// filtering at compress (kOff), for both mask polarities and every
// format — and when the expand mask runs, the compress filter has
// nothing left to drop.
TEST(FusedEpilogue, ExpandMaskingMatchesCompressFilteringAcrossTheMatrix) {
  const mtx::CsrMatrix a = testutil::exact_er(200, 200, 5.0, 507);
  const mtx::CsrMatrix mask = testutil::exact_er(200, 200, 2.0, 508);
  const SpGemmProblem p = SpGemmProblem::multiply(a, a);
  SpGemmExecutor exec;

  for (const Variant& v : variant_matrix()) {
    for (const bool complement : {false, true}) {
      SCOPED_TRACE(trace(v) + (complement ? "/complement" : "/mask"));
      SpGemmOp op = pb_op(v);
      op.mask = &mask;
      op.complement = complement;

      op.pb.expand_mask = pb::ExpandMaskMode::kOff;
      const mtx::CsrMatrix filtered = exec.run(p, op);

      op.pb.expand_mask = pb::ExpandMaskMode::kOn;
      RunInfo info;
      const mtx::CsrMatrix skipped = exec.run(p, op, &info);

      EXPECT_TRUE(mtx::equal_exact(skipped, filtered));
      EXPECT_TRUE(info.pb_stats.expand_masked);
      EXPECT_EQ(info.pb_stats.mask_dropped, 0);
      if (!complement) EXPECT_GT(info.pb_stats.mask_skipped_expand, 0);
    }
  }
}

// The expand-masked product against the serial oracle: masked SpGEMM is
// pattern_filter(reference product, mask).
TEST(FusedEpilogue, ExpandMaskedProductMatchesTheSerialOracle) {
  const mtx::CsrMatrix a = testutil::exact_er(180, 180, 5.0, 509);
  const mtx::CsrMatrix mask = testutil::exact_er(180, 180, 2.0, 510);
  const SpGemmProblem p = SpGemmProblem::multiply(a, a);
  const mtx::CsrMatrix ref = reference_spgemm(p);
  SpGemmExecutor exec;

  for (const bool complement : {false, true}) {
    SpGemmOp op;
    op.algo = "pb";
    op.mask = &mask;
    op.complement = complement;
    op.pb.expand_mask = pb::ExpandMaskMode::kOn;
    EXPECT_TRUE(mtx::equal_exact(exec.run(p, op),
                                 mtx::pattern_filter(ref, mask, complement)))
        << (complement ? "complement" : "mask");
  }
}

// ---- fused elementwise post-ops -------------------------------------------

// The fused scale/prune/top-k must equal the separate passes the
// workloads used to run: scale, then mtx::prune, then
// mtx::keep_top_k_per_row on the unpruned product.
TEST(FusedEpilogue, PostOpMatchesTheSeparatePassesAcrossTheMatrix) {
  const mtx::CsrMatrix a = testutil::exact_er(220, 200, 5.0, 511);
  const mtx::CsrMatrix b = testutil::exact_er(200, 180, 5.0, 512);
  const SpGemmProblem p = SpGemmProblem::multiply(a, b);
  PostOp post;
  post.scale = 0.5;  // exact in binary: fused-vs-separate stays bitwise
  post.prune_threshold = 3.0;
  post.top_k = 4;
  SpGemmExecutor exec;

  for (const Variant& v : variant_matrix()) {
    if (std::string(v.semiring) == "bool_or_and") continue;  // value-free
    SCOPED_TRACE(trace(v));
    SpGemmOp plain = pb_op(v);
    const mtx::CsrMatrix product = exec.run(p, plain);

    mtx::CsrMatrix gold = product;
    for (value_t& val : gold.vals) val *= post.scale;
    gold = sorted_rows(mtx::keep_top_k_per_row(
        mtx::prune(gold, post.prune_threshold), post.top_k));

    SpGemmOp op = plain;
    op.post_op = post;
    RunInfo info;
    const mtx::CsrMatrix fused = exec.run(p, op, &info);
    EXPECT_TRUE(info.used_pb);
    EXPECT_TRUE(mtx::equal_exact(fused, gold));
    EXPECT_EQ(info.pb_stats.post_dropped,
              static_cast<nnz_t>(product.vals.size() - gold.vals.size()));
  }
}

// apply_post_op (the unfused helper the row-wise and fallback paths use)
// agrees with the same separate-pass gold, knob by knob.
TEST(FusedEpilogue, ApplyPostOpMatchesTheSeparatePasses) {
  const mtx::CsrMatrix a = testutil::exact_er(200, 200, 6.0, 513);
  const SpGemmProblem p = SpGemmProblem::multiply(a, a);
  const mtx::CsrMatrix product = reference_spgemm(p);

  {
    PostOp scale_only;
    scale_only.scale = 0.25;
    mtx::CsrMatrix c = product;
    apply_post_op(c, scale_only);
    mtx::CsrMatrix gold = product;
    for (value_t& val : gold.vals) val *= 0.25;
    EXPECT_TRUE(mtx::equal_exact(c, gold));
  }
  {
    PostOp prune_only;
    prune_only.prune_threshold = 10.0;
    mtx::CsrMatrix c = product;
    apply_post_op(c, prune_only);
    EXPECT_TRUE(mtx::equal_exact(c, mtx::prune(product, 10.0)));
  }
  {
    PostOp topk_only;
    topk_only.top_k = 3;
    mtx::CsrMatrix c = product;
    apply_post_op(c, topk_only);
    EXPECT_TRUE(
        mtx::equal_exact(c, sorted_rows(mtx::keep_top_k_per_row(product, 3))));
  }
}

// The same post-op descriptor through a row-wise algorithm (heap) must
// match the PB-fused result: the epilogue is a property of the op, not
// of the kernel that happens to run it.
TEST(FusedEpilogue, PostOpIsKernelIndependent) {
  const mtx::CsrMatrix a = testutil::exact_er(180, 180, 5.0, 514);
  const SpGemmProblem p = SpGemmProblem::multiply(a, a);
  PostOp post;
  post.prune_threshold = 5.0;
  post.top_k = 6;
  SpGemmExecutor exec;

  SpGemmOp op;
  op.algo = "pb";
  op.post_op = post;
  const mtx::CsrMatrix via_pb = exec.run(p, op);

  op.algo = "heap";
  RunInfo info;
  const mtx::CsrMatrix via_heap = exec.run(p, op, &info);
  EXPECT_FALSE(info.used_pb);
  EXPECT_TRUE(mtx::equal_exact(via_heap, via_pb));
}

// Post-op composes with a mask: the mask restricts the pattern first,
// then prune/top-k act on the survivors.
TEST(FusedEpilogue, PostOpComposesWithTheMask) {
  const mtx::CsrMatrix a = testutil::exact_er(180, 180, 5.0, 515);
  const mtx::CsrMatrix mask = testutil::exact_er(180, 180, 3.0, 516);
  const SpGemmProblem p = SpGemmProblem::multiply(a, a);
  PostOp post;
  post.top_k = 2;
  SpGemmExecutor exec;

  SpGemmOp masked;
  masked.algo = "pb";
  masked.mask = &mask;
  const mtx::CsrMatrix gold =
      sorted_rows(mtx::keep_top_k_per_row(exec.run(p, masked), post.top_k));

  SpGemmOp op = masked;
  op.post_op = post;
  EXPECT_TRUE(mtx::equal_exact(exec.run(p, op), gold));
}

// Differing post-ops are distinct cache keys: the cached entry's op copy
// carries the post-op into every execution, so two ops that differ only
// in post_op must not share an entry.
TEST(FusedEpilogue, PostOpIsPartOfThePlanCacheKey) {
  const mtx::CsrMatrix a = testutil::exact_er(150, 150, 4.0, 517);
  const SpGemmProblem p = SpGemmProblem::multiply(a, a);
  SpGemmExecutor exec;

  SpGemmOp op;
  op.algo = "pb";
  op.post_op.prune_threshold = 2.0;
  const mtx::CsrMatrix pruned_2 = exec.run(p, op);

  op.post_op.prune_threshold = 50.0;
  RunInfo info;
  const mtx::CsrMatrix pruned_50 = exec.run(p, op, &info);
  EXPECT_FALSE(info.cache_hit);
  EXPECT_LT(pruned_50.vals.size(), pruned_2.vals.size());
  EXPECT_TRUE(mtx::equal_exact(pruned_50, mtx::prune(pruned_2, 50.0)));
}

// ---- descriptor validation ------------------------------------------------

TEST(FusedEpilogue, PostOpOnAValueFreeSemiringThrows) {
  const mtx::CsrMatrix a = testutil::exact_er(80, 80, 3.0, 518);
  const SpGemmProblem p = SpGemmProblem::multiply(a, a);
  SpGemmExecutor exec;
  SpGemmOp op;
  op.algo = "pb";
  op.semiring = "bool_or_and";
  op.post_op.prune_threshold = 0.5;
  EXPECT_THROW((void)exec.run(p, op), std::invalid_argument);
}

TEST(FusedEpilogue, PostOpAndAccumulateAreMutuallyExclusive) {
  const mtx::CsrMatrix a = testutil::exact_er(80, 80, 3.0, 519);
  const mtx::CsrMatrix c_old = testutil::exact_er(80, 80, 2.0, 520);
  const SpGemmProblem p = SpGemmProblem::multiply(a, a);
  SpGemmExecutor exec;
  SpGemmOp op;
  op.algo = "pb";
  op.post_op.top_k = 4;
  EXPECT_THROW((void)exec.run(p, op, c_old), std::invalid_argument);
}

// ---- PostOp spec parser ---------------------------------------------------

TEST(PostOpSpec, ParsesEveryKnobInAnyOrder) {
  const PostOp op = parse_post_op("topk:64,scale:2,prune:0.25");
  EXPECT_DOUBLE_EQ(op.scale, 2.0);
  EXPECT_DOUBLE_EQ(op.prune_threshold, 0.25);
  EXPECT_EQ(op.top_k, 64);
  EXPECT_TRUE(op.active());
  EXPECT_TRUE(op.drops_entries());
}

TEST(PostOpSpec, RoundTripsThroughToString) {
  PostOp op;
  op.scale = 2.0;
  op.prune_threshold = 0.25;
  op.top_k = 64;
  EXPECT_EQ(parse_post_op(post_op_to_string(op)), op);
  EXPECT_EQ(post_op_to_string(PostOp{}), "");
  EXPECT_FALSE(PostOp{}.active());
  EXPECT_FALSE(PostOp{}.drops_entries());
  PostOp scale_only;
  scale_only.scale = 0.5;
  EXPECT_TRUE(scale_only.active());
  EXPECT_FALSE(scale_only.drops_entries());
}

TEST(PostOpSpec, MalformedSpecsThrow) {
  EXPECT_THROW((void)parse_post_op("bogus:1"), std::invalid_argument);
  EXPECT_THROW((void)parse_post_op("prune"), std::invalid_argument);
  EXPECT_THROW((void)parse_post_op("prune:abc"), std::invalid_argument);
  EXPECT_THROW((void)parse_post_op("prune:-1"), std::invalid_argument);
  EXPECT_THROW((void)parse_post_op("prune:nan"), std::invalid_argument);
  EXPECT_THROW((void)parse_post_op("topk:0"), std::invalid_argument);
  EXPECT_THROW((void)parse_post_op("topk:-3"), std::invalid_argument);
  EXPECT_THROW((void)parse_post_op("scale:inf"), std::invalid_argument);
}

}  // namespace
}  // namespace pbs
