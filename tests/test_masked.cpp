#include "spgemm/masked.hpp"

#include <gtest/gtest.h>

#include "matrix/ops.hpp"
#include "spgemm/executor.hpp"
#include "spgemm/registry.hpp"
#include "spgemm/semiring.hpp"
#include "test_util.hpp"

namespace pbs {
namespace {

using testutil::from_triplets;

// The masked SPA kernel: C = (A · B) .* pattern(mask), or its complement.
mtx::CsrMatrix masked_spa(const mtx::CsrMatrix& a, const mtx::CsrMatrix& b,
                          const mtx::CsrMatrix& mask,
                          bool complement = false) {
  return spgemm_semiring<PlusTimes>(a, b, {&mask, complement});
}

// Oracle: full product then Hadamard with the mask pattern.
mtx::CsrMatrix oracle(const mtx::CsrMatrix& a, const mtx::CsrMatrix& b,
                      const mtx::CsrMatrix& mask) {
  const mtx::CsrMatrix full =
      reference_spgemm(SpGemmProblem::multiply(a, b));
  return mtx::hadamard(full, mtx::to_pattern(mask));
}

TEST(Masked, MatchesUnmaskedProductOnFullMask) {
  const mtx::CsrMatrix a = testutil::exact_er(100, 100, 4.0, 71);
  const mtx::CsrMatrix full = reference_spgemm(SpGemmProblem::square(a));
  EXPECT_TRUE(equal_exact(masked_spa(a, a, mtx::to_pattern(full)), full));
}

TEST(Masked, KnownSmallCase) {
  // Product is dense 2x2; mask keeps only (0,1) and (1,0).
  const auto a = from_triplets(2, 2, {{0, 0, 1.}, {0, 1, 2.}, {1, 0, 3.}, {1, 1, 4.}});
  const auto mask = from_triplets(2, 2, {{0, 1, 1.0}, {1, 0, 1.0}});
  const mtx::CsrMatrix c = masked_spa(a, a, mask);
  EXPECT_EQ(c.nnz(), 2);
  EXPECT_EQ(c.vals[0], 10.0);  // (0,1): 1*2 + 2*4
  EXPECT_EQ(c.vals[1], 15.0);  // (1,0): 3*1 + 4*3
}

TEST(Masked, EmptyMaskGivesEmptyResult) {
  const mtx::CsrMatrix a = testutil::exact_er(64, 64, 4.0, 72);
  mtx::CooMatrix empty(64, 64);
  const mtx::CsrMatrix c = masked_spa(a, a, mtx::coo_to_csr(empty));
  EXPECT_EQ(c.nnz(), 0);
  EXPECT_TRUE(c.valid());
}

TEST(Masked, MaskPositionsWithZeroProductAreDropped) {
  // Mask allows (0, 3) but no product lands there: the entry must not
  // appear (masked SpGEMM keeps the product's pattern ∩ mask).
  const auto a = from_triplets(4, 4, {{0, 0, 1.0}});
  const auto b = from_triplets(4, 4, {{0, 1, 1.0}});
  const auto mask = from_triplets(4, 4, {{0, 1, 1.0}, {0, 3, 1.0}});
  const mtx::CsrMatrix c = masked_spa(a, b, mask);
  EXPECT_EQ(c.nnz(), 1);
  EXPECT_EQ(c.colids[0], 1);
}

TEST(Masked, MaskValuesAreIgnored) {
  const mtx::CsrMatrix a = testutil::exact_er(80, 80, 4.0, 73);
  mtx::CsrMatrix mask = testutil::exact_er(80, 80, 6.0, 74);
  const mtx::CsrMatrix c1 = masked_spa(a, a, mask);
  for (auto& v : mask.vals) v *= -17.5;  // scale mask values arbitrarily
  const mtx::CsrMatrix c2 = masked_spa(a, a, mask);
  EXPECT_TRUE(equal_exact(c1, c2));
}

class MaskedRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaskedRandom, MatchesHadamardOracle) {
  const std::uint64_t seed = GetParam();
  const mtx::CsrMatrix a = testutil::exact_er(150, 150, 5.0, seed);
  const mtx::CsrMatrix b = testutil::exact_er(150, 150, 5.0, seed + 10);
  const mtx::CsrMatrix mask = testutil::exact_er(150, 150, 8.0, seed + 20);
  EXPECT_TRUE(equal_exact(masked_spa(a, b, mask), oracle(a, b, mask)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaskedRandom, ::testing::Values(1, 2, 3, 4));

TEST(Masked, TriangleCountingEquivalence) {
  // The masked formulation counts the same triangles as product+Hadamard.
  const mtx::CsrMatrix adj =
      mtx::symmetrize(testutil::exact_er(200, 200, 6.0, 75));
  const mtx::CsrMatrix lower = mtx::to_pattern(mtx::tril(adj));
  const value_t via_masked = mtx::value_sum(masked_spa(lower, lower, lower));
  const mtx::CsrMatrix full = algorithm("pb").fn(SpGemmProblem::square(lower));
  const value_t via_hadamard = mtx::value_sum(mtx::hadamard(full, lower));
  EXPECT_DOUBLE_EQ(via_masked, via_hadamard);
}

TEST(Masked, ShapeMismatchThrows) {
  const mtx::CsrMatrix a = testutil::exact_er(10, 10, 2.0, 76);
  const mtx::CsrMatrix bad_mask = testutil::exact_er(10, 11, 2.0, 77);
  EXPECT_THROW(masked_spa(a, a, bad_mask), std::invalid_argument);
}

TEST(MaskedComplement, SplitsProductExactly) {
  // masked + complement-masked partition the full product's pattern.
  const mtx::CsrMatrix a = testutil::exact_er(120, 120, 5.0, 78);
  const mtx::CsrMatrix mask = testutil::exact_er(120, 120, 10.0, 79);
  const mtx::CsrMatrix inside = masked_spa(a, a, mask);
  const mtx::CsrMatrix outside = masked_spa(a, a, mask, /*complement=*/true);
  const mtx::CsrMatrix full = reference_spgemm(SpGemmProblem::square(a));
  EXPECT_EQ(inside.nnz() + outside.nnz(), full.nnz());
  EXPECT_TRUE(equal_exact(mtx::add(inside, outside), full));
}

TEST(MaskedComplement, EmptyMaskKeepsEverything) {
  const mtx::CsrMatrix a = testutil::exact_er(64, 64, 4.0, 80);
  mtx::CooMatrix empty(64, 64);
  const mtx::CsrMatrix c =
      masked_spa(a, a, mtx::coo_to_csr(empty), /*complement=*/true);
  EXPECT_TRUE(equal_exact(c, reference_spgemm(SpGemmProblem::square(a))));
}

TEST(MaskedComplement, FullMaskKeepsNothing) {
  const mtx::CsrMatrix a = testutil::exact_er(48, 48, 4.0, 81);
  const mtx::CsrMatrix full = reference_spgemm(SpGemmProblem::square(a));
  const mtx::CsrMatrix c =
      masked_spa(a, a, mtx::to_pattern(full), /*complement=*/true);
  EXPECT_EQ(c.nnz(), 0);
}

TEST(Masked, CancellationInsideMaskStaysStructural) {
  const auto a = from_triplets(1, 2, {{0, 0, 1.0}, {0, 1, 1.0}});
  const auto b = from_triplets(2, 1, {{0, 0, 1.0}, {1, 0, -1.0}});
  const auto mask = from_triplets(1, 1, {{0, 0, 1.0}});
  const mtx::CsrMatrix c = masked_spa(a, b, mask);
  ASSERT_EQ(c.nnz(), 1);
  EXPECT_EQ(c.vals[0], 0.0);
}

// ---- the full masked matrix: {4 semirings} × {complement} × {kernels} ----

// Oracle for any semiring: gold-standard product, then value-safe pattern
// filtering (mask-then-Hadamard, without the Hadamard's multiply).
mtx::CsrMatrix semiring_oracle(const std::string& s, const SpGemmProblem& p,
                               const mtx::CsrMatrix& mask, bool complement) {
  return dispatch_semiring(s, [&]<typename S>() {
    return mtx::pattern_filter(reference_spgemm_semiring<S>(p), mask,
                               complement);
  });
}

class MaskedSemiring : public ::testing::TestWithParam<std::string> {};

TEST_P(MaskedSemiring, EveryFusedKernelMatchesOracle) {
  const std::string semiring = GetParam();
  const mtx::CsrMatrix a = testutil::exact_er(140, 140, 5.0, 82);
  const mtx::CsrMatrix b = testutil::exact_er(140, 140, 5.0, 83);
  const mtx::CsrMatrix mask = testutil::exact_er(140, 140, 7.0, 84);
  const SpGemmProblem p = SpGemmProblem::multiply(a, b);

  for (const bool complement : {false, true}) {
    const mtx::CsrMatrix expected = semiring_oracle(semiring, p, mask, complement);
    // Direct fused kernels...
    const pb::MaskSpec ms{&mask, complement};
    dispatch_semiring(semiring, [&]<typename S>() {
      EXPECT_TRUE(equal_exact(spgemm_semiring<S>(a, b, ms), expected))
          << "spa " << semiring << " c=" << complement;
      EXPECT_TRUE(equal_exact(heap_spgemm_semiring<S>(p, ms), expected))
          << "heap " << semiring << " c=" << complement;
      EXPECT_TRUE(equal_exact(hash_spgemm_semiring<S>(p, ms), expected))
          << "hash " << semiring << " c=" << complement;
    });
    // ...and the same four through the descriptor path (pb included).
    for (const char* algo : {"pb", "heap", "hash", "spa"}) {
      SpGemmOp op;
      op.algo = algo;
      op.semiring = semiring;
      op.mask = &mask;
      op.complement = complement;
      SpGemmExecutor exec;
      EXPECT_TRUE(equal_exact(exec.run(p, op), expected))
          << algo << " " << semiring << " c=" << complement;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Semirings, MaskedSemiring,
                         ::testing::Values("plus_times", "min_plus",
                                           "max_min", "bool_or_and"));

TEST(MaskedSemiring2, EmptyFullAndDiagonalMasksAcrossKernels) {
  const mtx::CsrMatrix a = testutil::exact_er(96, 96, 4.0, 85);
  const SpGemmProblem p = SpGemmProblem::square(a);
  const mtx::CsrMatrix full_product = reference_spgemm(p);

  mtx::CooMatrix empty_coo(96, 96);
  const mtx::CsrMatrix empty = mtx::coo_to_csr(empty_coo);
  const mtx::CsrMatrix full = mtx::to_pattern(full_product);
  const mtx::CsrMatrix diagonal = mtx::CsrMatrix::identity(96);

  for (const char* algo : {"pb", "heap", "hash", "spa"}) {
    for (const mtx::CsrMatrix* mask : {&empty, &full, &diagonal}) {
      for (const bool complement : {false, true}) {
        SpGemmOp op;
        op.algo = algo;
        op.mask = mask;
        op.complement = complement;
        SpGemmExecutor exec;
        EXPECT_TRUE(equal_exact(
            exec.run(p, op),
            mtx::pattern_filter(full_product, *mask, complement)))
            << algo << " c=" << complement;
      }
    }
  }
}

}  // namespace
}  // namespace pbs
