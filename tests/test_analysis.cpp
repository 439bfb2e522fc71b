//===- test_analysis.cpp - Tests for the analysis interpretation -----------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Analysis.h"

#include "ckks/RnsCkks.h"
#include "core/Evaluate.h"
#include "hisa/Hisa.h"
#include "math/PrimeGen.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace chet;

namespace {

AnalysisConfig rnsConfig(int LogN = 12) {
  AnalysisConfig C;
  C.Scheme = SchemeKind::RnsCkks;
  C.LogN = LogN;
  C.ScalePrimeCandidates =
      generateNttPrimes(30, 16, 32, {RnsCkksParams::candidateSpecial()});
  return C;
}

AnalysisConfig ckksConfig(int LogN = 12) {
  AnalysisConfig C;
  C.Scheme = SchemeKind::BigCkks;
  C.LogN = LogN;
  return C;
}

TEST(Analysis, CkksMaxRescaleIsLargestPowerOfTwo) {
  AnalysisBackend B(ckksConfig());
  AnalysisBackend::Ct C;
  C.Scale = std::ldexp(1.0, 60);
  EXPECT_EQ(B.maxRescale(C, 1), 1u);
  EXPECT_EQ(B.maxRescale(C, 1023), 512u);
  EXPECT_EQ(B.maxRescale(C, 1024), 1024u);
}

TEST(Analysis, CkksRescaleTracksConsumedModulus) {
  AnalysisBackend B(ckksConfig());
  auto C = B.encrypt(B.encode({}, std::ldexp(1.0, 40)));
  B.mulScalarAssign(C, 1.0, uint64_t(1) << 30);
  uint64_t D = B.maxRescale(C, uint64_t(1) << 30);
  EXPECT_EQ(D, uint64_t(1) << 30);
  B.rescaleAssign(C, D);
  EXPECT_DOUBLE_EQ(B.maxLogConsumed(), 30.0);
  EXPECT_DOUBLE_EQ(B.scaleOf(C), std::ldexp(1.0, 40));
}

TEST(Analysis, RnsMaxRescaleWalksCandidateList) {
  AnalysisConfig Cfg = rnsConfig();
  AnalysisBackend B(Cfg);
  AnalysisBackend::Ct C;
  uint64_t Q0 = Cfg.ScalePrimeCandidates[0];
  uint64_t Q1 = Cfg.ScalePrimeCandidates[1];
  EXPECT_EQ(B.maxRescale(C, Q0 - 1), 1u);
  EXPECT_EQ(B.maxRescale(C, Q0), Q0);
  // Just below the two-prime product: still one prime.
  EXPECT_EQ(B.maxRescale(C, Q0 * 2), Q0);
  unsigned __int128 Two = static_cast<unsigned __int128>(Q0) * Q1;
  ASSERT_LT(Two, static_cast<unsigned __int128>(UINT64_MAX));
  EXPECT_EQ(B.maxRescale(C, static_cast<uint64_t>(Two)), Q0 * Q1);
}

TEST(Analysis, RnsRescaleConsumesInOrder) {
  AnalysisConfig Cfg = rnsConfig();
  AnalysisBackend B(Cfg);
  auto C = B.encrypt(B.encode({}, std::ldexp(1.0, 30)));
  B.mulScalarAssign(C, 1.0, uint64_t(1) << 30);
  B.mulScalarAssign(C, 1.0, uint64_t(1) << 30);
  uint64_t D = B.maxRescale(C, uint64_t(1) << 60);
  EXPECT_EQ(D, Cfg.ScalePrimeCandidates[0] * Cfg.ScalePrimeCandidates[1]);
  B.rescaleAssign(C, D);
  EXPECT_EQ(B.maxConsumedPrimes(), 2);
  // A second ciphertext consumes its own prefix of the same list.
  auto C2 = B.encrypt(B.encode({}, std::ldexp(1.0, 30)));
  B.mulScalarAssign(C2, 1.0, uint64_t(1) << 30);
  uint64_t D2 = B.maxRescale(C2, uint64_t(1) << 31);
  EXPECT_EQ(D2, Cfg.ScalePrimeCandidates[0]);
}

TEST(Analysis, RotationStepsAreCollectedNormalized) {
  AnalysisBackend B(rnsConfig(12)); // 2048 slots
  auto C = B.encrypt(B.encode({}, 1024.0));
  B.rotLeftAssign(C, 5);
  B.rotLeftAssign(C, 0); // no-op: not recorded
  B.rotRightAssign(C, 3);
  B.rotLeftAssign(C, 2048 + 7); // wraps to 7
  std::set<int> Expected = {5, 2048 - 3, 7};
  EXPECT_EQ(B.rotationSteps(), Expected);
}

TEST(Analysis, HoistedFanOutCollectsAmountsOnceAndPricesShared) {
  CostModel Model = CostModel::create(SchemeKind::RnsCkks, 12);
  AnalysisBackend B(rnsConfig(12));
  auto C = B.encrypt(B.encode({}, 1024.0));
  // Repeated, negative-equivalent, and no-op amounts: the rotation-key
  // set collects each normalized amount exactly once.
  auto Out = B.rotLeftMany(C, {5, 5, 2048 - 3, 0, 2048 + 7});
  EXPECT_EQ(Out.size(), 5u);
  std::set<int> Expected = {5, 2048 - 3, 7};
  EXPECT_EQ(B.rotationSteps(), Expected);
  // Pricing: one shared decomposition plus a marginal term per nonzero
  // amount -- strictly cheaper than the four naive rotations, which is
  // what the batch costs priced without hoisting.
  double Hoisted = estimateCost(B.counts(), Model, 5);
  AnalysisBackend Naive(rnsConfig(12));
  auto C2 = Naive.encrypt(Naive.encode({}, 1024.0));
  for (int S : {5, 5, 2048 - 3, 2048 + 7})
    Naive.rotLeftAssign(C2, S);
  double NaiveCost = estimateCost(Naive.counts(), Model, 5);
  EXPECT_GT(Hoisted, 0.0);
  EXPECT_LT(Hoisted, NaiveCost);
  EXPECT_DOUBLE_EQ(estimateCost(B.counts(), Model, 5, /*Hoisted=*/false),
                   NaiveCost);
  EXPECT_EQ(B.opCounts().at("rotateHoistShared"), 1u);
  EXPECT_EQ(B.opCounts().at("rotate"), 4u);
}

TEST(Analysis, CountsAreKeyedByConsumedModulus) {
  // Each count is priced at the modulus its ciphertext had left: a
  // rotation before a rescale runs on five primes, one after on four.
  CostModel Model = CostModel::create(SchemeKind::RnsCkks, 12);
  AnalysisBackend B(rnsConfig(12));
  auto C = B.encrypt(B.encode({}, std::ldexp(1.0, 30)));
  B.rotLeftAssign(C, 3);
  B.mulScalarAssign(C, 1.0, uint64_t(1) << 30);
  B.rescaleAssign(C, B.maxRescale(C, uint64_t(1) << 31));
  B.rotLeftAssign(C, 3);
  const LevelOpCounts &Counts = B.counts();
  ASSERT_EQ(Counts.Rows.size(), 2u);
  auto At = [&](int L, CountedOp Op) {
    return Counts.Rows.at(L)[static_cast<size_t>(Op)];
  };
  EXPECT_EQ(At(0, CountedOp::Rotate), 1u);
  EXPECT_EQ(At(0, CountedOp::Rescale), 1u);
  EXPECT_EQ(At(1, CountedOp::Rotate), 1u);
  EXPECT_EQ(At(1, CountedOp::Rescale), 0u);
  EXPECT_NEAR(estimateCost(Counts, Model, 5),
              Model.encode() + Model.rotate(5) + Model.mulScalar(5) +
                  Model.rescale(5) + Model.rotate(4),
              1e-6);
  // Past the sized chain the price floors at one prime.
  EXPECT_NEAR(estimateCost(Counts, Model, 1),
              Model.encode() + 2 * Model.rotate(1) + Model.mulScalar(1) +
                  Model.rescale(1),
              1e-6);
}

TEST(Analysis, Pow2FallbackCostsMoreHops) {
  CostModel Model = CostModel::create(SchemeKind::RnsCkks, 12);
  AnalysisConfig Cfg = rnsConfig();
  auto Cost = [&](const AnalysisBackend &B) {
    return estimateCost(B.counts(), Model, 5);
  };

  // Baseline: the cost of encode + encrypt alone.
  AnalysisBackend EncodeOnly(Cfg);
  (void)EncodeOnly.encrypt(EncodeOnly.encode({}, 1024.0));
  double EncodeCost = Cost(EncodeOnly);

  Cfg.SelectedRotationKeys = true;
  AnalysisBackend Selected(Cfg);
  auto C1 = Selected.encrypt(Selected.encode({}, 1024.0));
  Selected.rotLeftAssign(C1, 7); // 3 bits set

  Cfg.SelectedRotationKeys = false;
  AnalysisBackend Fallback(Cfg);
  auto C2 = Fallback.encrypt(Fallback.encode({}, 1024.0));
  Fallback.rotLeftAssign(C2, 7);

  EXPECT_NEAR(Cost(Fallback) - EncodeCost, 3 * (Cost(Selected) - EncodeCost),
              1e-6);
  EXPECT_EQ(Fallback.opCounts().at("rotateHops"), 2u);
  // Power-of-two steps cost the same either way.
  AnalysisBackend FallbackPow2(Cfg);
  Cfg.SelectedRotationKeys = true;
  AnalysisBackend SelectedPow2(Cfg);
  auto C3 = SelectedPow2.encrypt(SelectedPow2.encode({}, 1024.0));
  SelectedPow2.rotLeftAssign(C3, 8);
  auto C4 = FallbackPow2.encrypt(FallbackPow2.encode({}, 1024.0));
  FallbackPow2.rotLeftAssign(C4, 8);
  EXPECT_NEAR(Cost(SelectedPow2), Cost(FallbackPow2), 1e-6);
}

TEST(Analysis, CostModelMonotoneInModulusState) {
  for (SchemeKind Scheme : {SchemeKind::RnsCkks, SchemeKind::BigCkks}) {
    CostModel M = CostModel::create(Scheme, 13, 400);
    double Lo = Scheme == SchemeKind::RnsCkks ? 3 : 120;
    double Hi = Scheme == SchemeKind::RnsCkks ? 9 : 360;
    EXPECT_LT(M.add(Lo), M.add(Hi));
    EXPECT_LT(M.mulPlain(Lo), M.mulPlain(Hi));
    EXPECT_LT(M.mulCipher(Lo), M.mulCipher(Hi));
    EXPECT_LT(M.rotate(Lo), M.rotate(Hi));
    // Key-switched ops dominate plain ops (Table 1's separation).
    EXPECT_GT(M.mulCipher(Hi), M.mulPlain(Hi));
  }
}

TEST(Analysis, RnsMulScalarVsMulPlainGapSmallerThanCkks) {
  // The crux of the HW/CHW tradeoff (Section 4.2): mulPlain/mulScalar is
  // about constant in RNS-CKKS but grows like log N in CKKS.
  CostModel Rns = CostModel::create(SchemeKind::RnsCkks, 14);
  CostModel Big = CostModel::create(SchemeKind::BigCkks, 14, 400);
  double RnsRatio = Rns.mulPlain(8) / Rns.mulScalar(8);
  double BigRatio = Big.mulPlain(300) / Big.mulScalar(300);
  EXPECT_LT(RnsRatio, 4.0);
  EXPECT_GT(BigRatio, 8.0);
}

} // namespace
