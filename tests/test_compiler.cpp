//===- test_compiler.cpp - Tests for the compiler passes -------------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"

#include "nn/Networks.h"
#include "runtime/ReferenceOps.h"
#include "support/Prng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

using namespace chet;

namespace {

/// A small two-conv circuit that exercises padding, pooling, activation,
/// and an FC head while staying fast under real encryption.
TensorCircuit tinyCircuit(uint64_t Seed = 50) {
  Prng Rng(Seed);
  TensorCircuit Circ("tiny");
  ConvWeights Conv(2, 1, 3, 3);
  for (double &V : Conv.W)
    V = Rng.nextDouble(-0.5, 0.5);
  FcWeights Fc(4, 2 * 4 * 4);
  for (double &V : Fc.W)
    V = Rng.nextDouble(-0.3, 0.3);
  int X = Circ.input(1, 8, 8);
  X = Circ.conv2d(X, Conv, 1, 1);
  X = Circ.polyActivation(X, 0.25, 0.5);
  X = Circ.averagePool(X, 2, 2);
  X = Circ.fullyConnected(X, Fc);
  Circ.output(X);
  return Circ;
}

CompilerOptions baseOptions(SchemeKind Scheme) {
  CompilerOptions O;
  O.Scheme = Scheme;
  O.Security = SecurityLevel::Classical128;
  O.Scales = ScaleConfig::fromExponents(30, 30, 30, 16);
  return O;
}

TEST(Compiler, AnalyzesAllFourPolicies) {
  CompiledCircuit C = compileCircuit(tinyCircuit(), baseOptions(SchemeKind::RnsCkks));
  EXPECT_EQ(C.PerPolicy.size(), 4u);
  for (const PolicyAnalysis &P : C.PerPolicy) {
    EXPECT_GT(P.EstimatedCost, 0);
    EXPECT_GT(P.LogQ, 60);
    EXPECT_GE(P.LogN, 11);
    EXPECT_FALSE(P.RotationSteps.empty());
  }
}

TEST(Compiler, PicksTheCheapestPolicy) {
  CompiledCircuit C =
      compileCircuit(tinyCircuit(), baseOptions(SchemeKind::RnsCkks));
  for (const PolicyAnalysis &P : C.PerPolicy)
    EXPECT_LE(C.EstimatedCost, P.EstimatedCost);
}

TEST(Compiler, ParametersRespectSecurityTable) {
  for (SchemeKind Scheme : {SchemeKind::RnsCkks, SchemeKind::BigCkks}) {
    CompiledCircuit C = compileCircuit(tinyCircuit(), baseOptions(Scheme));
    double LogQP = Scheme == SchemeKind::RnsCkks
                       ? C.Rns->logQP()
                       : C.Big->logQP();
    EXPECT_LE(LogQP,
              maxLogQForSecurity(C.LogN, SecurityLevel::Classical128));
    // Minimality: one dimension smaller must not fit even the smallest
    // key-switch modulus (RNS: one special prime; the rest of the list
    // only fills the budget the chosen dimension leaves over).
    double MinLogQP =
        Scheme == SchemeKind::RnsCkks
            ? C.Rns->logQ() +
                  std::log2(static_cast<double>(C.Rns->SpecialPrimes[0]))
            : LogQP;
    if (C.LogN > 11) {
      EXPECT_GT(MinLogQP, maxLogQForSecurity(C.LogN - 1,
                                             SecurityLevel::Classical128));
    }
  }
}

TEST(Compiler, FootprintPredictsTheBackendsKeyBytes) {
  // Selected keys and the stock power-of-two set, on both schemes.
  for (SchemeKind Scheme : {SchemeKind::RnsCkks, SchemeKind::BigCkks})
    for (bool Select : {true, false}) {
      CompilerOptions O = baseOptions(Scheme);
      O.SelectRotationKeys = Select;
      CompiledCircuit C = compileCircuit(tinyCircuit(), O);
      // Keys after the activation serve lower levels only (trimmed).
      const int Top = C.Rns ? C.Rns->levels() : C.Big->LogQ;
      EXPECT_EQ(std::any_of(C.RotationKeys.begin(), C.RotationKeys.end(),
                            [&](const RotationKeySpec &K) {
                              return K.Level < Top;
                            }),
                Select);
      uint64_t Held = Scheme == SchemeKind::RnsCkks
                          ? makeRnsBackend(C).keyBytes()
                          : makeBigBackend(C).keyBytes();
      EXPECT_GT(C.Footprint.KeyBytes, 0u);
      EXPECT_EQ(C.Footprint.KeyBytes, Held)
          << (Scheme == SchemeKind::RnsCkks ? "rns" : "big")
          << (Select ? ", selected keys" : ", stock keys");
    }
}

TEST(Compiler, EstimatedCostsMatchTheRecordedPrices) {
  // Per-policy estimates for LeNet-5-small(1/2) at the bench scales,
  // recorded when the cost was still accumulated op by op during a
  // second analysis run; pricing the counts of the sizing run must
  // reproduce them up to summation order. Naive is the same counts
  // priced without hoisting (equal to the estimate under stock keys,
  // where nothing is hoisted). Policy order: kAllLayoutPolicies.
  struct Recorded {
    SchemeKind Scheme;
    bool SelectedKeys;
    double Hoisted[4];
    double Naive[4];
  };
  const Recorded Table[] = {
      {SchemeKind::RnsCkks,
       true,
       {35264521830.401062, 42395880652.799599, 27656801484.800274,
        10954440704.000113},
       {48674760294.400223, 62041738444.798294, 43230514380.799835,
        24364679167.999958}},
      {SchemeKind::RnsCkks,
       false,
       {74657215283.195587, 85429675622.398178, 72540284518.397873,
        50347134156.799568},
       {74657215283.195587, 85429675622.398178, 72540284518.397873,
        50347134156.799568}},
      {SchemeKind::BigCkks,
       true,
       {37665355528.38813, 37131755087.258148, 56382382107.769005,
        10597142460.890368},
       {39189595407.908997, 39735926499.362312, 59864430714.6483,
        12121382340.411213}},
      {SchemeKind::BigCkks,
       false,
       {49200940229.857124, 48526380664.913048, 82208329797.424011,
        22132727162.359138},
       {49200940229.857124, 48526380664.913048, 82208329797.424011,
        22132727162.359138}},
  };
  TensorCircuit Circ = makeLeNet5Small(2);
  for (const Recorded &R : Table) {
    CompilerOptions O = baseOptions(R.Scheme);
    O.Scales = ScaleConfig::fromExponents(25, 25, 25, 12);
    O.SelectRotationKeys = R.SelectedKeys;
    CompiledCircuit C = compileCircuit(Circ, O);
    ASSERT_EQ(C.PerPolicy.size(), 4u);
    for (int P = 0; P < 4; ++P) {
      const PolicyAnalysis &A = C.PerPolicy[P];
      std::string What = std::string(schemeName(R.Scheme)) +
                         (R.SelectedKeys ? " selected " : " stock ") +
                         layoutPolicyName(A.Policy);
      ASSERT_EQ(A.Policy, kAllLayoutPolicies[P]) << What;
      EXPECT_NEAR(A.EstimatedCost, R.Hoisted[P], 1e-12 * R.Hoisted[P])
          << What;
      EXPECT_NEAR(policyCost(A, R.Scheme, /*Hoisted=*/false), R.Naive[P],
                  1e-12 * R.Naive[P])
          << What;
    }
  }
}

TEST(Compiler, RnsChainConsumesCandidatesInAnalysisOrder) {
  CompiledCircuit C =
      compileCircuit(tinyCircuit(), baseOptions(SchemeKind::RnsCkks));
  ASSERT_TRUE(C.Rns.has_value());
  const auto &Chain = C.Rns->ChainPrimes;
  ASSERT_GE(Chain.size(), 2u);
  // The tail of the chain is the first candidate consumed; candidates
  // descend from just below 2^30, so the tail must be the largest
  // scaling prime.
  for (size_t I = 2; I < Chain.size(); ++I)
    EXPECT_LT(Chain[I - 1], Chain[I]);
}

TEST(Compiler, DeeperCircuitsConsumeMoreModulus) {
  CompilerOptions O = baseOptions(SchemeKind::BigCkks);
  TensorCircuit Shallow = tinyCircuit();
  CompiledCircuit C1 = compileCircuit(Shallow, O);

  // Stack a second activation to deepen the circuit.
  Prng Rng(51);
  TensorCircuit Deep("deep");
  ConvWeights Conv(2, 1, 3, 3);
  for (double &V : Conv.W)
    V = Rng.nextDouble(-0.5, 0.5);
  int X = Deep.input(1, 8, 8);
  X = Deep.conv2d(X, Conv, 1, 1);
  X = Deep.polyActivation(X, 0.25, 0.5);
  X = Deep.polyActivation(X, 0.25, 0.5);
  X = Deep.polyActivation(X, 0.25, 0.5);
  Deep.output(X);
  CompiledCircuit C2 = compileCircuit(Deep, O);
  EXPECT_GT(C2.LogQ, C1.LogQ);
}

TEST(Compiler, SelectedRotationKeysAreSufficientAndExact) {
  CompilerOptions O = baseOptions(SchemeKind::RnsCkks);
  TensorCircuit Circ = tinyCircuit();
  CompiledCircuit C = compileCircuit(Circ, O);
  ASSERT_FALSE(C.RotationKeys.empty());
  EXPECT_FALSE(C.Rns->StockPow2Keys);

  // Build the backend with exactly the selected keys and run for real:
  // every rotation must find its dedicated key (no fallback possible
  // since the power-of-two set was not generated).
  RnsCkksBackend Backend = makeRnsBackend(C);
  EXPECT_EQ(Backend.rotationKeyCount(), C.RotationKeys.size());
  Tensor3 Image = randomImageFor(Circ, 60);
  Tensor3 Got =
      runEncryptedInference(Backend, Circ, Image, O.Scales, C.Policy);
  Tensor3 Want = Circ.evaluatePlain(Image);
  EXPECT_LT(maxAbsDiff(Got, Want), 5e-2);
}

TEST(Compiler, CompiledParametersEvaluateCorrectlyBothSchemes) {
  TensorCircuit Circ = tinyCircuit();
  Tensor3 Image = randomImageFor(Circ, 61);
  Tensor3 Want = Circ.evaluatePlain(Image);

  {
    CompiledCircuit C =
        compileCircuit(Circ, baseOptions(SchemeKind::RnsCkks));
    RnsCkksBackend Backend = makeRnsBackend(C);
    Tensor3 Got = runEncryptedInference(Backend, Circ, Image,
                                        C.Scales, C.Policy);
    EXPECT_LT(maxAbsDiff(Got, Want), 5e-2);
  }
  {
    CompiledCircuit C =
        compileCircuit(Circ, baseOptions(SchemeKind::BigCkks));
    // HEAAN-style parameters for this tiny circuit exceed the 128-bit
    // budget check only via the doubled key modulus; keep the check on.
    BigCkksBackend Backend = makeBigBackend(C);
    Tensor3 Got = runEncryptedInference(Backend, Circ, Image,
                                        C.Scales, C.Policy);
    EXPECT_LT(maxAbsDiff(Got, Want), 5e-2);
  }
}

TEST(Compiler, FixedPolicyIsHonored) {
  CompilerOptions O = baseOptions(SchemeKind::RnsCkks);
  O.SearchLayouts = false;
  O.FixedPolicy = LayoutPolicy::AllCHW;
  CompiledCircuit C = compileCircuit(tinyCircuit(), O);
  EXPECT_EQ(C.Policy, LayoutPolicy::AllCHW);
  EXPECT_EQ(C.PerPolicy.size(), 1u);
}

TEST(Compiler, ManualKeyConfigurationKeepsStockKeys) {
  CompilerOptions O = baseOptions(SchemeKind::RnsCkks);
  O.SelectRotationKeys = false;
  CompiledCircuit C = compileCircuit(tinyCircuit(), O);
  EXPECT_TRUE(C.RotationKeys.empty());
  EXPECT_TRUE(C.Rns->StockPow2Keys);
  // Cost with power-of-two fallback must not be below the selected-keys
  // cost for the same policy.
  CompilerOptions O2 = baseOptions(SchemeKind::RnsCkks);
  CompiledCircuit C2 = compileCircuit(tinyCircuit(), O2);
  for (size_t I = 0; I < C.PerPolicy.size(); ++I)
    EXPECT_GE(C.PerPolicy[I].EstimatedCost,
              C2.PerPolicy[I].EstimatedCost);
}

TEST(Compiler, ScaleSelectionShrinksScales) {
  TensorCircuit Circ = tinyCircuit();
  CompilerOptions O = baseOptions(SchemeKind::RnsCkks);
  O.Scales = ScaleConfig::fromExponents(32, 32, 32, 20);
  std::vector<Tensor3> Inputs = {randomImageFor(Circ, 70),
                                 randomImageFor(Circ, 71)};
  ScaleSearchOptions SO;
  SO.Tolerance = 0.05;
  SO.StepBits = 4;
  SO.MinExponent = 12;
  ScaleSearchResult R = selectScales(Circ, O, Inputs, SO);
  EXPECT_GT(R.Trials, 1);
  // At least one exponent should shrink at this loose tolerance.
  EXPECT_GT(R.AcceptedSteps, 0);
  double Before = O.Scales.Image * O.Scales.Weight * O.Scales.Scalar *
                  O.Scales.Mask;
  double After = R.Scales.Image * R.Scales.Weight * R.Scales.Scalar *
                 R.Scales.Mask;
  EXPECT_LT(After, Before);

  // The selected scales must still satisfy the tolerance end-to-end.
  CompilerOptions Final = O;
  Final.Scales = R.Scales;
  CompiledCircuit C = compileCircuit(Circ, Final);
  RnsCkksBackend Backend = makeRnsBackend(C);
  for (const Tensor3 &Image : Inputs) {
    Tensor3 Got = runEncryptedInference(Backend, Circ, Image, R.Scales,
                                        C.Policy);
    EXPECT_LT(maxAbsDiff(Got, Circ.evaluatePlain(Image)), SO.Tolerance);
  }
}

} // namespace
