//===- test_noise_analysis.cpp - Static range/noise analysis tests --------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the static range/noise-budget analysis (NoiseAnalysis.h and the
/// range/noise facet of hisa/AuditBackend.h): growth rules against
/// hand-computed closed forms, circuit-level bounds against analytic L1
/// envelopes, a deliberately under-scaled compile failing with
/// PrecisionBound and layer provenance, soundness against a real
/// encrypted run, determinism across thread counts, and the scale
/// search's static accept pruning.
///
//===----------------------------------------------------------------------===//

#include "core/NoiseAnalysis.h"

#include "core/Audit.h"
#include "core/Compiler.h"
#include "hisa/AuditBackend.h"
#include "nn/Networks.h"
#include "runtime/ReferenceOps.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

using namespace chet;

namespace {

//===----------------------------------------------------------------------===//
// Backend growth rules: hand-computed closed forms, no circuit involved.
// With no node envelopes the caps are infinite, so the rules are pure
// interval arithmetic.
//===----------------------------------------------------------------------===//

/// Stock power-of-two rotation keys, so every rotation is servable and
/// the verifier facet stays silent.
AuditConfig rawConfig() {
  AuditConfig C;
  C.Rns = true;
  C.LogN = 13;
  C.ScalePrimeCandidates = {uint64_t(1) << 25, uint64_t(1) << 25};
  C.StockPow2Keys = true;
  C.Noise = NoiseModel::create(SchemeKind::RnsCkks, 13,
                               {uint64_t(1) << 60, uint64_t(1) << 25,
                                uint64_t(1) << 25},
                               {uint64_t(1) << 60}, 0);
  return C;
}

TEST(AuditBackend, EncryptCarriesFreshNoiseAndEncodeQuant) {
  AuditConfig Config = rawConfig();
  AuditBackend B(Config);
  double Scale = std::ldexp(1.0, 25);
  auto P = B.encode({}, Scale);
  auto C = B.encrypt(P);
  EXPECT_DOUBLE_EQ(C.Abs, 0.5);
  EXPECT_DOUBLE_EQ(C.QuantErr, Config.Noise.encodeQuant() / Scale);
  EXPECT_DOUBLE_EQ(C.NoiseErr, Config.Noise.freshNoise() / Scale);
  EXPECT_DOUBLE_EQ(B.scaleOf(C), Scale);
}

TEST(AuditBackend, SingleMulChainMatchesClosedForm) {
  AuditConfig Config = rawConfig();
  AuditBackend B(Config);
  double Scale = std::ldexp(1.0, 25);
  auto A = B.encrypt(B.encode({}, Scale));
  auto C = B.encrypt(B.encode({}, Scale));

  // err(a*b) = |a|e_b + |b|e_a + e_a e_b, plus the relinearization key
  // switch at the product scale.
  double Ea = A.QuantErr + A.NoiseErr;
  double WantQuant = A.Abs * C.QuantErr + C.Abs * A.QuantErr;
  double WantNoise = A.Abs * C.NoiseErr + C.Abs * A.NoiseErr + Ea * Ea +
                     Config.Noise.keySwitchNoise() / (Scale * Scale);
  B.mulAssign(A, C);
  EXPECT_DOUBLE_EQ(A.Abs, 0.25);
  EXPECT_DOUBLE_EQ(A.Scale, Scale * Scale);
  EXPECT_DOUBLE_EQ(A.QuantErr, WantQuant);
  EXPECT_DOUBLE_EQ(A.NoiseErr, WantNoise);

  // Rescale sheds one prime and adds rounding noise at the new scale.
  double PreNoise = A.NoiseErr;
  uint64_t Div = B.maxRescale(A, static_cast<uint64_t>(A.Scale / Scale));
  EXPECT_EQ(Div, uint64_t(1) << 25);
  B.rescaleAssign(A, Div);
  EXPECT_DOUBLE_EQ(A.Scale, Scale);
  EXPECT_EQ(A.ConsumedPrimes, 1);
  EXPECT_DOUBLE_EQ(A.NoiseErr,
                   PreNoise + Config.Noise.rescaleNoise() / Scale);
}

TEST(AuditBackend, RotationLadderChargesOneKeySwitchPerHop) {
  AuditConfig Config = rawConfig();
  AuditBackend B(Config);
  double Scale = std::ldexp(1.0, 25);
  auto C = B.encrypt(B.encode({}, Scale));
  double Base = C.NoiseErr;
  double Ks = Config.Noise.keySwitchNoise() / Scale;
  for (int Hop = 1; Hop <= 4; ++Hop) {
    B.rotLeftAssign(C, 1 << Hop);
    EXPECT_DOUBLE_EQ(C.NoiseErr, Base + Hop * Ks);
  }
  // Value and quantization bounds are rotation-invariant.
  EXPECT_DOUBLE_EQ(C.Abs, 0.5);
  // A zero-step rotation degenerates to a copy: no key switch.
  double Before = C.NoiseErr;
  B.rotLeftAssign(C, 0);
  EXPECT_DOUBLE_EQ(C.NoiseErr, Before);
}

TEST(AuditBackend, StockKeyRotationChargesEveryPowerOfTwoHop) {
  // Under stock power-of-two keys a rotation by 7 = 4 + 2 + 1 runs three
  // key switches in the real backends; the bound must charge all three.
  AuditConfig Config = rawConfig();
  AuditBackend B(Config);
  double Scale = std::ldexp(1.0, 25);
  auto C = B.encrypt(B.encode({}, Scale));
  double Base = C.NoiseErr;
  B.rotLeftAssign(C, 7);
  EXPECT_DOUBLE_EQ(C.NoiseErr,
                   Base + 3 * Config.Noise.keySwitchNoise() / Scale);
  // The hoisted fan-out charges each amount its own hop count.
  auto Out = B.rotLeftMany(C, {7, 8});
  EXPECT_DOUBLE_EQ(Out[0].NoiseErr,
                   C.NoiseErr + 3 * Config.Noise.keySwitchNoise() / Scale);
  EXPECT_DOUBLE_EQ(Out[1].NoiseErr,
                   C.NoiseErr + Config.Noise.keySwitchNoise() / Scale);
  EXPECT_TRUE(B.events().empty());
}

TEST(AuditBackend, AdditionSumsBoundsAndErrors) {
  AuditConfig Config = rawConfig();
  AuditBackend B(Config);
  double Scale = std::ldexp(1.0, 25);
  auto A = B.encrypt(B.encode({}, Scale));
  auto C = B.encrypt(B.encode({}, Scale));
  double WantErr = A.QuantErr + C.QuantErr;
  B.addAssign(A, C);
  EXPECT_DOUBLE_EQ(A.Abs, 1.0);
  EXPECT_DOUBLE_EQ(A.QuantErr, WantErr);
  B.addScalarAssign(A, -2.0);
  EXPECT_DOUBLE_EQ(A.Abs, 3.0);
}

TEST(AuditBackend, NodeCapClampsIntervalButNotError) {
  AuditConfig Config = rawConfig();
  RangeEnvelope Env;
  Env.OutAbs = 0.75;
  Env.CapAbs = 0.75;
  Config.NodeEnv[4] = Env;
  AuditBackend B(Config);
  // Encrypt as input packing (outside any node, so kInputAbs applies),
  // then enter the capped node -- inside a node a data-scale encode is
  // classified as a bias, and this env has none.
  double Scale = std::ldexp(1.0, 25);
  auto A = B.encrypt(B.encode({}, Scale));
  auto C = B.copy(A);
  B.beginNode(4, "capped");
  double WantErr = 2 * A.QuantErr;
  B.addAssign(A, C); // naive bound 1.0, semantic cap 0.75
  EXPECT_DOUBLE_EQ(A.Abs, 0.75);
  EXPECT_DOUBLE_EQ(A.QuantErr, WantErr); // errors are never clamped
}

//===----------------------------------------------------------------------===//
// Circuit-level analysis: analytic envelopes and provenance.
//===----------------------------------------------------------------------===//

/// input(1x8x8) -> conv 3x3 (all weights W, bias Bias) -> square act.
TensorCircuit convActCircuit(double W, double Bias) {
  TensorCircuit Circ("noise-conv");
  int In = Circ.input(1, 8, 8);
  ConvWeights Wt;
  Wt.Cout = 1;
  Wt.Cin = 1;
  Wt.Kh = 3;
  Wt.Kw = 3;
  Wt.W.assign(9, W);
  Wt.Bias.assign(1, Bias);
  int Conv = Circ.conv2d(In, Wt, 1, 1);
  int Act = Circ.polyActivation(Conv, 1.0, 0.0);
  Circ.output(Act);
  return Circ;
}

/// Small-ring parameters: these tests are about noise soundness, not
/// security, and the 128-bit rings cost gigabytes of Galois keys.
CompilerOptions noiseOptions(int ScaleExp = 30) {
  CompilerOptions O;
  O.Scheme = SchemeKind::RnsCkks;
  O.Security = SecurityLevel::None;
  O.Scales = ScaleConfig::fromExponents(ScaleExp, ScaleExp, ScaleExp,
                                        std::min(ScaleExp, 16));
  return O;
}

TEST(NoiseAnalysis, RangeEnvelopesMatchL1TransferFunctions) {
  TensorCircuit Circ = convActCircuit(0.25, 0.125);
  auto Env = rangeEnvelopes(Circ, 0.5);
  // Conv node (id 1): L1 = 9 * 0.25, out = 0.5 * 2.25 + 0.125.
  EXPECT_DOUBLE_EQ(Env[1].OutAbs, 0.5 * 2.25 + 0.125);
  EXPECT_DOUBLE_EQ(Env[1].WeightAbs, 0.25);
  EXPECT_DOUBLE_EQ(Env[1].BiasAbs, 0.125);
  // Square activation (id 2): x^2 over |x| <= R.
  double R = Env[1].OutAbs;
  EXPECT_DOUBLE_EQ(Env[2].OutAbs, R * R);
  // Output node passes through.
  EXPECT_DOUBLE_EQ(Env[Circ.outputId()].OutAbs, R * R);
}

TEST(NoiseAnalysis, FcEnvelopeUsesWorstRowL1) {
  TensorCircuit Circ("noise-fc");
  int In = Circ.input(1, 4, 4);
  FcWeights Wt;
  Wt.Out = 2;
  Wt.In = 16;
  Wt.W.assign(32, 0.0);
  for (int I = 0; I < 16; ++I)
    Wt.W[static_cast<size_t>(I)] = (I % 2) ? 0.5 : -0.5; // row 0: L1 = 8
  Wt.W[16] = 0.25;                                       // row 1: L1 = .25
  Wt.Bias = {0.5, -1.5};
  int Fc = Circ.fullyConnected(In, Wt);
  Circ.output(Fc);
  auto Env = rangeEnvelopes(Circ, 0.5);
  EXPECT_DOUBLE_EQ(Env[1].OutAbs, 0.5 * 8.0 + 1.5);
  EXPECT_DOUBLE_EQ(Env[1].BiasAbs, 1.5);
}

TEST(NoiseAnalysis, CompiledCircuitCarriesFiniteBound) {
  TensorCircuit Circ = convActCircuit(0.25, 0.125);
  CompiledCircuit Compiled = compileCircuit(Circ, noiseOptions());
  ASSERT_TRUE(Compiled.Noise.Analyzed);
  EXPECT_TRUE(std::isfinite(Compiled.Noise.ErrorBound));
  EXPECT_GT(Compiled.Noise.ErrorBound, 0);
  EXPECT_DOUBLE_EQ(Compiled.Noise.ErrorBound,
                   Compiled.Noise.QuantBound + Compiled.Noise.NoiseBound);
  // The message bound is the activation's semantic envelope.
  auto Env = rangeEnvelopes(Circ, 0.5);
  EXPECT_LE(Compiled.Noise.MessageBound,
            Env[Circ.outputId()].OutAbs * (1 + 1e-9));
}

TEST(NoiseAnalysis, ReportNamesHotspotLayers) {
  TensorCircuit Circ = convActCircuit(0.25, 0.125);
  CompiledCircuit Compiled = compileCircuit(Circ, noiseOptions());
  NoiseReport R = analyzeNoise(Circ, Compiled);
  ASSERT_FALSE(R.PerNode.empty());
  EXPECT_EQ(R.PerNode.front().NodeId, -1); // input packing row
  auto Hot = R.hotspots(1);
  ASSERT_EQ(Hot.size(), 1u);
  // The activation squares the error; it must be the hotspot, and the
  // rendered report must name it.
  EXPECT_NE(R.str().find(Hot.front().Label), std::string::npos);
  for (const NoiseNodeReport &Row : R.PerNode)
    EXPECT_LE(Row.PeakErr, Hot.front().PeakErr);
}

TEST(NoiseAnalysis, UnderScaledCircuitFailsWithPrecisionBound) {
  // Weights of 1.0 keep the circuit semantically harmless but leave
  // every error term un-attenuated; at 2^16 scales the fresh encryption
  // noise alone exceeds the target.
  TensorCircuit Circ = convActCircuit(1.0, 0.5);
  CompilerOptions Bad = noiseOptions(16);
  Bad.MaxOutputError = 1.0;
  try {
    compileCircuit(Circ, Bad);
    FAIL() << "under-scaled compile must throw PrecisionBound";
  } catch (const ChetError &E) {
    EXPECT_EQ(E.code(), ErrorCode::PrecisionBound);
    // Layer provenance: the hotspot report names the offending layers.
    EXPECT_NE(std::string(E.what()).find("layer '"), std::string::npos);
  }
  // The same circuit and target compile fine at healthy scales: the
  // failure above is the scales, not the target.
  CompilerOptions Good = noiseOptions(30);
  Good.MaxOutputError = 1.0;
  EXPECT_NO_THROW(compileCircuit(Circ, Good));
}

TEST(NoiseAnalysis, StaticBoundIsSoundOnEncryptedRun) {
  TensorCircuit Circ = makeLeNet5Small(8);
  CompilerOptions Options = noiseOptions();
  CompiledCircuit Compiled = compileCircuit(Circ, Options);
  ASSERT_TRUE(Compiled.Noise.Analyzed);
  Tensor3 Image = randomImageFor(Circ, 77);
  Tensor3 Want = Circ.evaluatePlain(Image);
  // Unconstrained security lets the key-switch digits span the whole
  // chain; the bound must hold for one-prime, two-prime and whole-chain
  // digits alike, and wider digits must not loosen it.
  const std::vector<uint64_t> AllSpecial = Compiled.Rns->SpecialPrimes;
  const size_t ChainLen = Compiled.Rns->ChainPrimes.size();
  ASSERT_EQ(AllSpecial.size(), ChainLen);
  double OnePrimeBound = 0;
  for (size_t Alpha : {size_t(1), size_t(2), ChainLen}) {
    Compiled.Rns->SpecialPrimes.assign(AllSpecial.begin(),
                                       AllSpecial.begin() + Alpha);
    NoiseReport Bound = auditCircuit(Circ, Compiled).Noise;
    RnsCkksBackend Backend = makeRnsBackend(Compiled);
    Tensor3 Got = runEncryptedInference(Backend, Circ, Image,
                                        Compiled.Scales, Compiled.Policy);
    double Measured = maxAbsDiff(Got, Want);
    EXPECT_LE(Measured, Bound.ErrorBound) << "alpha " << Alpha;
    if (Alpha == 1)
      OnePrimeBound = Bound.ErrorBound;
    else
      EXPECT_LE(Bound.ErrorBound, OnePrimeBound) << "alpha " << Alpha;
    // And the message bound really bounds the outputs.
    for (double V : Want.Data)
      EXPECT_LE(std::fabs(V), Bound.MessageBound * (1 + 1e-9));
  }
}

TEST(NoiseAnalysis, BoundIsDeterministicAcrossThreadCounts) {
  TensorCircuit Circ = makeLeNet5Small(8);
  CompilerOptions Options = noiseOptions();
  std::vector<double> Bounds;
  for (unsigned Threads : {1u, 2u, 8u}) {
    setGlobalThreadCount(Threads);
    CompiledCircuit Compiled = compileCircuit(Circ, Options);
    NoiseReport R = analyzeNoise(Circ, Compiled);
    EXPECT_DOUBLE_EQ(R.ErrorBound, Compiled.Noise.ErrorBound);
    Bounds.push_back(R.ErrorBound);
  }
  setGlobalThreadCount(0);
  EXPECT_EQ(Bounds[0], Bounds[1]); // bit-identical, not approximately
  EXPECT_EQ(Bounds[0], Bounds[2]);
}

//===----------------------------------------------------------------------===//
// Scale search: static accepts replace encrypted trials, same answer.
//===----------------------------------------------------------------------===//

TEST(NoiseAnalysis, ScaleSearchPrunesEncryptedRunsWithIdenticalResult) {
  TensorCircuit Circ = convActCircuit(0.25, 0.125);
  CompilerOptions Options = noiseOptions();
  // Tolerance chosen from the starting point's own static bound, so at
  // least that candidate is statically provable.
  CompiledCircuit Compiled = compileCircuit(Circ, Options);
  ASSERT_TRUE(Compiled.Noise.Analyzed);
  ScaleSearchOptions Baseline;
  Baseline.Tolerance = Compiled.Noise.ErrorBound * 2;
  Baseline.UseStaticBound = false;
  ScaleSearchOptions Pruned = Baseline;
  Pruned.UseStaticBound = true;

  std::vector<Tensor3> Inputs = {randomImageFor(Circ, 3)};
  ScaleSearchResult Ref = selectScales(Circ, Options, Inputs, Baseline);
  ScaleSearchResult Got = selectScales(Circ, Options, Inputs, Pruned);

  // Identical final scales and trial decisions...
  EXPECT_EQ(Got.Scales.Image, Ref.Scales.Image);
  EXPECT_EQ(Got.Scales.Weight, Ref.Scales.Weight);
  EXPECT_EQ(Got.Scales.Scalar, Ref.Scales.Scalar);
  EXPECT_EQ(Got.Scales.Mask, Ref.Scales.Mask);
  EXPECT_EQ(Got.Trials, Ref.Trials);
  EXPECT_EQ(Got.AcceptedSteps, Ref.AcceptedSteps);
  // ...with strictly fewer encrypted evaluations.
  EXPECT_EQ(Ref.EncryptedRuns, Ref.Trials);
  EXPECT_EQ(Ref.StaticAccepts, 0);
  EXPECT_GE(Got.StaticAccepts, 1);
  EXPECT_LT(Got.EncryptedRuns, Ref.EncryptedRuns);
  // Every trial is exactly one of the two: statically accepted, or run
  // encrypted (the static bound can only prove acceptance, so every
  // rejection went through ciphertexts).
  EXPECT_EQ(Got.EncryptedRuns + Got.StaticAccepts, Got.Trials);
  EXPECT_EQ(Got.StaticAccepts,
            Ref.EncryptedRuns - Got.EncryptedRuns); // one-for-one savings
}

} // namespace
