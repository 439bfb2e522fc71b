//===- test_kernels_encrypted.cpp - Kernels under real encryption ----------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the tensor kernels under both real CKKS backends on a small
/// conv -> activation -> pool -> FC pipeline and checks the decrypted
/// results against the float reference. This is the end-to-end property
/// the whole system rests on: the same kernel template code that passed
/// the plain tests must stay within fixed-point tolerance under real
/// encrypted evaluation, including rescaling and key switching.
///
//===----------------------------------------------------------------------===//

#include "runtime/Kernels.h"

#include "ckks/BigCkks.h"
#include "ckks/RnsCkks.h"
#include "ckks/Serialization.h"
#include "core/Analysis.h"
#include "hisa/PlainBackend.h"
#include "hisa/ProfilingBackend.h"
#include "runtime/ReferenceOps.h"
#include "support/Prng.h"

#include <gtest/gtest.h>

#include <set>

using namespace chet;

namespace {

Tensor3 randomTensor(int C, int H, int W, uint64_t Seed) {
  Tensor3 T(C, H, W);
  Prng Rng(Seed);
  for (double &V : T.Data)
    V = Rng.nextDouble(-1, 1);
  return T;
}

ConvWeights randomConv(int Cout, int Cin, int K, uint64_t Seed) {
  ConvWeights Wt(Cout, Cin, K, K);
  Prng Rng(Seed);
  for (double &V : Wt.W)
    V = Rng.nextDouble(-0.5, 0.5);
  for (double &V : Wt.Bias)
    V = Rng.nextDouble(-0.2, 0.2);
  return Wt;
}

FcWeights randomFc(int Out, int In, uint64_t Seed) {
  FcWeights Wt(Out, In);
  Prng Rng(Seed);
  for (double &V : Wt.W)
    V = Rng.nextDouble(-0.3, 0.3);
  for (double &V : Wt.Bias)
    V = Rng.nextDouble(-0.2, 0.2);
  return Wt;
}

template <HisaBackend B>
void runPipeline(B &Backend, LayoutKind Kind, double Tolerance) {
  ScaleConfig S = ScaleConfig::fromExponents(30, 30, 30, 16);
  Tensor3 In = randomTensor(1, 8, 8, 1);
  ConvWeights Conv = randomConv(2, 1, 3, 2);
  FcWeights Fc = randomFc(4, 2 * 4 * 4, 3);

  TensorLayout L =
      makeInputLayout(Kind, 1, 8, 8, /*PadPhys=*/1, Backend.slotCount());
  auto Enc = encryptTensor(Backend, In, L, S);
  auto C1 = conv2d(Backend, Enc, Conv, 1, 1, S);
  auto A1 = polyActivation(Backend, C1, 0.25, 0.5, S);
  auto P1 = averagePool(Backend, A1, 2, 2, S);
  auto Out = fullyConnected(Backend, P1, Fc, S);
  Tensor3 Got = decryptTensor(Backend, Out);

  Tensor3 Want = refFullyConnected(
      refAveragePool(refPolyActivation(refConv2d(In, Conv, 1, 1), 0.25, 0.5),
                     2, 2),
      Fc);
  ASSERT_EQ(Got.C, Want.C);
  EXPECT_LT(maxAbsDiff(Got, Want), Tolerance);
}

TEST(EncryptedKernels, RnsCkksPipelineHW) {
  RnsCkksParams P = RnsCkksParams::create(/*LogN=*/12, /*Levels=*/10,
                                          /*FirstBits=*/60, /*ScaleBits=*/30);
  P.Security = SecurityLevel::None;
  RnsCkksBackend Backend(P);
  runPipeline(Backend, LayoutKind::HW, 1e-2);
}

TEST(EncryptedKernels, RnsCkksPipelineCHW) {
  RnsCkksParams P = RnsCkksParams::create(12, 10, 60, 30);
  P.Security = SecurityLevel::None;
  RnsCkksBackend Backend(P);
  runPipeline(Backend, LayoutKind::CHW, 1e-2);
}

TEST(EncryptedKernels, BigCkksPipelineHW) {
  BigCkksParams P;
  P.LogN = 12;
  P.LogQ = 400;
  P.Security = SecurityLevel::None;
  BigCkksBackend Backend(P);
  runPipeline(Backend, LayoutKind::HW, 1e-2);
}

TEST(EncryptedKernels, BigCkksPipelineCHW) {
  BigCkksParams P;
  P.LogN = 12;
  P.LogQ = 400;
  P.Security = SecurityLevel::None;
  BigCkksBackend Backend(P);
  runPipeline(Backend, LayoutKind::CHW, 1e-2);
}

TEST(EncryptedKernels, BsgsFcUnderRealEncryption) {
  // The BSGS fully connected layer uses arbitrary-step rotations (baby
  // steps and giant steps); under the stock power-of-two key set they go
  // through the multi-hop fallback and must still be exact.
  RnsCkksParams P = RnsCkksParams::create(12, 6, 60, 30);
  P.Security = SecurityLevel::None;
  RnsCkksBackend Backend(P);
  ScaleConfig S = ScaleConfig::fromExponents(30, 30, 30, 16);
  Tensor3 In = randomTensor(2, 5, 5, 9);
  TensorLayout L =
      makeInputLayout(LayoutKind::CHW, 2, 5, 5, 0, Backend.slotCount());
  FcWeights Wt = randomFc(6, 2 * 5 * 5, 10);
  auto Enc = encryptTensor(Backend, In, L, S);
  auto Out = fullyConnectedBsgs(Backend, Enc, Wt, S);
  Tensor3 Got = decryptTensor(Backend, Out);
  Tensor3 Want = refFullyConnected(In, Wt);
  EXPECT_LT(maxAbsDiff(Got, Want), 1e-3);
}

TEST(EncryptedKernels, RnsConvMatchesReferenceClosely) {
  RnsCkksParams P = RnsCkksParams::create(12, 8, 60, 30);
  P.Security = SecurityLevel::None;
  RnsCkksBackend Backend(P);
  ScaleConfig S = ScaleConfig::fromExponents(30, 30, 30, 16);
  Tensor3 In = randomTensor(2, 6, 6, 5);
  ConvWeights Conv = randomConv(3, 2, 3, 6);
  TensorLayout L =
      makeInputLayout(LayoutKind::CHW, 2, 6, 6, 1, Backend.slotCount());
  auto Enc = encryptTensor(Backend, In, L, S);
  auto Out = conv2d(Backend, Enc, Conv, 1, 1, S);
  Tensor3 Got = decryptTensor(Backend, Out);
  Tensor3 Want = refConv2d(In, Conv, 1, 1);
  EXPECT_LT(maxAbsDiff(Got, Want), 1e-3);
}

} // namespace

//===----------------------------------------------------------------------===//
// Shared-tree replicate FC (DESIGN.md §5l)
//===----------------------------------------------------------------------===//

namespace {

/// Unmasked 2x2/2 pool of a two-channel 8x8 HW image (valid features on
/// a stride-2 grid, junk around them), then a 16-row FC on copies of that
/// window, an activation, and a 3-row FC on its strided output.
template <HisaBackend B>
CipherTensor<B> packedFcChain(B &Backend, const CipherTensor<B> &Enc,
                              const FcWeights &Fc1, const FcWeights &Fc2,
                              const ScaleConfig &S) {
  auto Pooled = averagePool(Backend, Enc, 2, 2, S, /*MaskOutput=*/false);
  auto H = fullyConnectedReplicate(Backend, Pooled, Fc1, S);
  auto A = polyActivation(Backend, H, 0.25, 0.5, S);
  return fullyConnectedReplicate(Backend, A, Fc2, S);
}

} // namespace

TEST(EncryptedKernels, PackedFcChainMatchesReferenceAtAllThreadCounts) {
  RnsCkksParams P = RnsCkksParams::create(12, 10, 60, 30);
  P.Security = SecurityLevel::None;
  RnsCkksBackend Backend(P);
  ScaleConfig S = ScaleConfig::fromExponents(30, 30, 30, 16);
  Tensor3 In = randomTensor(2, 8, 8, 11);
  FcWeights Fc1 = randomFc(16, 2 * 4 * 4, 12);
  FcWeights Fc2 = randomFc(3, 16, 13);
  TensorLayout L =
      makeInputLayout(LayoutKind::HW, 2, 8, 8, 1, Backend.slotCount());
  auto Enc = encryptTensor(Backend, In, L, S);
  {
    PlainBackend Shapes(12);
    auto PEnc = encryptTensor(Shapes, In, L, S);
    auto Pooled = averagePool(Shapes, PEnc, 2, 2, S, /*MaskOutput=*/false);
    EXPECT_EQ(planFcReplicate(Pooled.L, Fc1, LayoutKind::CHW).Groups.size(),
              1u);
    auto H = fullyConnectedReplicate(Shapes, Pooled, Fc1, S);
    FcPlan P2 = planFcReplicate(H.L, Fc2, LayoutKind::CHW);
    EXPECT_EQ(P2.CopySteps, (std::vector<int>{1, 2})); // strided input
  }
  Tensor3 Want = refFullyConnected(
      refPolyActivation(refFullyConnected(refAveragePool(In, 2, 2), Fc1), 0.25,
                        0.5),
      Fc2);

  std::vector<ByteBuffer> Ref;
  for (unsigned Threads : {1u, 2u, 8u}) {
    setGlobalThreadCount(Threads);
    auto Out = packedFcChain(Backend, Enc, Fc1, Fc2, S);
    ASSERT_EQ(Out.Cts.size(), 1u);
    ByteBuffer Bytes = serialize(Out.Cts[0]);
    if (Ref.empty()) {
      Ref.push_back(Bytes);
      EXPECT_LT(maxAbsDiff(decryptTensor(Backend, Out), Want), 1e-2);
    } else {
      EXPECT_EQ(Bytes, Ref[0]) << Threads << " threads";
    }
  }
  setGlobalThreadCount(0);
}

TEST(EncryptedKernels, PackedFcRotatesOnlyByPowersOfTwo) {
  // Every rotation the shared tree adds is a power of two (no new Galois
  // keys), and the real run issues far fewer than the per-row tree's
  // Out * log2(slots). test_hoisting's AnalysisPricesTheScheduleThatRuns
  // checks that the analysis counts this layer's ops as they run.
  ScaleConfig S = ScaleConfig::fromExponents(30, 30, 30, 16);
  Tensor3 In = randomTensor(2, 8, 8, 14);
  // 32 rows: the pool's junk forces two groups (test_kernels_plain's
  // PackedFcKeepsJunkCopiesApart).
  FcWeights Fc = randomFc(32, 2 * 4 * 4, 15);

  AnalysisConfig Cfg;
  Cfg.Scheme = SchemeKind::RnsCkks;
  Cfg.LogN = 12;
  Cfg.ScalePrimeCandidates.assign(8, uint64_t(1) << 30);
  AnalysisBackend AB(Cfg);
  TensorLayout AL =
      makeInputLayout(LayoutKind::HW, 2, 8, 8, 0, AB.slotCount());
  auto APooled = averagePool(AB, encryptTensor(AB, In, AL, S), 2, 2, S,
                             /*MaskOutput=*/false);
  std::set<int> StepsBefore = AB.rotationSteps();
  (void)fullyConnectedReplicate(AB, APooled, Fc, S);
  for (int Step : AB.rotationSteps()) {
    if (StepsBefore.count(Step))
      continue;
    EXPECT_EQ(Step & (Step - 1), 0) << Step;
    EXPECT_LE(size_t(Step), AB.slotCount() / 2);
  }

  RnsCkksParams P = RnsCkksParams::create(12, 8, 60, 30);
  P.Security = SecurityLevel::None;
  RnsCkksBackend Backend(P);
  ProfilingBackend<RnsCkksBackend> Prof(Backend);
  TensorLayout L =
      makeInputLayout(LayoutKind::HW, 2, 8, 8, 0, Prof.slotCount());
  auto Pooled = averagePool(Prof, encryptTensor(Prof, In, L, S), 2, 2, S,
                            /*MaskOutput=*/false);
  Prof.reset();
  auto Out = fullyConnectedReplicate(Prof, Pooled, Fc, S);
  uint64_t RotLeft = 0;
  for (const auto &Row : Prof.stats())
    if (Row.Name == "rotLeft")
      RotLeft = Row.Count;
  EXPECT_GT(RotLeft, 0u);
  EXPECT_LT(RotLeft, 32u * 11u / 8); // far below Out * log2(slots)
  EXPECT_LT(maxAbsDiff(decryptTensor(Prof, Out),
                       refFullyConnected(refAveragePool(In, 2, 2), Fc)),
            1e-2);
}
