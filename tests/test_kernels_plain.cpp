//===- test_kernels_plain.cpp - Kernels vs the float reference -------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exercises every tensor kernel on the PlainBackend (exact slot
/// arithmetic) against the independently written float reference ops, for
/// both layouts and a sweep of shapes, strides, and paddings.
///
//===----------------------------------------------------------------------===//

#include "runtime/Kernels.h"

#include "hisa/PlainBackend.h"
#include "runtime/ReferenceOps.h"
#include "support/Prng.h"

#include <gtest/gtest.h>

#include <tuple>

using namespace chet;

namespace {

Tensor3 randomTensor(int C, int H, int W, uint64_t Seed) {
  Tensor3 T(C, H, W);
  Prng Rng(Seed);
  for (double &V : T.Data)
    V = Rng.nextDouble(-2, 2);
  return T;
}

ConvWeights randomConv(int Cout, int Cin, int K, uint64_t Seed) {
  ConvWeights Wt(Cout, Cin, K, K);
  Prng Rng(Seed);
  for (double &V : Wt.W)
    V = Rng.nextDouble(-1, 1);
  for (double &V : Wt.Bias)
    V = Rng.nextDouble(-0.5, 0.5);
  return Wt;
}

FcWeights randomFc(int Out, int In, uint64_t Seed) {
  FcWeights Wt(Out, In);
  Prng Rng(Seed);
  for (double &V : Wt.W)
    V = Rng.nextDouble(-1, 1);
  for (double &V : Wt.Bias)
    V = Rng.nextDouble(-0.5, 0.5);
  return Wt;
}

constexpr int kLogN = 12; // 2048 slots

// (layout, Cin, Cout, H/W, K, stride, pad)
using ConvCase = std::tuple<LayoutKind, int, int, int, int, int, int>;

class ConvKernelTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvKernelTest, MatchesReference) {
  auto [Kind, Cin, Cout, HW, K, Stride, Pad] = GetParam();
  PlainBackend Backend(kLogN);
  ScaleConfig S;
  Tensor3 In = randomTensor(Cin, HW, HW, 42);
  ConvWeights Wt = randomConv(Cout, Cin, K, 43);

  TensorLayout L =
      makeInputLayout(Kind, Cin, HW, HW, /*PadPhys=*/Pad, Backend.slotCount());
  auto Enc = encryptTensor(Backend, In, L, S);
  auto Out = conv2d(Backend, Enc, Wt, Stride, Pad, S);
  Tensor3 Got = decryptTensor(Backend, Out);
  Tensor3 Want = refConv2d(In, Wt, Stride, Pad);
  ASSERT_EQ(Got.C, Want.C);
  ASSERT_EQ(Got.H, Want.H);
  ASSERT_EQ(Got.W, Want.W);
  EXPECT_LT(maxAbsDiff(Got, Want), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvKernelTest,
    ::testing::Values(
        // HW layout.
        ConvCase{LayoutKind::HW, 1, 1, 8, 3, 1, 1},
        ConvCase{LayoutKind::HW, 1, 4, 8, 3, 1, 1},
        ConvCase{LayoutKind::HW, 3, 2, 8, 3, 1, 0},
        ConvCase{LayoutKind::HW, 2, 3, 9, 5, 1, 2},
        ConvCase{LayoutKind::HW, 2, 2, 8, 3, 2, 1},
        ConvCase{LayoutKind::HW, 1, 2, 8, 1, 1, 0}, // 1x1 conv
        // CHW layout.
        ConvCase{LayoutKind::CHW, 1, 1, 8, 3, 1, 1},
        ConvCase{LayoutKind::CHW, 4, 4, 8, 3, 1, 1},
        ConvCase{LayoutKind::CHW, 3, 5, 8, 3, 1, 0},
        ConvCase{LayoutKind::CHW, 2, 3, 9, 5, 1, 2},
        ConvCase{LayoutKind::CHW, 4, 2, 8, 3, 2, 1},
        ConvCase{LayoutKind::CHW, 5, 6, 6, 1, 1, 0},
        // More channels than fit one ciphertext block set.
        ConvCase{LayoutKind::CHW, 12, 9, 8, 3, 1, 1}));

class PoolKernelTest
    : public ::testing::TestWithParam<std::tuple<LayoutKind, int, int>> {};

TEST_P(PoolKernelTest, MatchesReference) {
  auto [Kind, K, Stride] = GetParam();
  PlainBackend Backend(kLogN);
  ScaleConfig S;
  Tensor3 In = randomTensor(3, 8, 8, 7);
  TensorLayout L = makeInputLayout(Kind, 3, 8, 8, 2, Backend.slotCount());
  auto Enc = encryptTensor(Backend, In, L, S);
  auto Out = averagePool(Backend, Enc, K, Stride, S);
  Tensor3 Got = decryptTensor(Backend, Out);
  Tensor3 Want = refAveragePool(In, K, Stride);
  ASSERT_EQ(Got.H, Want.H);
  EXPECT_LT(maxAbsDiff(Got, Want), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Windows, PoolKernelTest,
    ::testing::Combine(::testing::Values(LayoutKind::HW, LayoutKind::CHW),
                       ::testing::Values(2, 3),
                       ::testing::Values(1, 2)));

TEST(Kernels, GlobalAveragePool) {
  PlainBackend Backend(kLogN);
  ScaleConfig S;
  Tensor3 In = randomTensor(4, 6, 6, 8);
  TensorLayout L =
      makeInputLayout(LayoutKind::CHW, 4, 6, 6, 0, Backend.slotCount());
  auto Enc = encryptTensor(Backend, In, L, S);
  auto Out = globalAveragePool(Backend, Enc, S);
  Tensor3 Got = decryptTensor(Backend, Out);
  Tensor3 Want = refAveragePool(In, 6, 6);
  EXPECT_LT(maxAbsDiff(Got, Want), 1e-9);
}

TEST(Kernels, PolyActivationMatchesReference) {
  PlainBackend Backend(kLogN);
  ScaleConfig S;
  Tensor3 In = randomTensor(2, 5, 5, 9);
  for (auto Kind : {LayoutKind::HW, LayoutKind::CHW}) {
    TensorLayout L = makeInputLayout(Kind, 2, 5, 5, 1, Backend.slotCount());
    auto Enc = encryptTensor(Backend, In, L, S);
    auto Out = polyActivation(Backend, Enc, 0.25, -1.5, S);
    Tensor3 Got = decryptTensor(Backend, Out);
    Tensor3 Want = refPolyActivation(In, 0.25, -1.5);
    EXPECT_LT(maxAbsDiff(Got, Want), 1e-9);
  }
}

TEST(Kernels, PolyActivationLinearOnly) {
  PlainBackend Backend(kLogN);
  ScaleConfig S;
  Tensor3 In = randomTensor(1, 4, 4, 10);
  TensorLayout L =
      makeInputLayout(LayoutKind::HW, 1, 4, 4, 0, Backend.slotCount());
  auto Enc = encryptTensor(Backend, In, L, S);
  auto Out = polyActivation(Backend, Enc, 0.0, 2.0, S);
  Tensor3 Got = decryptTensor(Backend, Out);
  Tensor3 Want = refPolyActivation(In, 0.0, 2.0);
  EXPECT_LT(maxAbsDiff(Got, Want), 1e-9);
}

TEST(Kernels, PolyActivationPreservesMarginInvariant) {
  // Margins must still be zero afterwards even though addScalar touches
  // every slot.
  PlainBackend Backend(kLogN);
  ScaleConfig S;
  Tensor3 In = randomTensor(1, 4, 4, 11);
  TensorLayout L =
      makeInputLayout(LayoutKind::HW, 1, 4, 4, 2, Backend.slotCount());
  auto Enc = encryptTensor(Backend, In, L, S);
  auto Out = polyActivation(Backend, Enc, 0.5, 1.0, S);
  auto Slots = Backend.decode(Backend.decrypt(Out.Cts[0]));
  double OffGrid = 0;
  for (size_t I = 0; I < Slots.size(); ++I)
    OffGrid += std::abs(Slots[I]);
  double Valid = 0;
  for (int Y = 0; Y < 4; ++Y)
    for (int X = 0; X < 4; ++X)
      Valid += std::abs(Slots[Out.L.slotOf(0, Y, X)]);
  EXPECT_NEAR(OffGrid, Valid, 1e-9);
}

class FcKernelTest : public ::testing::TestWithParam<LayoutKind> {};

TEST_P(FcKernelTest, MatchesReference) {
  PlainBackend Backend(kLogN);
  ScaleConfig S;
  Tensor3 In = randomTensor(3, 4, 4, 12);
  TensorLayout L =
      makeInputLayout(GetParam(), 3, 4, 4, 1, Backend.slotCount());
  FcWeights Wt = randomFc(10, 3 * 4 * 4, 13);
  auto Enc = encryptTensor(Backend, In, L, S);
  auto Out = fullyConnected(Backend, Enc, Wt, S);
  Tensor3 Got = decryptTensor(Backend, Out);
  Tensor3 Want = refFullyConnected(In, Wt);
  EXPECT_LT(maxAbsDiff(Got, Want), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Layouts, FcKernelTest,
                         ::testing::Values(LayoutKind::HW, LayoutKind::CHW));

TEST(Kernels, FcOnStridedInput) {
  // FC directly after a strided pool: features live on a sparse grid and
  // must be picked up without compaction.
  PlainBackend Backend(kLogN);
  ScaleConfig S;
  Tensor3 In = randomTensor(2, 8, 8, 14);
  TensorLayout L =
      makeInputLayout(LayoutKind::HW, 2, 8, 8, 0, Backend.slotCount());
  auto Enc = encryptTensor(Backend, In, L, S);
  auto Pooled = averagePool(Backend, Enc, 2, 2, S);
  FcWeights Wt = randomFc(6, 2 * 4 * 4, 15);
  auto Out = fullyConnected(Backend, Pooled, Wt, S);
  Tensor3 Got = decryptTensor(Backend, Out);
  Tensor3 Want = refFullyConnected(refAveragePool(In, 2, 2), Wt);
  EXPECT_LT(maxAbsDiff(Got, Want), 1e-9);
}

TEST(Kernels, ChainedFcLayers) {
  PlainBackend Backend(kLogN);
  ScaleConfig S;
  Tensor3 In = randomTensor(1, 4, 4, 16);
  TensorLayout L =
      makeInputLayout(LayoutKind::CHW, 1, 4, 4, 0, Backend.slotCount());
  FcWeights Fc1 = randomFc(8, 16, 17);
  FcWeights Fc2 = randomFc(3, 8, 18);
  auto Enc = encryptTensor(Backend, In, L, S);
  auto H1 = fullyConnected(Backend, Enc, Fc1, S);
  auto H2 = polyActivation(Backend, H1, 0.1, 1.0, S);
  auto Out = fullyConnected(Backend, H2, Fc2, S);
  Tensor3 Got = decryptTensor(Backend, Out);
  Tensor3 Want = refFullyConnected(
      refPolyActivation(refFullyConnected(In, Fc1), 0.1, 1.0), Fc2);
  EXPECT_LT(maxAbsDiff(Got, Want), 1e-8);
}

class FcBsgsTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(FcBsgsTest, MatchesReferenceAndReplicate) {
  auto [C, HW, Out] = GetParam();
  PlainBackend Backend(kLogN);
  ScaleConfig S;
  Tensor3 In = randomTensor(C, HW, HW, 31);
  TensorLayout L =
      makeInputLayout(LayoutKind::CHW, C, HW, HW, 1, Backend.slotCount());
  FcWeights Wt = randomFc(Out, C * HW * HW, 32);
  auto Enc = encryptTensor(Backend, In, L, S);
  ASSERT_EQ(Enc.L.ctCount(), 1);
  auto Bsgs = fullyConnectedBsgs(Backend, Enc, Wt, S);
  Tensor3 Got = decryptTensor(Backend, Bsgs);
  Tensor3 Want = refFullyConnected(In, Wt);
  EXPECT_LT(maxAbsDiff(Got, Want), 1e-9);

  auto Repl = fullyConnectedReplicate(Backend, Enc, Wt, S);
  Tensor3 GotRepl = decryptTensor(Backend, Repl);
  EXPECT_LT(maxAbsDiff(GotRepl, Want), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Shapes, FcBsgsTest,
                         ::testing::Values(std::tuple{1, 4, 3},
                                           std::tuple{2, 4, 10},
                                           std::tuple{3, 5, 40},
                                           std::tuple{1, 8, 64},
                                           std::tuple{2, 6, 1}));

TEST(Kernels, FcBsgsOnStridedInput) {
  // The generalized diagonals index by physical slot, so decimated
  // (post-pooling) inputs need no compaction.
  PlainBackend Backend(kLogN);
  ScaleConfig S;
  Tensor3 In = randomTensor(2, 8, 8, 33);
  TensorLayout L =
      makeInputLayout(LayoutKind::CHW, 2, 8, 8, 0, Backend.slotCount());
  auto Enc = encryptTensor(Backend, In, L, S);
  auto Pooled = averagePool(Backend, Enc, 2, 2, S);
  FcWeights Wt = randomFc(12, 2 * 4 * 4, 34);
  auto Got = decryptTensor(Backend, fullyConnectedBsgs(Backend, Pooled, Wt, S));
  Tensor3 Want = refFullyConnected(refAveragePool(In, 2, 2), Wt);
  EXPECT_LT(maxAbsDiff(Got, Want), 1e-9);
}

TEST(Kernels, FcAlgorithmHeuristic) {
  PlainBackend Backend(kLogN);
  // Many outputs on a single ciphertext: BSGS.
  TensorLayout Big =
      makeInputLayout(LayoutKind::CHW, 4, 8, 8, 0, Backend.slotCount());
  FcWeights Wide = randomFc(256, 4 * 8 * 8, 35);
  EXPECT_EQ(fcAlgorithmFor(Big, Wide, LayoutKind::CHW), FcAlgorithm::Bsgs);
  // Very few outputs: replicate-and-sum.
  FcWeights Narrow = randomFc(2, 4 * 8 * 8, 36);
  EXPECT_EQ(fcAlgorithmFor(Big, Narrow, LayoutKind::CHW),
            FcAlgorithm::Replicate);
  // HW output layout or multi-ciphertext input force replicate.
  EXPECT_EQ(fcAlgorithmFor(Big, Wide, LayoutKind::HW),
            FcAlgorithm::Replicate);
  TensorLayout Multi =
      makeInputLayout(LayoutKind::HW, 3, 8, 8, 0, Backend.slotCount());
  EXPECT_EQ(fcAlgorithmFor(Multi, Wide, LayoutKind::CHW),
            FcAlgorithm::Replicate);
}

TEST(Kernels, FcDiagonalCountMatchesPlainCount) {
  PlainBackend Backend(kLogN);
  TensorLayout L =
      makeInputLayout(LayoutKind::CHW, 2, 4, 4, 0, Backend.slotCount());
  FcWeights Wt = randomFc(8, 32, 37);
  int G = fcGiantStep(L.Slots);
  auto Plains = buildFcBsgsPlains(L, Wt, G);
  EXPECT_EQ(countFcDiagonals(L, Wt), Plains.size());
}

TEST(Kernels, ConvertLayoutRoundTrip) {
  PlainBackend Backend(kLogN);
  ScaleConfig S;
  Tensor3 In = randomTensor(5, 6, 6, 19);
  TensorLayout L =
      makeInputLayout(LayoutKind::HW, 5, 6, 6, 1, Backend.slotCount());
  auto Enc = encryptTensor(Backend, In, L, S);
  auto Chw = convertLayout(Backend, Enc, LayoutKind::CHW, S);
  EXPECT_EQ(Chw.L.Kind, LayoutKind::CHW);
  EXPECT_LT(Chw.L.ctCount(), Enc.L.ctCount());
  Tensor3 Mid = decryptTensor(Backend, Chw);
  EXPECT_LT(maxAbsDiff(Mid, In), 1e-9);
  auto Hw = convertLayout(Backend, Chw, LayoutKind::HW, S);
  EXPECT_EQ(Hw.L.Kind, LayoutKind::HW);
  Tensor3 Back = decryptTensor(Backend, Hw);
  EXPECT_LT(maxAbsDiff(Back, In), 1e-9);
}

TEST(Kernels, ConvAfterLayoutConversion) {
  PlainBackend Backend(kLogN);
  ScaleConfig S;
  Tensor3 In = randomTensor(3, 8, 8, 20);
  ConvWeights Wt = randomConv(4, 3, 3, 21);
  TensorLayout L =
      makeInputLayout(LayoutKind::HW, 3, 8, 8, 1, Backend.slotCount());
  auto Enc = encryptTensor(Backend, In, L, S);
  auto Chw = convertLayout(Backend, Enc, LayoutKind::CHW, S);
  auto Out = conv2d(Backend, Chw, Wt, 1, 1, S);
  Tensor3 Got = decryptTensor(Backend, Out);
  Tensor3 Want = refConv2d(In, Wt, 1, 1);
  EXPECT_LT(maxAbsDiff(Got, Want), 1e-9);
}

TEST(Kernels, ConvThenPoolThenConvPipeline) {
  // Margin sizing: the second conv (pad 2) runs at stride 2, so packing
  // needs 2 * 2 = 4 physical margin cells.
  PlainBackend Backend(kLogN);
  ScaleConfig S;
  Tensor3 In = randomTensor(1, 12, 12, 22);
  ConvWeights Conv1 = randomConv(2, 1, 5, 23);
  ConvWeights Conv2 = randomConv(3, 2, 5, 24);
  TensorLayout L =
      makeInputLayout(LayoutKind::HW, 1, 12, 12, 4, Backend.slotCount());
  auto Enc = encryptTensor(Backend, In, L, S);
  auto C1 = conv2d(Backend, Enc, Conv1, 1, 2, S);
  auto P1 = averagePool(Backend, C1, 2, 2, S);
  auto C2 = conv2d(Backend, P1, Conv2, 1, 2, S);
  Tensor3 Got = decryptTensor(Backend, C2);
  Tensor3 Want =
      refConv2d(refAveragePool(refConv2d(In, Conv1, 1, 2), 2, 2), Conv2, 1,
                2);
  EXPECT_LT(maxAbsDiff(Got, Want), 1e-8);
}

} // namespace

//===----------------------------------------------------------------------===//
// Shared-tree replicate FC (DESIGN.md §5l)
//===----------------------------------------------------------------------===//

namespace {

bool allPowersOfTwo(const std::vector<int> &Steps, size_t Slots) {
  for (int S : Steps)
    if (S <= 0 || (S & (S - 1)) != 0 || size_t(S) > Slots / 2)
      return false;
  return true;
}

/// An unmasked 2x2/2 pool of a two-channel 8x8 HW image: valid features
/// on a stride-2 grid, junk on every slot the window sums touched.
template <HisaBackend B>
CipherTensor<B> dirtyPooled(B &Backend, const Tensor3 &In,
                            const ScaleConfig &S) {
  TensorLayout L =
      makeInputLayout(LayoutKind::HW, In.C, In.H, In.W, 0, Backend.slotCount());
  return averagePool(Backend, encryptTensor(Backend, In, L, S), 2, 2, S,
                     /*MaskOutput=*/false);
}

} // namespace

TEST(Kernels, PackedFcWindowInputFeedsStridedInput) {
  // Window input: the 8x8 image behind a one-cell margin starts at slot
  // 11 and spans 7 bits, so 4 rows take copy bits [9, 11) and land at
  // 11 + r * 512. The next layer reads that strided vector: its sum bits
  // are {9, 10}, and 3 rows take copy bits [0, 2).
  PlainBackend Backend(kLogN);
  ScaleConfig S;
  Tensor3 In = randomTensor(1, 8, 8, 40);
  FcWeights Fc1 = randomFc(4, 64, 41);
  FcWeights Fc2 = randomFc(3, 4, 42);
  TensorLayout L =
      makeInputLayout(LayoutKind::HW, 1, 8, 8, 1, Backend.slotCount());
  auto Enc = encryptTensor(Backend, In, L, S);

  FcPlan P1 = planFcReplicate(Enc.L, Fc1, LayoutKind::CHW);
  EXPECT_EQ(P1.CopySteps, (std::vector<int>{512, 1024}));
  EXPECT_EQ(P1.SumSteps.size(), 7u);
  EXPECT_EQ(P1.Groups.size(), 1u);
  auto H1 = fullyConnectedReplicate(Backend, Enc, Fc1, S);
  EXPECT_EQ(H1.L.ChStride, 512);
  EXPECT_EQ(H1.L.OffX, 11); // p0 mod 2^m is kept, not moved to slot 0
  auto A1 = polyActivation(Backend, H1, 0.1, 1.0, S);

  FcPlan P2 = planFcReplicate(A1.L, Fc2, LayoutKind::CHW);
  EXPECT_EQ(P2.CopySteps, (std::vector<int>{1, 2}));
  EXPECT_EQ(P2.SumSteps, (std::vector<int>{512, 1024}));
  EXPECT_EQ(P2.Groups.size(), 1u);
  auto Out = fullyConnectedReplicate(Backend, A1, Fc2, S);

  Tensor3 Want = refFullyConnected(
      refPolyActivation(refFullyConnected(In, Fc1), 0.1, 1.0), Fc2);
  EXPECT_LT(maxAbsDiff(decryptTensor(Backend, Out), Want), 1e-9);
  EXPECT_TRUE(allPowersOfTwo(P1.CopySteps, L.Slots));
  EXPECT_TRUE(allPowersOfTwo(P1.SumSteps, L.Slots));
  EXPECT_TRUE(allPowersOfTwo(P2.CopySteps, L.Slots));
  EXPECT_TRUE(allPowersOfTwo(P2.SumSteps, L.Slots));
}

TEST(Kernels, PackedFcFallsBackToOneRowPerGroupPastTheCopies) {
  // Two HW channels (two ciphertexts) of an 8x8 image at slot 0 span 6
  // bits, leaving 2^5 = 32 copies in 2048 slots: 32 rows share one
  // group, 33 rows fall back to the per-row kernel.
  PlainBackend Backend(kLogN);
  ScaleConfig S;
  Tensor3 In = randomTensor(2, 8, 8, 43);
  TensorLayout L =
      makeInputLayout(LayoutKind::HW, 2, 8, 8, 0, Backend.slotCount());
  auto Enc = encryptTensor(Backend, In, L, S);
  ASSERT_EQ(Enc.L.ctCount(), 2);
  for (int Out : {32, 33}) {
    FcWeights Wt = randomFc(Out, 128, 44);
    FcPlan P = planFcReplicate(Enc.L, Wt, LayoutKind::CHW);
    if (Out == 32) {
      EXPECT_EQ(P.CopySteps.size(), 5u);
      EXPECT_EQ(P.Groups.size(), 1u);
    } else {
      EXPECT_TRUE(P.CopySteps.empty());
      EXPECT_EQ(P.SumSteps.size(), 11u);
      EXPECT_EQ(P.Groups.size(), 33u);
    }
    EXPECT_TRUE(allPowersOfTwo(P.CopySteps, L.Slots));
    EXPECT_TRUE(allPowersOfTwo(P.SumSteps, L.Slots));
    Tensor3 Got = decryptTensor(Backend, fullyConnectedReplicate(Backend, Enc,
                                                                 Wt, S));
    EXPECT_LT(maxAbsDiff(Got, refFullyConnected(In, Wt)), 1e-9) << Out;
  }
}

TEST(Kernels, PackedFcKeepsJunkCopiesApart) {
  // The unmasked pool leaves junk down to 9 slots below slot 0 (wrapping
  // to the top of the ciphertext). 32 rows would need a copy every 64
  // slots, and that wrap-around junk would land on features; the plan
  // halves the copies and lands the rows in two groups instead.
  PlainBackend Backend(kLogN);
  ScaleConfig S;
  Tensor3 In = randomTensor(2, 8, 8, 45);
  auto Pooled = dirtyPooled(Backend, In, S);
  ASSERT_FALSE(Pooled.L.Support.empty());
  FcWeights Wt = randomFc(32, 2 * 4 * 4, 46);
  FcPlan P = planFcReplicate(Pooled.L, Wt, LayoutKind::CHW);
  EXPECT_EQ(P.CopySteps, (std::vector<int>{128, 256, 512, 1024}));
  EXPECT_EQ(P.Groups.size(), 2u);
  Tensor3 Got =
      decryptTensor(Backend, fullyConnectedReplicate(Backend, Pooled, Wt, S));
  EXPECT_LT(maxAbsDiff(Got, refFullyConnected(refAveragePool(In, 2, 2), Wt)),
            1e-9);
}

TEST(Kernels, PackedFcIsIdenticalAcrossThreadCounts) {
  PlainBackend Backend(kLogN);
  ScaleConfig S;
  Tensor3 In = randomTensor(2, 8, 8, 47);
  FcWeights Wt = randomFc(32, 2 * 4 * 4, 48);
  std::vector<double> Want;
  for (unsigned Threads : {1u, 2u, 8u}) {
    setGlobalThreadCount(Threads);
    auto Out = fullyConnectedReplicate(Backend, dirtyPooled(Backend, In, S),
                                       Wt, S);
    ASSERT_EQ(Out.Cts.size(), 1u);
    if (Want.empty())
      Want = Out.Cts[0].Values;
    else
      EXPECT_EQ(Out.Cts[0].Values, Want) << Threads << " threads";
  }
  setGlobalThreadCount(0);
}
