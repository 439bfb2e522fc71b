//===- test_layout.cpp - Unit tests for tensor layouts ---------------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Layout.h"

#include "runtime/ReferenceOps.h"
#include "support/Prng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

using namespace chet;

namespace {

Tensor3 randomTensor(int C, int H, int W, uint64_t Seed) {
  Tensor3 T(C, H, W);
  Prng Rng(Seed);
  for (double &V : T.Data)
    V = Rng.nextDouble(-5, 5);
  return T;
}

TEST(Layout, HwInputLayoutGeometry) {
  TensorLayout L = makeInputLayout(LayoutKind::HW, 3, 8, 8, 2, 1024);
  EXPECT_EQ(L.ctCount(), 3);
  EXPECT_EQ(L.PhysH, 12);
  EXPECT_EQ(L.PhysW, 12);
  EXPECT_EQ(L.slotOf(0, 0, 0), 2 * 12 + 2);
  EXPECT_EQ(L.slotOf(2, 1, 3), 3 * 12 + 5); // channel does not move slots
  EXPECT_EQ(L.ctOf(2), 2);
  EXPECT_TRUE(L.isOnGrid(-2, -2));
  EXPECT_FALSE(L.isOnGrid(-3, 0));
  EXPECT_TRUE(L.isOnGrid(9, 9)); // margin row beyond H
  EXPECT_FALSE(L.isOnGrid(10, 0));
}

TEST(Layout, ChwInputLayoutBlocksArePow2AndTile) {
  TensorLayout L = makeInputLayout(LayoutKind::CHW, 6, 8, 8, 2, 1024);
  EXPECT_EQ(L.ChStride, 256); // pow2ceil(144)
  EXPECT_EQ(L.ChPerCt, 4);
  EXPECT_EQ(static_cast<size_t>(L.ChPerCt) * L.ChStride, L.Slots);
  EXPECT_EQ(L.ctCount(), 2);
  EXPECT_EQ(L.ctOf(5), 1);
  EXPECT_EQ(L.slotOf(5, 0, 0), 1 * 256 + 2 * 12 + 2);
}

TEST(Layout, RotationForMatchesSlotDifference) {
  TensorLayout L = makeInputLayout(LayoutKind::HW, 1, 8, 8, 2, 1024);
  for (int Dy : {-2, 0, 1}) {
    for (int Dx : {-1, 0, 2}) {
      long From = L.slotOf(0, 3 + Dy, 4 + Dx);
      long To = L.slotOf(0, 3, 4);
      EXPECT_EQ(L.rotationFor(Dy, Dx), From - To);
    }
  }
}

TEST(Layout, StridedLayoutKeepsPhysicalGrid) {
  TensorLayout L = makeInputLayout(LayoutKind::HW, 1, 8, 8, 2, 1024);
  TensorLayout L2 = L;
  L2.SY *= 2;
  L2.SX *= 2;
  L2.H = 4;
  L2.W = 4;
  // Logical (y, x) of the strided tensor sits where (2y, 2x) was.
  EXPECT_EQ(L2.slotOf(0, 1, 1), L.slotOf(0, 2, 2));
  EXPECT_EQ(L2.rotationFor(1, 0), 2 * L.rotationFor(1, 0));
}

TEST(Layout, PackUnpackRoundTripHw) {
  TensorLayout L = makeInputLayout(LayoutKind::HW, 3, 7, 5, 2, 512);
  Tensor3 T = randomTensor(3, 7, 5, 1);
  auto Slots = packTensor(T, L);
  EXPECT_EQ(Slots.size(), 3u);
  Tensor3 Back = unpackTensor(Slots, L);
  EXPECT_EQ(maxAbsDiff(T, Back), 0.0);
}

TEST(Layout, PackUnpackRoundTripChw) {
  TensorLayout L = makeInputLayout(LayoutKind::CHW, 5, 7, 5, 2, 512);
  Tensor3 T = randomTensor(5, 7, 5, 2);
  auto Slots = packTensor(T, L);
  Tensor3 Back = unpackTensor(Slots, L);
  EXPECT_EQ(maxAbsDiff(T, Back), 0.0);
}

TEST(Layout, PackLeavesMarginsZero) {
  TensorLayout L = makeInputLayout(LayoutKind::HW, 1, 4, 4, 2, 256);
  Tensor3 T = randomTensor(1, 4, 4, 3);
  auto Slots = packTensor(T, L);
  double Total = 0, Valid = 0;
  for (double V : Slots[0])
    Total += std::abs(V);
  for (int Y = 0; Y < 4; ++Y)
    for (int X = 0; X < 4; ++X)
      Valid += std::abs(Slots[0][L.slotOf(0, Y, X)]);
  EXPECT_DOUBLE_EQ(Total, Valid);
}

TEST(Layout, ValidMaskMarksExactlyValidSlots) {
  TensorLayout L = makeInputLayout(LayoutKind::CHW, 3, 4, 4, 1, 256);
  for (int Ct = 0; Ct < L.ctCount(); ++Ct) {
    auto Mask = buildValidMask(L, Ct);
    std::set<long> Expected;
    for (int C = Ct * L.ChPerCt; C < (Ct + 1) * L.ChPerCt && C < L.C; ++C)
      for (int Y = 0; Y < L.H; ++Y)
        for (int X = 0; X < L.W; ++X)
          Expected.insert(L.slotOf(C, Y, X));
    for (size_t I = 0; I < Mask.size(); ++I)
      EXPECT_EQ(Mask[I], Expected.count(static_cast<long>(I)) ? 1.0 : 0.0);
  }
}

TEST(Layout, BiasVectorPlacesPerChannelValues) {
  TensorLayout L = makeInputLayout(LayoutKind::CHW, 3, 2, 2, 0, 64);
  auto Bias = buildBiasVector(L, 0, {1.0, 2.0, 3.0});
  for (int C = 0; C < 3; ++C)
    for (int Y = 0; Y < 2; ++Y)
      for (int X = 0; X < 2; ++X)
        EXPECT_EQ(Bias[L.slotOf(C, Y, X)], C + 1.0);
}

TEST(Layout, DenseVectorLayout) {
  TensorLayout L = makeDenseVectorLayout(10, 256);
  EXPECT_EQ(L.ctCount(), 1);
  for (int C = 0; C < 10; ++C)
    EXPECT_EQ(L.slotOf(C, 0, 0), C);
}

TEST(Layout, FcRowPlacesWeightsAtFeaturePositions) {
  TensorLayout L = makeInputLayout(LayoutKind::HW, 2, 3, 3, 1, 64);
  FcWeights Wt(4, 2 * 3 * 3);
  for (int O = 0; O < 4; ++O)
    for (int F = 0; F < Wt.In; ++F)
      Wt.at(O, F) = O * 100 + F;
  for (int Ct = 0; Ct < 2; ++Ct) {
    auto Row = buildFcGroupPlain(L, Wt, {{2, 0, 2}}, Ct);
    for (int F = 0; F < Wt.In; ++F) {
      int C = F / 9, Rem = F % 9;
      if (C != Ct)
        continue;
      EXPECT_EQ(Row[L.slotOf(C, Rem / 3, Rem % 3)], 200.0 + F);
    }
  }
}

TEST(Layout, ChwConvPlainRespectsDiagonalsAndBounds) {
  TensorLayout In = makeInputLayout(LayoutKind::CHW, 4, 4, 4, 1, 256);
  ASSERT_EQ(In.ChPerCt, 4);
  TensorLayout Out = In;
  Out.C = 4;
  ConvWeights Wt(4, 4, 3, 3);
  for (size_t I = 0; I < Wt.W.size(); ++I)
    Wt.W[I] = static_cast<double>(I + 1);
  // Diagonal d: block c multiplies weight w[c][(c+d) mod 4].
  auto Plain = buildChwConvPlain(In, Out, Wt, 0, 0, 1, 1, 1, /*Pad=*/1);
  ASSERT_FALSE(Plain.empty());
  for (int C = 0; C < 4; ++C) {
    int Ci = (C + 1) % 4;
    EXPECT_EQ(Plain[Out.slotOf(C, 1, 1)], Wt.at(C, Ci, 1, 1));
  }
  // Tap reading off-grid positions zeroes the edge: with pad 1 and tap
  // (0,0), output (0,0) reads input (-1,-1), which is on the margin
  // (on-grid), so it stays; but a huge tap offset would not. Check the
  // zero-weight skip instead.
  ConvWeights Zero(4, 4, 3, 3);
  EXPECT_TRUE(buildChwConvPlain(In, Out, Zero, 0, 0, 0, 0, 0, 1).empty());
}

} // namespace
