//===- test_evaluate_policies.cpp - Evaluator under all layout policies ----===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs full circuits through the evaluator under every layout policy on
/// the PlainBackend and checks exact agreement with the reference engine
/// -- the property the layout-selection search relies on: all four
/// policies compute the same function, only their cost differs.
///
//===----------------------------------------------------------------------===//

#include "core/Evaluate.h"

#include "hisa/PlainBackend.h"
#include "nn/Networks.h"
#include "runtime/ReferenceOps.h"
#include "support/Prng.h"

#include <gtest/gtest.h>

using namespace chet;

namespace {

class PolicyTest : public ::testing::TestWithParam<LayoutPolicy> {};

TEST_P(PolicyTest, LeNetSmallMatchesReference) {
  TensorCircuit Circ = makeLeNet5Small(/*Reduction=*/2);
  Tensor3 Image = randomImageFor(Circ, 7);
  Tensor3 Want = Circ.evaluatePlain(Image);
  // At logN 15 the FC layers pack their rows into input copies, and the
  // unmasked pool feeding fc1 leaves junk those copies must not collect.
  for (int LogN : {12, 15}) {
    PlainBackend Backend(LogN);
    ScaleConfig S;
    Tensor3 Got =
        runEncryptedInference(Backend, Circ, Image, S, GetParam());
    ASSERT_EQ(Got.C, Want.C);
    EXPECT_LT(maxAbsDiff(Got, Want), 1e-9)
        << "policy " << layoutPolicyName(GetParam()) << ", logN " << LogN;
  }
}

TEST_P(PolicyTest, IndustrialMatchesReference) {
  TensorCircuit Circ = makeIndustrial(/*Reduction=*/8);
  Tensor3 Image = randomImageFor(Circ, 8);
  PlainBackend Backend(12);
  ScaleConfig S;
  Tensor3 Got =
      runEncryptedInference(Backend, Circ, Image, S, GetParam());
  Tensor3 Want = Circ.evaluatePlain(Image);
  EXPECT_LT(maxAbsDiff(Got, Want), 1e-9)
      << "policy " << layoutPolicyName(GetParam());
}

TEST_P(PolicyTest, SqueezeNetMatchesReference) {
  TensorCircuit Circ = makeSqueezeNetCifar(/*Reduction=*/8);
  Tensor3 Image = randomImageFor(Circ, 9);
  PlainBackend Backend(12);
  ScaleConfig S;
  Tensor3 Got =
      runEncryptedInference(Backend, Circ, Image, S, GetParam());
  Tensor3 Want = Circ.evaluatePlain(Image);
  EXPECT_LT(maxAbsDiff(Got, Want), 1e-8)
      << "policy " << layoutPolicyName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyTest,
                         ::testing::Values(LayoutPolicy::AllHW,
                                           LayoutPolicy::AllCHW,
                                           LayoutPolicy::ConvHW,
                                           LayoutPolicy::FcCHW));

TEST(Evaluate, ConcatCircuitUnderBothBaseLayouts) {
  // A small DAG with fan-out and concat (the Fire-module shape, without
  // the fusion rewrite).
  Prng Rng(4);
  TensorCircuit Circ("fire");
  int X = Circ.input(2, 8, 8);
  ConvWeights Sq(2, 2, 1, 1), E1(4, 2, 1, 1), E3(4, 2, 3, 3);
  for (double &V : Sq.W)
    V = Rng.nextDouble(-1, 1);
  for (double &V : E1.W)
    V = Rng.nextDouble(-1, 1);
  for (double &V : E3.W)
    V = Rng.nextDouble(-1, 1);
  int S = Circ.conv2d(X, Sq, 1, 0);
  int A = Circ.conv2d(S, E1, 1, 0);
  int B = Circ.conv2d(S, E3, 1, 1);
  int Cat = Circ.concatChannels(A, B);
  int Act = Circ.polyActivation(Cat, 0.25, 0.5);
  Circ.output(Act);

  Tensor3 Image = randomImageFor(Circ, 10);
  Tensor3 Want = Circ.evaluatePlain(Image);
  PlainBackend Backend(11);
  ScaleConfig Sc;
  for (LayoutPolicy P : {LayoutPolicy::AllHW, LayoutPolicy::AllCHW}) {
    Tensor3 Got = runEncryptedInference(Backend, Circ, Image, Sc, P);
    EXPECT_LT(maxAbsDiff(Got, Want), 1e-9)
        << "policy " << layoutPolicyName(P);
  }
}

TEST(Evaluate, MaskNeedsPropagateThroughConcat) {
  TensorCircuit Circ("m");
  int X = Circ.input(1, 8, 8);
  ConvWeights C1(1, 1, 1, 1), C2(2, 2, 3, 3);
  C1.W[0] = 1.0;
  int A = Circ.conv2d(X, C1, 1, 0);
  int B = Circ.conv2d(X, C1, 1, 0);
  int Cat = Circ.concatChannels(A, B);
  int Out = Circ.conv2d(Cat, C2, 1, 1); // padded conv downstream
  Circ.output(Out);
  auto Needs = chet::detail::computeMaskNeeds(Circ, LayoutPolicy::AllHW);
  EXPECT_TRUE(Needs[A]);
  EXPECT_TRUE(Needs[B]);
  EXPECT_TRUE(Needs[Cat]);
  EXPECT_FALSE(Needs[Out]); // nothing after it needs zero margins
}

TEST(Evaluate, InputLayoutFollowsPolicy) {
  TensorCircuit Circ = makeLeNet5Small(4);
  EXPECT_EQ(circuitInputLayout(Circ, LayoutPolicy::AllCHW, 2048).Kind,
            LayoutKind::CHW);
  EXPECT_EQ(circuitInputLayout(Circ, LayoutPolicy::AllHW, 2048).Kind,
            LayoutKind::HW);
  EXPECT_EQ(circuitInputLayout(Circ, LayoutPolicy::ConvHW, 2048).Kind,
            LayoutKind::HW);
  // LeNet needs 4 physical margin cells (pad-2 conv at stride 2).
  EXPECT_EQ(circuitInputLayout(Circ, LayoutPolicy::AllHW, 2048).OffY, 4);
}

} // namespace
