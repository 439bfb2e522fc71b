//===- test_networks.cpp - Tests for the network zoo -----------------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "nn/Networks.h"

#include "core/Compiler.h"
#include "runtime/ReferenceOps.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace chet;

namespace {

TEST(Networks, Table3LayerCounts) {
  // Layer counts from Table 3 of the paper.
  TensorCircuit Small = makeLeNet5Small();
  EXPECT_EQ(Small.convLayerCount(), 2);
  EXPECT_EQ(Small.fcLayerCount(), 2);
  EXPECT_EQ(Small.activationLayerCount(), 4);

  TensorCircuit Industrial = makeIndustrial();
  EXPECT_EQ(Industrial.convLayerCount(), 5);
  EXPECT_EQ(Industrial.fcLayerCount(), 2);
  EXPECT_EQ(Industrial.activationLayerCount(), 6);

  TensorCircuit Squeeze = makeSqueezeNetCifar();
  EXPECT_EQ(Squeeze.convLayerCount(), 10);
  EXPECT_EQ(Squeeze.fcLayerCount(), 0);
  EXPECT_EQ(Squeeze.activationLayerCount(), 9);
}

TEST(Networks, FpOperationCountsScaleAcrossFamily) {
  uint64_t Small = makeLeNet5Small().fpOperationCount();
  uint64_t Medium = makeLeNet5Medium().fpOperationCount();
  uint64_t Large = makeLeNet5Large().fpOperationCount();
  EXPECT_LT(Small, Medium);
  EXPECT_LT(Medium, Large);
  // Same order of magnitude as Table 3's figures.
  EXPECT_GT(Large, 10000000u);
  EXPECT_LT(Small, 3000000u);
}

TEST(Networks, OutputsAreBoundedWithSyntheticWeights) {
  for (const NetworkEntry &Entry : networkZoo()) {
    TensorCircuit Circ = Entry.Build(1);
    Tensor3 Image = randomImageFor(Circ, 42);
    Tensor3 Out = Circ.evaluatePlain(Image);
    for (double V : Out.Data) {
      EXPECT_TRUE(std::isfinite(V)) << Entry.Name;
      EXPECT_LT(std::fabs(V), 100.0) << Entry.Name;
    }
  }
}

TEST(Networks, OutputShapes) {
  EXPECT_EQ(makeLeNet5Small().ops().back().C, 10);
  EXPECT_EQ(makeLeNet5Medium().ops().back().C, 10);
  EXPECT_EQ(makeLeNet5Large().ops().back().C, 10);
  EXPECT_EQ(makeIndustrial().ops().back().C, 2);
  TensorCircuit Sq = makeSqueezeNetCifar();
  EXPECT_EQ(Sq.ops().back().C, 10);
  EXPECT_EQ(Sq.ops().back().H, 1);
}

TEST(Networks, ReductionShrinksButPreservesStructure) {
  TensorCircuit Full = makeLeNet5Large(1);
  TensorCircuit Reduced = makeLeNet5Large(8);
  EXPECT_EQ(Full.convLayerCount(), Reduced.convLayerCount());
  EXPECT_EQ(Full.fcLayerCount(), Reduced.fcLayerCount());
  EXPECT_LT(Reduced.fpOperationCount(), Full.fpOperationCount() / 8);
}

TEST(Networks, DeterministicConstruction) {
  TensorCircuit A = makeIndustrial(2);
  TensorCircuit B = makeIndustrial(2);
  Tensor3 Image = randomImageFor(A, 3);
  EXPECT_EQ(maxAbsDiff(A.evaluatePlain(Image), B.evaluatePlain(Image)),
            0.0);
}

TEST(Networks, BatchNormFoldingMatchesExplicitBn) {
  // Folding BN into a conv must equal conv followed by the affine BN op.
  Prng Rng(9);
  ConvWeights Wt(3, 2, 3, 3);
  for (double &V : Wt.W)
    V = Rng.nextDouble(-1, 1);
  for (double &V : Wt.Bias)
    V = Rng.nextDouble(-0.5, 0.5);
  std::vector<double> Gamma = {1.1, 0.9, 1.3}, Beta = {0.2, -0.1, 0.0},
                      Mean = {0.05, -0.2, 0.1}, Var = {1.2, 0.8, 1.0};
  Tensor3 In(2, 6, 6);
  for (double &V : In.Data)
    V = Rng.nextDouble(-1, 1);

  Tensor3 Plain = refConv2d(In, Wt, 1, 1);
  for (int C = 0; C < 3; ++C)
    for (int Y = 0; Y < Plain.H; ++Y)
      for (int X = 0; X < Plain.W; ++X)
        Plain.at(C, Y, X) = Gamma[C] * (Plain.at(C, Y, X) - Mean[C]) /
                                std::sqrt(Var[C] + 1e-5) +
                            Beta[C];

  ConvWeights Folded = Wt;
  foldBatchNormIntoConv(Folded, Gamma, Beta, Mean, Var);
  Tensor3 Got = refConv2d(In, Folded, 1, 1);
  EXPECT_LT(maxAbsDiff(Got, Plain), 1e-12);
}

TEST(Networks, EncryptedPredictionAgreesWithPlain) {
  // The substitution for the paper's accuracy-parity experiment: the
  // encrypted network must predict the same class as the float network.
  TensorCircuit Circ = makeLeNet5Small(/*Reduction=*/4);
  CompilerOptions O;
  O.Scheme = SchemeKind::RnsCkks;
  O.Scales = ScaleConfig::fromExponents(30, 30, 30, 16);
  CompiledCircuit C = compileCircuit(Circ, O);
  RnsCkksBackend Backend = makeRnsBackend(C);
  // The footprint's key-material prediction is the backend's count.
  EXPECT_EQ(C.Footprint.KeyBytes, Backend.keyBytes());
  int Agree = 0;
  const int Samples = 1; // one full encrypted inference keeps CI fast

  for (int I = 0; I < Samples; ++I) {
    Tensor3 Image = randomImageFor(Circ, 100 + I);
    Tensor3 Enc = runEncryptedInference(Backend, Circ, Image, C.Scales,
                                        C.Policy);
    Tensor3 Plain = Circ.evaluatePlain(Image);
    Agree += argmax(Enc) == argmax(Plain);
  }
  EXPECT_EQ(Agree, Samples);
}

} // namespace
