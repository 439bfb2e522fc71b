//===- test_parallel_determinism.cpp - Thread-count invariance -------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The determinism contract of the threading model (DESIGN.md): the same
/// seed and circuit produce byte-identical serialized ciphertexts under
/// 1, 2, 3, 4 and 8 lanes, because every parallel loop either has fully
/// independent iterations or folds its terms in a fixed index order. At
/// 3 lanes the partitions are uneven and idle lanes take nested blocks.
/// Also unit-tests the EncodedPlaintextCache (hit/miss counting, manual
/// and scale-change invalidation, evaluator wiring) and the
/// ProfilingBackend adapter.
///
//===----------------------------------------------------------------------===//

#include "core/Evaluate.h"

#include "ckks/BigCkks.h"
#include "ckks/RnsCkks.h"
#include "ckks/Serialization.h"
#include "hisa/PlainBackend.h"
#include "hisa/ProfilingBackend.h"
#include "nn/Networks.h"
#include "runtime/ReferenceOps.h"
#include "support/Prng.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

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

/// Restores the CHET_NUM_THREADS / hardware default pool on scope exit so
/// a failing test cannot leak an unusual thread count into later tests.
struct PoolGuard {
  ~PoolGuard() { setGlobalThreadCount(0); }
};

/// Serialized bytes of every output ciphertext of the small encrypted
/// pipeline (conv -> activation -> pool -> FC) under \p Threads lanes,
/// using backend \p MakeBackend built fresh per call with a fixed seed.
/// Side stages off the pooled tensor cover the remaining kernels: the
/// HW -> CHW -> HW layout round trip, the general (rotate-and-mask) CHW
/// channel concatenation, and a forced BSGS fully-connected layer on the
/// FC output.
template <typename MakeFn>
std::vector<ByteBuffer> pipelineBytes(MakeFn &&MakeBackend, LayoutKind Kind,
                                      unsigned Threads) {
  setGlobalThreadCount(Threads);
  auto Backend = MakeBackend();
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
  auto F1 = fullyConnected(Backend, P1, Fc, S);
  auto Chw = convertLayout(Backend, P1, LayoutKind::CHW, S);
  auto Hw = convertLayout(Backend, Chw, LayoutKind::HW, S);
  // Two channels fill no whole ciphertext: the rotate-and-mask path.
  auto Cat = concatChannels(Backend, Chw, Chw, S);
  // A 4 x 4 layer on F1's dense output keeps BSGS to a few rotations.
  auto F2 = fullyConnected(Backend, F1, randomFc(4, 4, 4), S, LayoutKind::CHW,
                           FcAlgorithm::Bsgs);

  std::vector<ByteBuffer> Bytes;
  for (const auto *T : {&F1, &Hw, &Cat, &F2})
    for (const auto &Ct : T->Cts)
      Bytes.push_back(serialize(Ct));
  return Bytes;
}

TEST(ParallelDeterminism, RnsCkksByteIdenticalAcrossThreadCounts) {
  PoolGuard Guard;
  auto Make = [] {
    RnsCkksParams P = RnsCkksParams::create(/*LogN=*/12, /*Levels=*/10,
                                            /*FirstBits=*/60,
                                            /*ScaleBits=*/30);
    P.Security = SecurityLevel::None;
    P.Seed = 77;
    return RnsCkksBackend(P);
  };
  for (LayoutKind Kind : {LayoutKind::HW, LayoutKind::CHW}) {
    std::vector<ByteBuffer> Ref = pipelineBytes(Make, Kind, 1);
    for (unsigned Threads : {2u, 3u, 4u, 8u}) {
      std::vector<ByteBuffer> Got = pipelineBytes(Make, Kind, Threads);
      ASSERT_EQ(Ref.size(), Got.size());
      for (size_t I = 0; I < Ref.size(); ++I)
        EXPECT_EQ(Ref[I], Got[I])
            << "ciphertext " << I << " diverged at " << Threads
            << " threads (layout "
            << (Kind == LayoutKind::HW ? "HW" : "CHW") << ")";
    }
  }
}

TEST(ParallelDeterminism, BigCkksByteIdenticalAcrossThreadCounts) {
  PoolGuard Guard;
  auto Make = [] {
    BigCkksParams P;
    P.LogN = 12;
    P.LogQ = 240;
    P.Seed = 78;
    P.Security = SecurityLevel::None;
    return BigCkksBackend(P);
  };
  std::vector<ByteBuffer> Ref = pipelineBytes(Make, LayoutKind::HW, 1);
  for (unsigned Threads : {2u, 3u, 4u, 8u}) {
    std::vector<ByteBuffer> Got = pipelineBytes(Make, LayoutKind::HW, Threads);
    ASSERT_EQ(Ref.size(), Got.size());
    for (size_t I = 0; I < Ref.size(); ++I)
      EXPECT_EQ(Ref[I], Got[I])
          << "ciphertext " << I << " diverged at " << Threads << " threads";
  }
}

TEST(ParallelDeterminism, FullCircuitPlainIdenticalAcrossThreadCounts) {
  PoolGuard Guard;
  TensorCircuit Circ = makeLeNet5Small(/*Reduction=*/2);
  Tensor3 Image = randomImageFor(Circ, 7);
  ScaleConfig S;
  auto Run = [&](unsigned Threads, LayoutPolicy Policy) {
    setGlobalThreadCount(Threads);
    PlainBackend Backend(12);
    return runEncryptedInference(Backend, Circ, Image, S, Policy);
  };
  for (LayoutPolicy Policy : kAllLayoutPolicies) {
    Tensor3 Ref = Run(1, Policy);
    for (unsigned Threads : {2u, 3u, 4u, 8u}) {
      Tensor3 Got = Run(Threads, Policy);
      // Bit-exact, not approximately equal: same fold order everywhere.
      ASSERT_EQ(Ref.Data.size(), Got.Data.size());
      for (size_t I = 0; I < Ref.Data.size(); ++I)
        ASSERT_EQ(Ref.Data[I], Got.Data[I])
            << "policy " << layoutPolicyName(Policy) << ", " << Threads
            << " threads, element " << I;
    }
  }
}

//===----------------------------------------------------------------------===//
// EncodedPlaintextCache
//===----------------------------------------------------------------------===//

TEST(PlaintextCache, HitAndMissCounting) {
  PlainBackend Backend(10);
  EncodedPlaintextCache<PlainBackend> Cache;
  KernelCache<PlainBackend> KC{&Cache, /*TensorId=*/3};
  TensorLayout L = makeInputLayout(LayoutKind::HW, 1, 4, 4, 0,
                                   Backend.slotCount());
  int Builds = 0;
  auto Build = [&] {
    ++Builds;
    return std::vector<double>{1, 2, 3};
  };
  auto P1 = cachedEncode(Backend, KC, kSubWeight | 5, L, 1024.0, Build);
  auto P2 = cachedEncode(Backend, KC, kSubWeight | 5, L, 1024.0, Build);
  EXPECT_EQ(Builds, 1);
  EXPECT_EQ(Cache.misses(), 1u);
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_EQ(Cache.size(), 1u);
  // A hit aliases the canonical entry instead of copying it.
  EXPECT_EQ(P1.get(), P2.get());
  EXPECT_EQ(P1->Values, P2->Values);

  // Different sub-key, scale, or layout each miss separately.
  cachedEncode(Backend, KC, kSubMask | 5, L, 1024.0, Build);
  cachedEncode(Backend, KC, kSubWeight | 5, L, 2048.0, Build);
  TensorLayout L2 = L;
  L2.OffX += 1;
  cachedEncode(Backend, KC, kSubWeight | 5, L2, 1024.0, Build);
  EXPECT_EQ(Cache.misses(), 4u);
  EXPECT_EQ(Cache.size(), 4u);
}

TEST(PlaintextCache, NullCacheBypasses) {
  PlainBackend Backend(10);
  KernelCache<PlainBackend> KC; // no cache attached
  TensorLayout L = makeInputLayout(LayoutKind::HW, 1, 4, 4, 0,
                                   Backend.slotCount());
  int Builds = 0;
  auto Build = [&] {
    ++Builds;
    return std::vector<double>{1.0};
  };
  cachedEncode(Backend, KC, kSubWeight | 1, L, 16.0, Build);
  cachedEncode(Backend, KC, kSubWeight | 1, L, 16.0, Build);
  EXPECT_EQ(Builds, 2);
}

TEST(PlaintextCache, ManualAndScaleChangeInvalidation) {
  EncodedPlaintextCache<PlainBackend> Cache;
  PlainBackend Backend(10);
  KernelCache<PlainBackend> KC{&Cache, 1};
  TensorLayout L = makeInputLayout(LayoutKind::HW, 1, 4, 4, 0,
                                   Backend.slotCount());
  auto Build = [] { return std::vector<double>{2.0}; };

  ScaleConfig S1 = ScaleConfig::fromExponents(30, 30, 30, 16);
  Cache.noteScales(S1);
  cachedEncode(Backend, KC, kSubWeight | 1, L, S1.Weight, Build);
  EXPECT_EQ(Cache.size(), 1u);

  // Same scales again: nothing dropped.
  Cache.noteScales(S1);
  EXPECT_EQ(Cache.size(), 1u);
  EXPECT_EQ(Cache.invalidations(), 0u);

  // Changed scales: everything dropped.
  ScaleConfig S2 = ScaleConfig::fromExponents(28, 30, 30, 16);
  Cache.noteScales(S2);
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_EQ(Cache.invalidations(), 1u);

  cachedEncode(Backend, KC, kSubWeight | 1, L, S2.Weight, Build);
  Cache.invalidate();
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_EQ(Cache.invalidations(), 2u);
}

TEST(PlaintextCache, EvaluatorWiringHitsOnSecondInference) {
  PoolGuard Guard;
  setGlobalThreadCount(2);
  TensorCircuit Circ = makeLeNet5Small(/*Reduction=*/2);
  Tensor3 Image = randomImageFor(Circ, 7);
  PlainBackend Backend(12);
  ScaleConfig S;
  EncodedPlaintextCache<PlainBackend> Cache;

  Tensor3 Bare = runEncryptedInference(Backend, Circ, Image, S,
                                       LayoutPolicy::AllCHW);
  Tensor3 First = runEncryptedInference(Backend, Circ, Image, S,
                                        LayoutPolicy::AllCHW,
                                        FcAlgorithm::Auto, &Cache);
  uint64_t MissesAfterFirst = Cache.misses();
  EXPECT_GT(MissesAfterFirst, 0u);
  Tensor3 Second = runEncryptedInference(Backend, Circ, Image, S,
                                         LayoutPolicy::AllCHW,
                                         FcAlgorithm::Auto, &Cache);
  // Every encode of the second run is served from the cache.
  EXPECT_EQ(Cache.misses(), MissesAfterFirst);
  EXPECT_GT(Cache.hits(), 0u);
  // And caching never changes the computed function.
  for (size_t I = 0; I < Bare.Data.size(); ++I) {
    ASSERT_EQ(Bare.Data[I], First.Data[I]);
    ASSERT_EQ(Bare.Data[I], Second.Data[I]);
  }
}

//===----------------------------------------------------------------------===//
// ProfilingBackend
//===----------------------------------------------------------------------===//

TEST(ProfilingBackend, CountsOpsAndRendersReport) {
  PoolGuard Guard;
  setGlobalThreadCount(2);
  TensorCircuit Circ = makeLeNet5Small(/*Reduction=*/4);
  Tensor3 Image = randomImageFor(Circ, 11);
  PlainBackend Inner(12);
  ProfilingBackend<PlainBackend> Prof(Inner);
  ScaleConfig S;

  Tensor3 Got =
      runEncryptedInference(Prof, Circ, Image, S, LayoutPolicy::AllCHW);
  Tensor3 Want = Circ.evaluatePlain(Image);
  EXPECT_LT(maxAbsDiff(Got, Want), 1e-9);

  EXPECT_GT(Prof.totalOps(), 0u);
  auto Stats = Prof.stats();
  ASSERT_FALSE(Stats.empty());
  bool SawMulPlain = false;
  for (const auto &St : Stats) {
    EXPECT_GT(St.Count, 0u);
    SawMulPlain |= St.Name == "mulPlain";
  }
  EXPECT_TRUE(SawMulPlain);
  std::string Report = Prof.report();
  EXPECT_NE(Report.find("mulPlain"), std::string::npos);
  EXPECT_NE(Report.find("total"), std::string::npos);

  Prof.reset();
  EXPECT_EQ(Prof.totalOps(), 0u);
  EXPECT_TRUE(Prof.stats().empty());
}

} // namespace
