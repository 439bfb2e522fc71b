//===- test_hoisting.cpp - Hoisted rotation fan-out tests ------------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hoisted rotation fan-out contract (rotLeftMany): on both real
/// schemes, hoisted outputs are byte-identical to the per-rotation path
/// under 1, 2 and 8 threads (serialized ciphertext compare, mirroring
/// test_parallel_determinism); amounts without a dedicated Galois key
/// fall back to the power-of-two decomposition with identical bytes; and
/// the key-switch NTT counters show the >= 2x forward-NTT amortization on
/// a CHW convolution layer and a BSGS fully-connected kernel with one
/// special prime, and the exact shared-ModUp saving with several.
/// Finally, the schedule the compiler prices is the one that runs: for
/// every zoo network (plus a packed-FC and a concat circuit) under each
/// layout policy, the analysis interpreter's op histogram (hoisted
/// batches, rotated amounts, multiplications, additions, rescales)
/// equals a plain-backend run's at 1, 4 and 8 lanes.
///
//===----------------------------------------------------------------------===//

#include "runtime/Kernels.h"

#include "ckks/BigCkks.h"
#include "ckks/RnsCkks.h"
#include "ckks/Serialization.h"
#include "core/Analysis.h"
#include "core/Evaluate.h"
#include "hisa/PlainBackend.h"
#include "hisa/ProfilingBackend.h"
#include "nn/Networks.h"
#include "support/Prng.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <vector>

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

/// Restores the default pool on scope exit (see test_parallel_determinism).
struct PoolGuard {
  ~PoolGuard() { setGlobalThreadCount(0); }
};

/// The small conv -> activation -> pool -> FC pipeline of the determinism
/// tests, templated so the analysis interpreter can replay it to collect
/// the rotation-key set the real backends then generate.
template <HisaBackend B>
CipherTensor<B> runPipeline(B &Backend, LayoutKind Kind) {
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
  return fullyConnected(Backend, P1, Fc, S);
}

/// Rotation steps the pipeline needs, via the analysis interpretation --
/// the same flow the compiler's key-selection pass uses (Section 5.4).
std::vector<int> pipelineKeySteps(LayoutKind Kind) {
  AnalysisConfig Cfg;
  Cfg.Scheme = SchemeKind::RnsCkks;
  Cfg.LogN = 12;
  Cfg.ScalePrimeCandidates.assign(10, uint64_t(1) << 30);
  AnalysisBackend B(Cfg);
  runPipeline(B, Kind);
  return std::vector<int>(B.rotationSteps().begin(), B.rotationSteps().end());
}

struct RnsRun {
  std::vector<ByteBuffer> Bytes;
  uint64_t HoistedAmounts = 0;
  uint64_t HoistedBatches = 0;
};

/// \p Alpha special primes key-switch the 11-prime chain; 0 keeps the
/// list RnsCkksParams::create derives (one prime: the chain overruns the
/// LogN = 12 security budget create sizes against).
RnsRun rnsRun(LayoutKind Kind, unsigned Threads, bool Hoist,
              const std::vector<int> &Keys, size_t Alpha = 0) {
  setGlobalThreadCount(Threads);
  RnsCkksParams P = RnsCkksParams::create(/*LogN=*/12, /*Levels=*/10,
                                          /*FirstBits=*/60, /*ScaleBits=*/30);
  P.Security = SecurityLevel::None;
  P.Seed = 77;
  if (Alpha) {
    P.SpecialPrimes = RnsCkksParams::specialPrimesFor(P.ChainPrimes, P.LogN,
                                                      SecurityLevel::None);
    P.SpecialPrimes.resize(Alpha);
  }
  RnsCkksBackend Backend(P);
  Backend.generateRotationKeys(Keys);
  Backend.setRotationHoisting(Hoist);
  auto F1 = runPipeline(Backend, Kind);
  RnsRun R;
  for (const auto &Ct : F1.Cts)
    R.Bytes.push_back(serialize(Ct));
  auto S = Backend.keySwitchNttStats();
  R.HoistedAmounts = S.HoistedAmounts;
  R.HoistedBatches = S.HoistedBatches;
  return R;
}

RnsRun bigRun(LayoutKind Kind, unsigned Threads, bool Hoist,
              const std::vector<int> &Keys) {
  setGlobalThreadCount(Threads);
  BigCkksParams P;
  P.LogN = 12;
  P.LogQ = 240;
  P.Seed = 78;
  P.Security = SecurityLevel::None;
  BigCkksBackend Backend(P);
  Backend.generateRotationKeys(Keys);
  Backend.setRotationHoisting(Hoist);
  auto F1 = runPipeline(Backend, Kind);
  RnsRun R;
  for (const auto &Ct : F1.Cts)
    R.Bytes.push_back(serialize(Ct));
  auto S = Backend.keySwitchNttStats();
  R.HoistedAmounts = S.HoistedAmounts;
  R.HoistedBatches = S.HoistedBatches;
  return R;
}

/// The plain reference, tallying the two rotation facts the analysis
/// prices: batches with a non-zero amount, and non-zero amounts, hoisted
/// or not. A rotation by zero is a copy, which nothing prices.
class RotationTally : public PlainBackend {
public:
  using PlainBackend::PlainBackend;

  void rotLeftAssign(Ct &C, int Steps) const {
    tally({Steps});
    PlainBackend::rotLeftAssign(C, Steps);
  }
  void rotRightAssign(Ct &C, int Steps) const {
    tally({-Steps});
    PlainBackend::rotRightAssign(C, Steps);
  }
  std::vector<Ct> rotLeftMany(const Ct &C,
                              const std::vector<int> &Steps) const {
    Batches += tally(Steps) > 0;
    return PlainBackend::rotLeftMany(C, Steps);
  }

  mutable std::atomic<uint64_t> Batches{0}, Amounts{0};

private:
  uint64_t tally(const std::vector<int> &Steps) const {
    uint64_t NonZero = 0;
    for (int S : Steps)
      NonZero += normalizeRotation(S, slotCount()) != 0;
    Amounts += NonZero;
    return NonZero;
  }
};

} // namespace

template <>
inline constexpr bool chet::BackendSupportsParallelKernels<RotationTally> =
    true;

namespace {

void expectSameBytes(const std::vector<ByteBuffer> &Ref,
                     const std::vector<ByteBuffer> &Got,
                     const std::string &What) {
  ASSERT_EQ(Ref.size(), Got.size()) << What;
  for (size_t I = 0; I < Ref.size(); ++I)
    EXPECT_EQ(Ref[I], Got[I]) << What << ": ciphertext " << I << " diverged";
}

//===----------------------------------------------------------------------===//
// Byte-identity: hoisted vs per-rotation, across thread counts.
//===----------------------------------------------------------------------===//

TEST(Hoisting, RnsHoistedMatchesNaiveByteForByteAcrossThreads) {
  PoolGuard Guard;
  for (LayoutKind Kind : {LayoutKind::HW, LayoutKind::CHW}) {
    std::string KindName = Kind == LayoutKind::HW ? "HW" : "CHW";
    std::vector<int> Keys = pipelineKeySteps(Kind);
    ASSERT_FALSE(Keys.empty());
    RnsRun Ref = rnsRun(Kind, 1, /*Hoist=*/false, Keys);
    EXPECT_EQ(Ref.HoistedAmounts, 0u);
    expectSameBytes(Ref.Bytes, rnsRun(Kind, 8, false, Keys).Bytes,
                    "rns naive, 8 threads, " + KindName);
    for (unsigned Threads : {1u, 2u, 8u}) {
      RnsRun Got = rnsRun(Kind, Threads, /*Hoist=*/true, Keys);
      EXPECT_GT(Got.HoistedAmounts, 0u) << KindName;
      EXPECT_GT(Got.HoistedBatches, 0u) << KindName;
      expectSameBytes(Ref.Bytes, Got.Bytes,
                      "rns hoisted, " + std::to_string(Threads) +
                          " threads, " + KindName);
    }
  }
}

TEST(Hoisting, RnsHybridHoistedMatchesNaiveByteForByteAcrossThreads) {
  // Digits of 3 and of all 11 chain primes (11 is a multiple of neither
  // 2 nor 3, so the last digit is partial at the top level).
  PoolGuard Guard;
  std::vector<int> Keys = pipelineKeySteps(LayoutKind::HW);
  for (size_t Alpha : {3u, 11u}) {
    std::string What = "alpha " + std::to_string(Alpha);
    RnsRun Ref = rnsRun(LayoutKind::HW, 1, /*Hoist=*/false, Keys, Alpha);
    for (unsigned Threads : {1u, 2u, 8u}) {
      RnsRun Got = rnsRun(LayoutKind::HW, Threads, /*Hoist=*/true, Keys, Alpha);
      EXPECT_GT(Got.HoistedAmounts, 0u) << What;
      expectSameBytes(Ref.Bytes, Got.Bytes,
                      What + ", hoisted, " + std::to_string(Threads) +
                          " threads");
    }
  }
}

TEST(Hoisting, BigHoistedMatchesNaiveByteForByteAcrossThreads) {
  PoolGuard Guard;
  std::vector<int> Keys = pipelineKeySteps(LayoutKind::HW);
  ASSERT_FALSE(Keys.empty());
  RnsRun Ref = bigRun(LayoutKind::HW, 1, /*Hoist=*/false, Keys);
  EXPECT_EQ(Ref.HoistedAmounts, 0u);
  expectSameBytes(Ref.Bytes, bigRun(LayoutKind::HW, 8, false, Keys).Bytes,
                  "big naive, 8 threads");
  for (unsigned Threads : {1u, 2u, 8u}) {
    RnsRun Got = bigRun(LayoutKind::HW, Threads, /*Hoist=*/true, Keys);
    EXPECT_GT(Got.HoistedAmounts, 0u);
    expectSameBytes(Ref.Bytes, Got.Bytes,
                    "big hoisted, " + std::to_string(Threads) + " threads");
  }
}

//===----------------------------------------------------------------------===//
// Fallbacks: unkeyed amounts decompose, amount 0 copies -- same bytes.
//===----------------------------------------------------------------------===//

TEST(Hoisting, RnsMissingKeyAmountsFallBackIdentically) {
  PoolGuard Guard;
  setGlobalThreadCount(2);
  RnsCkksParams P = RnsCkksParams::create(12, 4, 60, 30);
  P.Security = SecurityLevel::None;
  P.Seed = 31;
  RnsCkksBackend Backend(P); // stock power-of-two keys
  Backend.generateRotationKeys({3});
  std::vector<double> V(Backend.slotCount());
  Prng Rng(5);
  for (double &X : V)
    X = Rng.nextDouble(-1, 1);
  auto C = Backend.encrypt(Backend.encode(V, std::ldexp(1.0, 30)));
  // 3 has a dedicated key (hoisted); 5 = 4+1 has none (power-of-two
  // fallback inside the batch); 0 is a copy.
  std::vector<int> Steps = {3, 5, 0};
  auto Many = Backend.rotLeftMany(C, Steps);
  ASSERT_EQ(Many.size(), Steps.size());
  for (size_t I = 0; I < Steps.size(); ++I) {
    auto R = Backend.copy(C);
    Backend.rotLeftAssign(R, Steps[I]);
    EXPECT_EQ(serialize(Many[I]), serialize(R)) << "amount " << Steps[I];
  }
  EXPECT_EQ(Backend.keySwitchNttStats().HoistedAmounts, 1u);
}

TEST(Hoisting, BigMissingKeyAmountsFallBackIdentically) {
  PoolGuard Guard;
  setGlobalThreadCount(2);
  BigCkksParams P;
  P.LogN = 12;
  P.LogQ = 180;
  P.Seed = 32;
  P.Security = SecurityLevel::None;
  BigCkksBackend Backend(P);
  Backend.generateRotationKeys({3});
  std::vector<double> V(Backend.slotCount());
  Prng Rng(6);
  for (double &X : V)
    X = Rng.nextDouble(-1, 1);
  auto C = Backend.encrypt(Backend.encode(V, std::ldexp(1.0, 30)));
  std::vector<int> Steps = {3, 5, 0};
  auto Many = Backend.rotLeftMany(C, Steps);
  ASSERT_EQ(Many.size(), Steps.size());
  for (size_t I = 0; I < Steps.size(); ++I) {
    auto R = Backend.copy(C);
    Backend.rotLeftAssign(R, Steps[I]);
    EXPECT_EQ(serialize(Many[I]), serialize(R)) << "amount " << Steps[I];
  }
  EXPECT_EQ(Backend.keySwitchNttStats().HoistedAmounts, 1u);
}

//===----------------------------------------------------------------------===//
// NTT amortization: >= 2x fewer forward NTTs on fan-out >= 4 kernels.
//===----------------------------------------------------------------------===//

TEST(Hoisting, ChwConvAmortizesKeySwitchNtts) {
  PoolGuard Guard;
  setGlobalThreadCount(2);
  ScaleConfig S = ScaleConfig::fromExponents(30, 30, 30, 16);
  // 4-in/4-out CHW conv in one channel block: every tap fans out over
  // the 6 nonzero channel diagonals (plus the diagonal-0 copy).
  Tensor3 In = randomTensor(4, 8, 8, 21);
  ConvWeights Conv = randomConv(4, 4, 3, 22);

  AnalysisConfig Cfg;
  Cfg.Scheme = SchemeKind::RnsCkks;
  Cfg.LogN = 12;
  Cfg.ScalePrimeCandidates.assign(6, uint64_t(1) << 30);
  AnalysisBackend AB(Cfg);
  TensorLayout AL =
      makeInputLayout(LayoutKind::CHW, 4, 8, 8, 1, AB.slotCount());
  auto AEnc = encryptTensor(AB, In, AL, S);
  conv2d(AB, AEnc, Conv, 1, 1, S);
  std::vector<int> Keys(AB.rotationSteps().begin(), AB.rotationSteps().end());

  RnsCkksParams P = RnsCkksParams::create(12, 6, 60, 30);
  P.Security = SecurityLevel::None;
  P.Seed = 91;
  RnsCkksBackend Backend(P);
  Backend.generateRotationKeys(Keys);
  ProfilingBackend<RnsCkksBackend> Prof(Backend);
  TensorLayout L =
      makeInputLayout(LayoutKind::CHW, 4, 8, 8, 1, Prof.slotCount());
  auto Enc = encryptTensor(Prof, In, L, S);

  Backend.resetKeySwitchNttStats();
  auto OutHoisted = conv2d(Prof, Enc, Conv, 1, 1, S);
  auto Hoisted = Backend.keySwitchNttStats();
  EXPECT_GT(Hoisted.HoistedBatches, 0u);
  // Fan-out >= 4 per hoisted batch.
  EXPECT_GE(Hoisted.HoistedAmounts, 4 * Hoisted.HoistedBatches);
  std::string Report = Prof.report();
  EXPECT_NE(Report.find("rotLeftMany fan-out"), std::string::npos) << Report;
  EXPECT_NE(Report.find("key-switch NTTs"), std::string::npos) << Report;
  EXPECT_NE(Report.find("hoisted in"), std::string::npos) << Report;

  Backend.setRotationHoisting(false);
  Backend.resetKeySwitchNttStats();
  auto OutNaive = conv2d(Prof, Enc, Conv, 1, 1, S);
  auto Naive = Backend.keySwitchNttStats();
  EXPECT_EQ(Naive.HoistedAmounts, 0u);
  EXPECT_GE(Naive.ForwardNtts, 2 * Hoisted.ForwardNtts)
      << "naive " << Naive.ForwardNtts << " vs hoisted "
      << Hoisted.ForwardNtts;
  ASSERT_EQ(OutHoisted.Cts.size(), OutNaive.Cts.size());
  for (size_t I = 0; I < OutHoisted.Cts.size(); ++I)
    EXPECT_EQ(serialize(OutHoisted.Cts[I]), serialize(OutNaive.Cts[I]));
}

TEST(Hoisting, BsgsFcAmortizesKeySwitchNtts) {
  PoolGuard Guard;
  setGlobalThreadCount(2);
  ScaleConfig S = ScaleConfig::fromExponents(30, 30, 30, 16);
  // Dense 16 x 256 FC on a single ciphertext: every baby step of the
  // G = 64 giant decomposition is needed, hoisted in one batch.
  Tensor3 In = randomTensor(1, 16, 16, 23);
  FcWeights Fc = randomFc(16, 256, 24);

  AnalysisConfig Cfg;
  Cfg.Scheme = SchemeKind::RnsCkks;
  Cfg.LogN = 12;
  Cfg.ScalePrimeCandidates.assign(6, uint64_t(1) << 30);
  AnalysisBackend AB(Cfg);
  TensorLayout AL =
      makeInputLayout(LayoutKind::CHW, 1, 16, 16, 0, AB.slotCount());
  auto AEnc = encryptTensor(AB, In, AL, S);
  fullyConnected(AB, AEnc, Fc, S, LayoutKind::CHW, FcAlgorithm::Bsgs);
  std::vector<int> Keys(AB.rotationSteps().begin(), AB.rotationSteps().end());

  RnsCkksParams P = RnsCkksParams::create(12, 6, 60, 30);
  P.Security = SecurityLevel::None;
  P.Seed = 92;
  RnsCkksBackend Backend(P);
  Backend.generateRotationKeys(Keys);
  ProfilingBackend<RnsCkksBackend> Prof(Backend);
  TensorLayout L =
      makeInputLayout(LayoutKind::CHW, 1, 16, 16, 0, Prof.slotCount());
  auto Enc = encryptTensor(Prof, In, L, S);

  Backend.resetKeySwitchNttStats();
  auto OutHoisted =
      fullyConnected(Prof, Enc, Fc, S, LayoutKind::CHW, FcAlgorithm::Bsgs);
  auto Hoisted = Backend.keySwitchNttStats();
  EXPECT_GT(Hoisted.HoistedBatches, 0u);
  EXPECT_GE(Hoisted.HoistedAmounts, 4 * Hoisted.HoistedBatches);

  Backend.setRotationHoisting(false);
  Backend.resetKeySwitchNttStats();
  auto OutNaive =
      fullyConnected(Prof, Enc, Fc, S, LayoutKind::CHW, FcAlgorithm::Bsgs);
  auto Naive = Backend.keySwitchNttStats();
  EXPECT_GE(Naive.ForwardNtts, 2 * Hoisted.ForwardNtts)
      << "naive " << Naive.ForwardNtts << " vs hoisted "
      << Hoisted.ForwardNtts;
  ASSERT_EQ(OutHoisted.Cts.size(), OutNaive.Cts.size());
  for (size_t I = 0; I < OutHoisted.Cts.size(); ++I)
    EXPECT_EQ(serialize(OutHoisted.Cts[I]), serialize(OutNaive.Cts[I]));
}

TEST(Hoisting, HybridChwConvSavesExactlyTheSharedModUps) {
  // With several special primes a rotation's ModUp no longer dominates
  // its ModDown, so the >= 2x ratio above does not apply; the saving is
  // exact instead: every hoisted amount after the first of its batch
  // skips one ModUp's forward transforms.
  PoolGuard Guard;
  setGlobalThreadCount(2);
  ScaleConfig S = ScaleConfig::fromExponents(30, 30, 30, 16);
  Tensor3 In = randomTensor(4, 8, 8, 21);
  ConvWeights Conv = randomConv(4, 4, 3, 22);

  AnalysisConfig Cfg;
  Cfg.Scheme = SchemeKind::RnsCkks;
  Cfg.LogN = 12;
  Cfg.ScalePrimeCandidates.assign(6, uint64_t(1) << 30);
  AnalysisBackend AB(Cfg);
  TensorLayout AL =
      makeInputLayout(LayoutKind::CHW, 4, 8, 8, 1, AB.slotCount());
  auto AEnc = encryptTensor(AB, In, AL, S);
  conv2d(AB, AEnc, Conv, 1, 1, S);
  std::vector<int> Keys(AB.rotationSteps().begin(), AB.rotationSteps().end());

  for (size_t Alpha : {2u, 3u, 7u}) {
    RnsCkksParams P = RnsCkksParams::create(12, 6, 60, 30);
    P.Security = SecurityLevel::None;
    P.Seed = 91;
    P.SpecialPrimes = RnsCkksParams::specialPrimesFor(P.ChainPrimes, P.LogN,
                                                      SecurityLevel::None);
    P.SpecialPrimes.resize(Alpha);
    RnsCkksBackend Backend(P);
    Backend.generateRotationKeys(Keys);
    TensorLayout L =
        makeInputLayout(LayoutKind::CHW, 4, 8, 8, 1, Backend.slotCount());
    auto Enc = encryptTensor(Backend, In, L, S);
    // Every rotation of this layer runs on the fresh input, at the top
    // level: ModUp costs beta (L+1+alpha) - (L+1) forward transforms,
    // ModDown 2 (L+1) per amount.
    const uint64_t L1 = 7, Beta = (L1 + Alpha - 1) / Alpha;
    const uint64_t ModUp = Beta * (L1 + Alpha) - L1, ModDown = 2 * L1;

    Backend.resetKeySwitchNttStats();
    auto OutHoisted = conv2d(Backend, Enc, Conv, 1, 1, S);
    auto Hoisted = Backend.keySwitchNttStats();
    Backend.setRotationHoisting(false);
    Backend.resetKeySwitchNttStats();
    auto OutNaive = conv2d(Backend, Enc, Conv, 1, 1, S);
    auto Naive = Backend.keySwitchNttStats();

    std::string What = "alpha " + std::to_string(Alpha);
    EXPECT_GT(Hoisted.HoistedBatches, 0u) << What;
    EXPECT_GE(Hoisted.HoistedAmounts, 4 * Hoisted.HoistedBatches) << What;
    EXPECT_EQ(Naive.Rotations, Hoisted.Rotations) << What;
    EXPECT_EQ(Naive.ForwardNtts, Naive.Rotations * (ModUp + ModDown))
        << What;
    uint64_t SharedModUps = Hoisted.Rotations - Hoisted.HoistedAmounts +
                            Hoisted.HoistedBatches;
    EXPECT_EQ(Hoisted.ForwardNtts,
              SharedModUps * ModUp + Hoisted.Rotations * ModDown)
        << What;
    EXPECT_EQ(Naive.InverseNtts - Hoisted.InverseNtts,
              (Hoisted.HoistedAmounts - Hoisted.HoistedBatches) * L1)
        << What;
    ASSERT_EQ(OutHoisted.Cts.size(), OutNaive.Cts.size());
    for (size_t I = 0; I < OutHoisted.Cts.size(); ++I)
      EXPECT_EQ(serialize(OutHoisted.Cts[I]), serialize(OutNaive.Cts[I]))
          << What;
  }
}

//===----------------------------------------------------------------------===//
// The priced schedule is the run schedule.
//===----------------------------------------------------------------------===//

/// The zoo at reduced size, plus two shapes it lacks: a packed FC layer
/// whose unmasked pool input forces two row groups, and a Fire-module
/// channel concatenation (the zoo's SqueezeNet fuses its expands).
std::vector<TensorCircuit> scheduleCircuits() {
  std::vector<TensorCircuit> Circs;
  for (const NetworkEntry &Entry : networkZoo())
    Circs.push_back(Entry.Build(/*Reduction=*/8));

  TensorCircuit Fc("packed-fc");
  Fc.output(Fc.fullyConnected(Fc.averagePool(Fc.input(2, 8, 8), 2, 2),
                              randomFc(32, 2 * 4 * 4, 15)));
  Circs.push_back(std::move(Fc));

  TensorCircuit Fire("fire");
  int Sq = Fire.conv2d(Fire.input(2, 8, 8), randomConv(2, 2, 1, 16), 1, 0);
  int Cat = Fire.concatChannels(Fire.conv2d(Sq, randomConv(3, 2, 1, 17), 1, 0),
                                Fire.conv2d(Sq, randomConv(3, 2, 3, 18), 1, 1));
  Fire.output(Fire.polyActivation(Cat, 0.25, 0.5));
  Circs.push_back(std::move(Fire));
  return Circs;
}

TEST(Hoisting, AnalysisPricesTheScheduleThatRuns) {
  // The compiler's cost model and key selection read the analysis
  // interpreter's histogram; a kernel whose batching followed the lane
  // count would make them price a schedule that never runs.
  PoolGuard Guard;
  constexpr int LogN = 12;
  ScaleConfig S;
  for (const TensorCircuit &Circ : scheduleCircuits()) {
    Tensor3 Image = randomImageFor(Circ, 5);
    for (LayoutPolicy Policy : kAllLayoutPolicies) {
      std::string What = Circ.name() + ", " + layoutPolicyName(Policy);
      AnalysisConfig Cfg;
      Cfg.Scheme = SchemeKind::BigCkks; // power-of-two rescales, as plain
      Cfg.LogN = LogN;
      AnalysisBackend AB(Cfg);
      evaluateCircuit(AB, Circ,
                      encryptTensor(AB, Image,
                                    circuitInputLayout(Circ, Policy,
                                                       AB.slotCount()),
                                    S),
                      S, Policy);
      const std::map<std::string, uint64_t> Counts = AB.opCounts();
      auto Priced = [&](const char *Op) {
        auto It = Counts.find(Op);
        return It == Counts.end() ? uint64_t(0) : It->second;
      };
      ASSERT_EQ(Priced("rotateHops"), 0u) << What;

      for (unsigned Threads : {1u, 4u}) {
        setGlobalThreadCount(Threads);
        RotationTally Inner(LogN);
        ProfilingBackend<RotationTally> Prof(Inner);
        evaluateCircuit(Prof, Circ,
                        encryptTensor(Prof, Image,
                                      circuitInputLayout(Circ, Policy,
                                                         Prof.slotCount()),
                                      S),
                        S, Policy);
        std::map<std::string, uint64_t> Ran;
        for (const auto &Row : Prof.stats())
          Ran[Row.Name] = Row.Count;
        std::string At = What + ", " + std::to_string(Threads) + " lanes";
        EXPECT_EQ(Inner.Batches.load(), Priced("rotateHoistShared")) << At;
        EXPECT_EQ(Inner.Amounts.load(), Priced("rotate")) << At;
        for (const char *Op :
             {"encode", "mulPlain", "mulScalar", "mul", "add", "addPlain",
              "rescale"})
          EXPECT_EQ(Ran[Op], Priced(Op)) << At << ": " << Op;
      }
    }
  }
}

} // namespace
