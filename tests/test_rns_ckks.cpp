//===- test_rns_ckks.cpp - Tests for the RNS-CKKS backend ------------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ckks/RnsCkks.h"

#include "ckks/Serialization.h"
#include "hisa/Hisa.h"
#include "math/UIntArith.h"
#include "support/Error.h"
#include "support/LimbPool.h"
#include "support/Prng.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

using namespace chet;

static_assert(HisaBackend<RnsCkksBackend>,
              "RnsCkksBackend must satisfy the HISA concept");

namespace chet {
/// Reads the seeded key material RnsCkksBackend keeps private.
struct RnsCkksKeyProbe {
  /// The relinearization key (\p Step == 0) or the Galois key of a step.
  static const RnsCkksBackend::KSwitchKey &key(const RnsCkksBackend &B,
                                              int Step) {
    return Step == 0
               ? B.RelinKey
               : B.GaloisKeys.at(B.Encoder.galoisElement(Step)).Key;
  }
  /// The level \p Step's key serves.
  static int level(const RnsCkksBackend &B, int Step) {
    return key(B, Step).Level;
  }
  /// Digits \p Step's key stores.
  static size_t digits(const RnsCkksBackend &B, int Step) {
    return key(B, Step).B.size();
  }
  /// Key-local index of modulus \p J (chain primes, then special primes)
  /// in \p Step's key.
  static size_t local(const RnsCkksBackend &B, int Step, size_t J) {
    size_t Chain = size_t(level(B, Step)) + 1;
    return J < B.ChainLen ? J : Chain + (J - B.ChainLen);
  }
  /// The checkpoint of a_{g,J} in \p Step's key.
  static Prng seed(const RnsCkksBackend &B, int Step, size_t G, size_t J) {
    size_t Moduli = size_t(level(B, Step)) + 1 + B.Alpha;
    return key(B, Step).Seeds[G * Moduli + local(B, Step, J)];
  }
  /// b_{g,J} of \p Step's key, widened from its row's stored words.
  static std::vector<uint64_t> storedB(const RnsCkksBackend &B, int Step,
                                       size_t G, size_t J) {
    const auto &K = key(B, Step);
    size_t Offset = K.RowOffset[local(B, Step, J)];
    if (isNarrowModulus(B.modAt(J).value()))
      return std::vector<uint64_t>(K.B32[G].begin() + Offset,
                                   K.B32[G].begin() + Offset + B.Degree);
    return std::vector<uint64_t>(K.B[G].begin() + Offset,
                                 K.B[G].begin() + Offset + B.Degree);
  }
  /// a_{g,J} of \p Step's key, regenerated from its checkpoint.
  static std::vector<uint64_t> expandA(const RnsCkksBackend &B, int Step,
                                       size_t G, size_t J) {
    Prng Stream = seed(B, Step, G, J);
    std::vector<uint64_t> Out(B.Degree);
    B.drawUniform(Stream, J, Out.data(), Out.size());
    return Out;
  }
  /// The keygen stream's current state.
  static Prng stream(const RnsCkksBackend &B) { return B.Rng; }
  /// Every stored word of \p Step's key: the b halves, then the seeds.
  static std::vector<uint8_t> stored(const RnsCkksBackend &B, int Step) {
    const auto &K = key(B, Step);
    std::vector<uint8_t> Bytes;
    auto Append = [&](const void *Data, size_t Size) {
      const auto *P = static_cast<const uint8_t *>(Data);
      Bytes.insert(Bytes.end(), P, P + Size);
    };
    for (const auto &Wide : K.B)
      Append(Wide.data(), Wide.size() * sizeof(uint64_t));
    for (const auto &Narrow : K.B32)
      Append(Narrow.data(), Narrow.size() * sizeof(uint32_t));
    Append(K.Seeds.data(), K.Seeds.size() * sizeof(Prng));
    return Bytes;
  }
};
} // namespace chet

namespace {

constexpr double kScale = 1099511627776.0; // 2^40

class RnsCkksTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    RnsCkksParams P = RnsCkksParams::create(/*LogN=*/11, /*Levels=*/3);
    P.Security = SecurityLevel::None; // test-size ring
    Backend = new RnsCkksBackend(P);
  }
  static void TearDownTestSuite() {
    delete Backend;
    Backend = nullptr;
  }

  std::vector<double> randomValues(uint64_t Seed, double Lo = -10,
                                   double Hi = 10) {
    Prng Rng(Seed);
    std::vector<double> V(Backend->slotCount());
    for (auto &X : V)
      X = Rng.nextDouble(Lo, Hi);
    return V;
  }

  RnsCkksBackend::Ct encryptValues(const std::vector<double> &V,
                                   double Scale = kScale) {
    return Backend->encrypt(Backend->encode(V, Scale));
  }

  std::vector<double> decryptValues(const RnsCkksBackend::Ct &C) {
    return Backend->decode(Backend->decrypt(C));
  }

  static RnsCkksBackend *Backend;
};

RnsCkksBackend *RnsCkksTest::Backend = nullptr;

TEST_F(RnsCkksTest, EncryptDecryptRoundTrip) {
  auto V = randomValues(1);
  auto C = encryptValues(V);
  auto Back = decryptValues(C);
  for (size_t I = 0; I < V.size(); ++I)
    ASSERT_NEAR(Back[I], V[I], 1e-6) << "slot " << I;
}

TEST_F(RnsCkksTest, HomomorphicAddSub) {
  auto A = randomValues(2), B = randomValues(3);
  auto CA = encryptValues(A), CB = encryptValues(B);
  auto Sum = add(*Backend, CA, CB);
  auto Diff = sub(*Backend, CA, CB);
  auto SumBack = decryptValues(Sum);
  auto DiffBack = decryptValues(Diff);
  for (size_t I = 0; I < A.size(); ++I) {
    ASSERT_NEAR(SumBack[I], A[I] + B[I], 1e-5);
    ASSERT_NEAR(DiffBack[I], A[I] - B[I], 1e-5);
  }
}

TEST_F(RnsCkksTest, AddSubPlainAndScalar) {
  auto A = randomValues(4), B = randomValues(5);
  auto C = encryptValues(A);
  auto P = Backend->encode(B, kScale);
  Backend->addPlainAssign(C, P);
  Backend->addScalarAssign(C, 2.5);
  Backend->subScalarAssign(C, 1.0);
  auto Back = decryptValues(C);
  for (size_t I = 0; I < A.size(); ++I)
    ASSERT_NEAR(Back[I], A[I] + B[I] + 1.5, 1e-5);
}

TEST_F(RnsCkksTest, CiphertextMultiplicationWithRescale) {
  auto A = randomValues(6, -3, 3), B = randomValues(7, -3, 3);
  auto CA = encryptValues(A), CB = encryptValues(B);
  auto Prod = mul(*Backend, CA, CB);
  EXPECT_NEAR(Backend->scaleOf(Prod), kScale * kScale, 1.0);
  rescaleToFloor(*Backend, Prod, kScale);
  EXPECT_LT(Backend->scaleOf(Prod), kScale * kScale);
  EXPECT_EQ(Backend->levelOf(Prod), Backend->maxLevel() - 1);
  auto Back = decryptValues(Prod);
  for (size_t I = 0; I < A.size(); ++I)
    ASSERT_NEAR(Back[I], A[I] * B[I], 1e-4);
}

TEST_F(RnsCkksTest, SquaringTwiceConsumesTwoLevels) {
  auto A = randomValues(8, -2, 2);
  auto C = encryptValues(A);
  for (int Round = 0; Round < 2; ++Round) {
    auto C2 = mul(*Backend, C, C);
    rescaleToFloor(*Backend, C2, kScale);
    C = C2;
  }
  EXPECT_EQ(Backend->levelOf(C), Backend->maxLevel() - 2);
  auto Back = decryptValues(C);
  for (size_t I = 0; I < A.size(); ++I)
    ASSERT_NEAR(Back[I], A[I] * A[I] * A[I] * A[I],
                5e-3 * std::max(1.0, std::fabs(Back[I])));
}

TEST_F(RnsCkksTest, MulPlainAndScalar) {
  auto A = randomValues(9, -4, 4), W = randomValues(10, -2, 2);
  auto C = encryptValues(A);
  auto P = Backend->encode(W, kScale);
  auto CP = mulPlain(*Backend, C, P);
  rescaleToFloor(*Backend, CP, kScale);
  auto BackP = decryptValues(CP);
  for (size_t I = 0; I < A.size(); ++I)
    ASSERT_NEAR(BackP[I], A[I] * W[I], 1e-4);

  auto CS = mulScalar(*Backend, C, -1.5, uint64_t(kScale));
  rescaleToFloor(*Backend, CS, kScale);
  auto BackS = decryptValues(CS);
  for (size_t I = 0; I < A.size(); ++I)
    ASSERT_NEAR(BackS[I], A[I] * -1.5, 1e-4);
}

TEST_F(RnsCkksTest, RotationWithDedicatedKeys) {
  auto A = randomValues(11);
  size_t Slots = Backend->slotCount();
  for (int Step : {1, 2, 16, static_cast<int>(Slots) / 2}) {
    auto C = encryptValues(A);
    Backend->rotLeftAssign(C, Step);
    auto Back = decryptValues(C);
    for (size_t I = 0; I < Slots; ++I)
      ASSERT_NEAR(Back[I], A[(I + Step) % Slots], 1e-5)
          << "step " << Step << " slot " << I;
  }
}

TEST_F(RnsCkksTest, RotationRightAndComposition) {
  auto A = randomValues(12);
  size_t Slots = Backend->slotCount();
  auto C = encryptValues(A);
  Backend->rotRightAssign(C, 4);
  auto Back = decryptValues(C);
  for (size_t I = 0; I < Slots; ++I)
    ASSERT_NEAR(Back[I], A[(I + Slots - 4) % Slots], 1e-5);
}

TEST_F(RnsCkksTest, NonPow2RotationFallsBackToPow2Keys) {
  // Step 5 = 4 + 1 has no dedicated key by default.
  EXPECT_FALSE(Backend->hasRotationKey(5));
  auto A = randomValues(13);
  auto C = encryptValues(A);
  Backend->rotLeftAssign(C, 5);
  auto Back = decryptValues(C);
  size_t Slots = Backend->slotCount();
  for (size_t I = 0; I < Slots; ++I)
    ASSERT_NEAR(Back[I], A[(I + 5) % Slots], 1e-5);
}

TEST_F(RnsCkksTest, GeneratedKeyMakesRotationSingleHop) {
  Backend->generateRotationKeys({5});
  EXPECT_TRUE(Backend->hasRotationKey(5));
  auto A = randomValues(14);
  auto C = encryptValues(A);
  Backend->rotLeftAssign(C, 5);
  auto Back = decryptValues(C);
  size_t Slots = Backend->slotCount();
  for (size_t I = 0; I < Slots; ++I)
    ASSERT_NEAR(Back[I], A[(I + 5) % Slots], 1e-5);
}

TEST_F(RnsCkksTest, MaxRescaleFollowsChainSemantics) {
  auto C = encryptValues(randomValues(15));
  // Bound below the next prime: nothing to rescale by.
  EXPECT_EQ(Backend->maxRescale(C, 1), 1u);
  EXPECT_EQ(Backend->maxRescale(C, 1000), 1u);
  // Bound above the last prime: exactly that prime.
  uint64_t QLast = Backend->params().ChainPrimes.back();
  EXPECT_EQ(Backend->maxRescale(C, QLast), QLast);
  EXPECT_EQ(Backend->maxRescale(C, QLast + 1000), QLast);
}

TEST_F(RnsCkksTest, AdditionAlignsLevels) {
  auto A = randomValues(16, -2, 2), B = randomValues(17, -2, 2);
  auto CA = encryptValues(A);
  auto CB = encryptValues(B);
  // Push CA one level down via a square + rescale.
  auto CA2 = mul(*Backend, CA, CA);
  rescaleToFloor(*Backend, CA2, kScale);
  // Multiply CB by a plaintext of ones, rescale by the same prime so the
  // scales match exactly, then add.
  auto Ones = Backend->encode(std::vector<double>(Backend->slotCount(), 1.0),
                              kScale);
  auto CB2 = mulPlain(*Backend, CB, Ones);
  rescaleToFloor(*Backend, CB2, kScale);
  EXPECT_EQ(Backend->levelOf(CA2), Backend->levelOf(CB2));
  auto Sum = add(*Backend, CA2, CB2);
  auto Back = decryptValues(Sum);
  for (size_t I = 0; I < A.size(); ++I)
    ASSERT_NEAR(Back[I], A[I] * A[I] + B[I], 5e-4);
}

TEST_F(RnsCkksTest, ParamsReportModulusSizes) {
  const RnsCkksParams &P = Backend->params();
  EXPECT_EQ(P.levels(), 3);
  EXPECT_GT(P.logQ(), 59 + 3 * 39);
  EXPECT_GT(P.logQP(), P.logQ());
}

TEST_F(RnsCkksTest, CandidateChainIsDisjointFromSpecial) {
  auto Chain = RnsCkksParams::candidateChain(5);
  uint64_t Special = RnsCkksParams::candidateSpecial();
  for (uint64_t Q : Chain)
    EXPECT_NE(Q, Special);
  // A chain of 60-bit scale primes draws from the special primes' own
  // sequence; the derived list skips whatever the chain holds.
  for (int ScaleBits : {40, 60}) {
    auto Wide = RnsCkksParams::candidateChain(9, 60, ScaleBits);
    auto List = RnsCkksParams::specialPrimesFor(Wide, 13, SecurityLevel::None);
    ASSERT_EQ(List.size(), Wide.size()) << ScaleBits;
    EXPECT_EQ(List.front(), Special);
    std::vector<uint64_t> All = Wide;
    All.insert(All.end(), List.begin(), List.end());
    std::sort(All.begin(), All.end());
    EXPECT_EQ(std::adjacent_find(All.begin(), All.end()), All.end());
    for (uint64_t P : List)
      EXPECT_EQ(P % (uint64_t(1) << 17), 1u); // NTT-friendly to LogN 16
  }
}

TEST_F(RnsCkksTest, SpecialPrimesMinimizeKeyWordsWithinTheBudget) {
  auto KeyWords = [](size_t L1, size_t A) {
    return (L1 + A - 1) / A * (L1 + A);
  };
  // The 128-bit LeNet-5-small chain: 16 primes, logQ ~ 495 of the
  // 881-bit LogN = 15 budget, so alpha <= 6; six wins (66 vs 272 words).
  auto Chain = RnsCkksParams::candidateChain(16, 60, 29);
  auto List = RnsCkksParams::specialPrimesFor(Chain, 15,
                                              SecurityLevel::Classical128);
  EXPECT_EQ(List.size(), 6u);
  EXPECT_EQ(KeyWords(Chain.size(), List.size()), 66u);
  // Exhaustively: in budget, minimal key words, ties to the smaller alpha.
  for (int LogN : {12, 13, 14, 15, 16})
    for (int Count : {1, 2, 5, 7, 12, 20}) {
      auto C = RnsCkksParams::candidateChain(Count, 60, 30);
      RnsCkksParams P;
      P.LogN = LogN;
      P.ChainPrimes = C;
      P.SpecialPrimes = RnsCkksParams::specialPrimesFor(
          C, LogN, SecurityLevel::Classical128);
      size_t Alpha = P.SpecialPrimes.size();
      ASSERT_GE(Alpha, 1u);
      ASSERT_LE(Alpha, C.size());
      double Spare = maxLogQForSecurity(LogN, SecurityLevel::Classical128) -
                     P.logQ();
      size_t MaxAlpha = std::max<size_t>(
          1, std::min<size_t>(C.size(), Spare > 0 ? size_t(Spare / 60) : 0));
      EXPECT_LE(Alpha, MaxAlpha);
      if (Alpha > 1) {
        EXPECT_LE(P.logQP(), maxLogQForSecurity(LogN,
                                                SecurityLevel::Classical128));
      }
      for (size_t A = 1; A <= MaxAlpha; ++A)
        EXPECT_TRUE(KeyWords(C.size(), Alpha) < KeyWords(C.size(), A) ||
                    (KeyWords(C.size(), Alpha) == KeyWords(C.size(), A) &&
                     Alpha <= A))
            << "LogN " << LogN << " chain " << Count << " alpha " << Alpha
            << " vs " << A;
    }
}

TEST_F(RnsCkksTest, SecurityCheckRejectsOversizedModulus) {
  RnsCkksParams P = RnsCkksParams::create(/*LogN=*/11, /*Levels=*/3);
  P.Security = SecurityLevel::Classical128; // budget is 54 bits at LogN=11
  EXPECT_THROW(RnsCkksBackend{P}, SecurityBudgetError);
}

TEST_F(RnsCkksTest, FreeReleasesStorage) {
  auto C = encryptValues(randomValues(18));
  Backend->freeCt(C);
  EXPECT_TRUE(C.C0.empty());
  EXPECT_TRUE(C.C1.empty());
}

//===----------------------------------------------------------------------===//
// Hybrid key switching: byte identity with one special prime, correctness
// and determinism with several.
//===----------------------------------------------------------------------===//

/// Restores the default thread pool and limb pool on scope exit.
struct PoolsGuard {
  bool WasEnabled = LimbPool::instance().enabled();
  ~PoolsGuard() {
    setGlobalThreadCount(0);
    LimbPool::instance().setEnabled(WasEnabled);
  }
};

uint64_t fnv1a(uint64_t H, const ByteBuffer &Bytes) {
  for (uint8_t Byte : Bytes) {
    H ^= Byte;
    H *= 1099511628211ULL;
  }
  return H;
}

/// encrypt -> mul+relin -> rotate (dedicated key, power-of-two hops) ->
/// rotLeftMany -> rescale, twice; returns the FNV-1a hash of every
/// intermediate ciphertext's bytes.
uint64_t onePrimePipelineHash() {
  RnsCkksParams P = RnsCkksParams::create(12, 4, 60, 30);
  P.Security = SecurityLevel::None;
  P.Seed = 2024;
  P.SpecialPrimes = {RnsCkksParams::candidateSpecial()};
  RnsCkksBackend B(P);
  B.generateRotationKeys({3});
  uint64_t H = 1469598103934665603ULL;
  auto Mix = [&](const RnsCkksBackend::Ct &C) { H = fnv1a(H, serialize(C)); };
  Prng Rng(11);
  std::vector<double> V1(B.slotCount()), V2(B.slotCount());
  for (auto &X : V1)
    X = Rng.nextDouble(-1, 1);
  for (auto &X : V2)
    X = Rng.nextDouble(-1, 1);
  double S = std::ldexp(1.0, 30);
  auto A = B.encrypt(B.encode(V1, S));
  auto C = B.encrypt(B.encode(V2, S));
  Mix(A);
  B.mulAssign(A, C);
  Mix(A);
  B.rotLeftAssign(A, 3);
  Mix(A);
  B.rotLeftAssign(A, 5);
  Mix(A);
  for (auto &R : B.rotLeftMany(A, {1, 3, 0, 6}))
    Mix(R);
  B.rescaleAssign(A, B.maxRescale(A, uint64_t(1) << 31));
  Mix(A);
  B.mulAssign(A, A);
  Mix(A);
  for (auto &R : B.rotLeftMany(A, {3, 2}))
    Mix(R);
  B.rescaleAssign(A, B.maxRescale(A, uint64_t(1) << 31));
  Mix(A);
  return H;
}

TEST(RnsCkksHybrid, OneSpecialPrimeReproducesTheSinglePrimeBytes) {
  // Recorded with the per-prime-digit key switch this construction
  // generalizes (one special prime, one digit per chain prime).
  constexpr uint64_t kRecorded = 0x84416cd9441df865ULL;
  PoolsGuard Guard;
  for (unsigned Threads : {1u, 2u, 8u}) {
    setGlobalThreadCount(Threads);
    EXPECT_EQ(onePrimePipelineHash(), kRecorded) << Threads << " threads";
  }
  LimbPool::instance().setEnabled(false);
  EXPECT_EQ(onePrimePipelineHash(), kRecorded) << "CHET_LIMB_POOL=off";
}

/// A 60-bit q_0 and six 30-bit scale primes keyed with three 60-bit
/// special primes: three digits at the top level, the first mixing q_0
/// with narrow primes. Per level from the top down to 2: mul+relin, a
/// dedicated-key rotation, a power-of-two-hop rotation and a hoisted batch
/// (with a key trimmed to level 3 once it applies), then a rescale;
/// returns the FNV-1a hash of every intermediate ciphertext's bytes.
uint64_t narrowPipelineHash() {
  RnsCkksParams P = RnsCkksParams::create(12, 6, 60, 30);
  P.Security = SecurityLevel::None;
  P.Seed = 2025;
  P.SpecialPrimes = RnsCkksParams::specialPrimesFor(P.ChainPrimes, P.LogN,
                                                    SecurityLevel::None);
  P.SpecialPrimes.resize(3);
  RnsCkksBackend B(P);
  B.generateRotationKeys({3});
  B.generateRotationKey(7, 3);
  uint64_t H = 1469598103934665603ULL;
  auto Mix = [&](const RnsCkksBackend::Ct &C) { H = fnv1a(H, serialize(C)); };
  Prng Rng(13);
  std::vector<double> V1(B.slotCount()), V2(B.slotCount());
  for (auto &X : V1)
    X = Rng.nextDouble(-1, 1);
  for (auto &X : V2)
    X = Rng.nextDouble(-1, 1);
  double S = std::ldexp(1.0, 30);
  auto A = B.encrypt(B.encode(V1, S));
  auto C = B.encrypt(B.encode(V2, S));
  Mix(A);
  while (A.Level >= 2) {
    B.mulAssign(A, C);
    Mix(A);
    B.rotLeftAssign(A, 3);
    Mix(A);
    B.rotLeftAssign(A, 5);
    Mix(A);
    std::vector<int> Amounts = {1, 3, 0, 6};
    if (A.Level <= 3)
      Amounts.push_back(7);
    for (auto &R : B.rotLeftMany(A, Amounts))
      Mix(R);
    B.rescaleAssign(A, B.maxRescale(A, uint64_t(1) << 31));
    Mix(A);
  }
  return H;
}

TEST(RnsCkksHybrid, NarrowChainReproducesTheRecordedBytes) {
  // Recorded with every key row stored and folded as 64-bit words.
  constexpr uint64_t kRecorded = 0xd9cd7acd41c31ae9ULL;
  PoolsGuard Guard;
  for (unsigned Threads : {1u, 2u, 8u}) {
    setGlobalThreadCount(Threads);
    EXPECT_EQ(narrowPipelineHash(), kRecorded) << Threads << " threads";
  }
  LimbPool::instance().setEnabled(false);
  EXPECT_EQ(narrowPipelineHash(), kRecorded) << "CHET_LIMB_POOL=off";
}

/// q_0 and eighty 30-bit scale primes under one special prime: 81 digits
/// at the top level and 80 after one rescale. A product of two residues
/// below a 30-bit prime is below 2^60 (~2^58 on average), so a 64-bit sum
/// of every digit's product would overflow for most elements. The pooled
/// kernels must fold them exactly as the reference mulMod/addMod loop
/// does.
TEST(RnsCkksHybrid, ManyDigitsMatchTheReferenceFold) {
  RnsCkksParams P = RnsCkksParams::create(10, 80, 60, 30);
  P.Security = SecurityLevel::None;
  P.Seed = 77;
  P.StockPow2Keys = false;
  P.SpecialPrimes = {RnsCkksParams::candidateSpecial()};
  auto Run = [&] {
    RnsCkksBackend B(P);
    B.generateRotationKeys({1});
    std::vector<double> V(B.slotCount());
    Prng Rng(5);
    for (auto &X : V)
      X = Rng.nextDouble(-1, 1);
    auto A = B.encrypt(B.encode(V, std::ldexp(1.0, 30)));
    std::vector<ByteBuffer> Out;
    for (int Round = 0; Round < 2; ++Round) {
      B.mulAssign(A, A);
      Out.push_back(serialize(A));
      for (auto &R : B.rotLeftMany(A, {1, 0}))
        Out.push_back(serialize(R));
      B.rescaleAssign(A, B.maxRescale(A, uint64_t(1) << 31));
    }
    return Out;
  };
  PoolsGuard Guard;
  const std::vector<ByteBuffer> Ref = Run();
  LimbPool::instance().setEnabled(false);
  EXPECT_TRUE(Run() == Ref) << "CHET_LIMB_POOL=off";
}

/// Seven chain primes (not a multiple of 2 or 3) keyed with the first
/// \p Alpha special primes.
RnsCkksParams hybridParams(size_t Alpha) {
  RnsCkksParams P = RnsCkksParams::create(/*LogN=*/11, /*Levels=*/6, 60, 40);
  P.Security = SecurityLevel::None;
  P.Seed = 41;
  P.StockPow2Keys = false;
  P.SpecialPrimes = RnsCkksParams::specialPrimesFor(P.ChainPrimes, P.LogN,
                                                    SecurityLevel::None);
  P.SpecialPrimes.resize(Alpha);
  return P;
}

/// At every level: a dedicated-key rotation, a power-of-two-hop rotation
/// and a hoisted batch (each amount checked byte for byte against
/// rotLeftAssign), then mul+relin and a rescale. Returns every
/// ciphertext's bytes; \p MaxErr gets the worst decryption error.
std::vector<ByteBuffer> hybridPipeline(size_t Alpha, double &MaxErr) {
  RnsCkksBackend B(hybridParams(Alpha));
  B.generateRotationKeys({2, 3, 4, 5}); // 6 runs as the hops 4 + 2
  const size_t Slots = B.slotCount();
  Prng Rng(17);
  std::vector<double> Want(Slots);
  for (auto &X : Want)
    X = Rng.nextDouble(-1, 1);
  const double Scale = std::ldexp(1.0, 40);
  auto A = B.encrypt(B.encode(Want, Scale));
  std::vector<ByteBuffer> Out;
  MaxErr = 0;
  auto Check = [&](const RnsCkksBackend::Ct &C, int Steps,
                   const std::vector<double> &Values) {
    auto Got = B.decode(B.decrypt(C));
    for (size_t I = 0; I < Slots; ++I)
      MaxErr = std::max(MaxErr,
                        std::fabs(Got[I] - Values[(I + Steps) % Slots]));
    Out.push_back(serialize(C));
  };
  while (true) {
    for (int Steps : {3, 6}) {
      auto R = B.copy(A);
      B.rotLeftAssign(R, Steps);
      Check(R, Steps, Want);
    }
    std::vector<int> Amounts = {3, 5, 0, 6};
    auto Many = B.rotLeftMany(A, Amounts);
    for (size_t I = 0; I < Amounts.size(); ++I) {
      auto R = B.copy(A);
      B.rotLeftAssign(R, Amounts[I]);
      EXPECT_EQ(serialize(Many[I]), serialize(R))
          << "alpha " << Alpha << " level " << A.Level << " amount "
          << Amounts[I];
      Check(Many[I], Amounts[I], Want);
    }
    if (A.Level == 0)
      break;
    auto Sq = B.copy(A);
    B.mulAssign(Sq, A);
    rescaleToFloor(B, Sq, Scale);
    for (auto &X : Want)
      X *= X;
    A = std::move(Sq);
    Check(A, 0, Want);
  }
  return Out;
}

TEST(RnsCkksHybrid, DecryptsWithinToleranceAtEveryLevel) {
  PoolsGuard Guard;
  setGlobalThreadCount(2);
  for (size_t Alpha : {2u, 3u, 7u}) {
    double MaxErr = 0;
    hybridPipeline(Alpha, MaxErr);
    EXPECT_LT(MaxErr, 1e-4) << "alpha " << Alpha;
  }
}

TEST(RnsCkksHybrid, BytesIdenticalAcrossThreadsAndLimbPool) {
  PoolsGuard Guard;
  for (size_t Alpha : {2u, 3u, 7u}) {
    double Err = 0;
    setGlobalThreadCount(1);
    std::vector<ByteBuffer> Ref = hybridPipeline(Alpha, Err);
    for (unsigned Threads : {2u, 8u}) {
      setGlobalThreadCount(Threads);
      EXPECT_TRUE(hybridPipeline(Alpha, Err) == Ref)
          << "alpha " << Alpha << ", " << Threads << " threads";
    }
    setGlobalThreadCount(2);
    LimbPool::instance().setEnabled(false);
    EXPECT_TRUE(hybridPipeline(Alpha, Err) == Ref)
        << "alpha " << Alpha << ", CHET_LIMB_POOL=off";
    LimbPool::instance().setEnabled(true);
  }
}

TEST(RnsCkksHybrid, KeySwitchNttCountsMatchClosedForm) {
  for (size_t Alpha : {1u, 2u, 3u, 7u}) {
    RnsCkksBackend B(hybridParams(Alpha));
    B.generateRotationKeys({1, 2, 3, 5});
    std::vector<double> V(B.slotCount(), 0.5);
    const double Scale = std::ldexp(1.0, 40);
    auto A = B.encrypt(B.encode(V, Scale));
    for (int Level : {6, 4, 1}) {
      while (A.Level > Level)
        B.rescaleAssign(A, B.params().ChainPrimes[A.Level]);
      const uint64_t L1 = Level + 1;
      const uint64_t Beta = (L1 + Alpha - 1) / Alpha;
      // ModUp transforms every digit into every active modulus outside
      // its group; ModDown takes alpha limbs down and L+1 back, per half.
      const uint64_t ModUpFwd = Beta * (L1 + Alpha) - L1;
      auto Expect = [&](uint64_t Fwd, uint64_t Inv, const char *What) {
        auto S = B.keySwitchNttStats();
        EXPECT_EQ(S.ForwardNtts, Fwd)
            << What << " alpha " << Alpha << " level " << Level;
        EXPECT_EQ(S.InverseNtts, Inv)
            << What << " alpha " << Alpha << " level " << Level;
        B.resetKeySwitchNttStats();
      };
      B.resetKeySwitchNttStats();
      auto M = B.copy(A);
      B.mulAssign(M, A);
      Expect(ModUpFwd + 2 * L1, L1 + 2 * Alpha, "mul");
      auto R = B.copy(A);
      B.rotLeftAssign(R, 3);
      Expect(ModUpFwd + 2 * L1, L1 + 2 * Alpha, "rotate");
      B.rotLeftMany(A, {3, 5, 0, 1, 2});
      Expect(ModUpFwd + 4 * 2 * L1, L1 + 4 * 2 * Alpha, "rotLeftMany");
    }
  }
}

TEST(RnsCkksHybrid, KeyBytesCountDigitsTimesModuli) {
  for (size_t Alpha : {1u, 3u, 7u}) {
    RnsCkksBackend B(hybridParams(Alpha));
    B.generateRotationKeys({1, 2, 3, -1023});
    EXPECT_EQ(B.rotationKeyCount(), 3u); // -1023 and 1 share a key
    const uint64_t N = 2048, L1 = 7, Beta = (L1 + Alpha - 1) / Alpha;
    const uint64_t Galois = B.rotationKeyCount(), Keys = 1 + Galois;
    // Public key (2 x L1 limbs), then per key and (digit, modulus) block
    // one b half and a 32-byte seed, then each Galois permutation.
    EXPECT_EQ(B.keyBytes(), 2 * L1 * N * 8 +
                                Keys * Beta * (L1 + Alpha) * (N * 8 + 32) +
                                Galois * N * 4)
        << "alpha " << Alpha;
    // A key trimmed to level 2 keeps ceil(3 / alpha) digits of 3 + alpha
    // moduli.
    const uint64_t Before = B.keyBytes();
    B.generateRotationKey(7, 2);
    EXPECT_EQ(B.keyBytes(), Before + (3 + Alpha - 1) / Alpha * (3 + Alpha) *
                                         (N * 8 + 32) +
                                N * 4)
        << "alpha " << Alpha;
  }
}

TEST(RnsCkksHybrid, NarrowKeyRowsAreFourBytesAndTrimExactly) {
  // A 60-bit q_0 and six 30-bit scale primes under 60-bit special primes:
  // per digit, 1 + alpha rows of 8-byte words and 6 of 4-byte words.
  for (size_t Alpha : {1u, 3u}) {
    RnsCkksParams P = RnsCkksParams::create(/*LogN=*/11, /*Levels=*/6, 60, 30);
    P.Security = SecurityLevel::None;
    P.StockPow2Keys = false;
    P.SpecialPrimes = RnsCkksParams::specialPrimesFor(P.ChainPrimes, P.LogN,
                                                      SecurityLevel::None);
    P.SpecialPrimes.resize(Alpha);
    for (uint64_t Q : P.ChainPrimes)
      ASSERT_EQ(isNarrowModulus(Q), Q != P.ChainPrimes[0]);
    RnsCkksBackend B(P);
    B.generateRotationKeys({1, 2});
    const uint64_t N = 2048, L1 = 7, Beta = (L1 + Alpha - 1) / Alpha;
    const uint64_t Galois = B.rotationKeyCount(), Keys = 1 + Galois;
    const uint64_t Wide = N * 8 + 32, Narrow = N * 4 + 32;
    EXPECT_EQ(B.keyBytes(), 2 * L1 * N * 8 +
                                Keys * Beta *
                                    ((1 + Alpha) * Wide + 6 * Narrow) +
                                Galois * N * 4)
        << "alpha " << Alpha;
    // A key trimmed to level 2 keeps ceil(3 / alpha) digits of q_0, q_1,
    // q_2 and the special primes.
    const uint64_t Before = B.keyBytes();
    B.generateRotationKey(7, 2);
    EXPECT_EQ(B.keyBytes(), Before + (3 + Alpha - 1) / Alpha *
                                         ((1 + Alpha) * Wide + 2 * Narrow) +
                                N * 4)
        << "alpha " << Alpha;
    // Its rows of either width are the full-level key's.
    RnsCkksBackend Full(P);
    Full.generateRotationKeys({1, 2, 7});
    for (size_t G = 0; G < P.digitsAt(2); ++G)
      for (size_t J = 0; J < L1 + Alpha; ++J) {
        if (J > 2 && J < L1)
          continue;
        EXPECT_TRUE(RnsCkksKeyProbe::storedB(B, 7, G, J) ==
                    RnsCkksKeyProbe::storedB(Full, 7, G, J))
            << "alpha " << Alpha << " digit " << G << " modulus " << J;
      }
  }
}

//===----------------------------------------------------------------------===//
// Seeded keys: the uniform halves regenerate from per-block checkpoints.
//===----------------------------------------------------------------------===//

/// hybridParams(3) with its second special prime swapped for the first
/// NTT-friendly prime above 2^59. Near 2^60, 2^64 mod q is tiny and
/// rejection sampling never fires; just above 2^59 it rejects ~1/32 of
/// the draws.
RnsCkksParams rejectingParams() {
  RnsCkksParams P = hybridParams(3);
  uint64_t Q = (uint64_t(1) << 59) + 1;
  while (!isPrime(Q))
    Q += uint64_t(2) << P.LogN;
  P.SpecialPrimes[1] = Q;
  return P;
}

TEST(RnsCkksSeededKeys, CheckpointsReplayTheSequentialDrawOrder) {
  const RnsCkksParams P = rejectingParams();
  const std::vector<int> Steps = {1, 5};
  RnsCkksBackend B(P);
  B.generateRotationKeys(Steps);
  const size_t N = size_t(1) << P.LogN;
  const size_t Chain = P.ChainPrimes.size();
  std::vector<uint64_t> Moduli = P.ChainPrimes;
  Moduli.insert(Moduli.end(), P.SpecialPrimes.begin(), P.SpecialPrimes.end());

  // Keygen's draws, one nextBounded per uniform word: the secret, the
  // public key's error and a halves, then per key and digit the error
  // followed by a_{g,0..Moduli-1}.
  Prng Replay(P.Seed);
  for (size_t K = 0; K < N; ++K)
    Replay.nextTernary();
  for (size_t K = 0; K < N; ++K)
    Replay.nextCenteredGaussian();
  for (size_t J = 0; J < Chain; ++J)
    for (size_t K = 0; K < N; ++K)
      Replay.nextBounded(Moduli[J]);
  uint64_t Rejected = 0;
  std::vector<int> Keys = {0};
  Keys.insert(Keys.end(), Steps.begin(), Steps.end());
  for (int Step : Keys) {
    for (size_t G = 0; G < P.digitsAt(P.levels()); ++G) {
      for (size_t K = 0; K < N; ++K)
        Replay.nextCenteredGaussian();
      for (size_t J = 0; J < Moduli.size(); ++J) {
        const uint64_t Q = Moduli[J];
        std::vector<uint64_t> Want(N);
        for (uint64_t &V : Want) {
          Prng Peek = Replay;
          Rejected += Peek.next() < -Q % Q;
          V = Replay.nextBounded(Q);
        }
        EXPECT_EQ(RnsCkksKeyProbe::expandA(B, Step, G, J), Want)
            << "key " << Step << " digit " << G << " modulus " << J;
      }
    }
  }
  EXPECT_GT(Rejected, 0u) << "no draw exercised the rejection path";

  // Encryption continues from the state the replay reached (the
  // encrypt-after-keygen bytes themselves are pinned by
  // OneSpecialPrimeReproducesTheSinglePrimeBytes).
  Prng Left = RnsCkksKeyProbe::stream(B);
  EXPECT_EQ(std::memcmp(&Left, &Replay, sizeof(Prng)), 0);

  // Level-trimmed keys keep exactly the blocks a key switch at their
  // level reads -- digits 0..beta_l-1 over q_0..q_l and the special
  // primes -- each identical to the full key's, and leave the stream
  // where the full keys left it.
  const std::vector<std::pair<int, int>> Trimmed = {{1, 2}, {5, 4}};
  RnsCkksBackend T(P);
  for (auto [Step, Level] : Trimmed)
    T.generateRotationKey(Step, Level);
  for (auto [Step, Level] : Trimmed) {
    EXPECT_EQ(RnsCkksKeyProbe::level(T, Step), Level);
    ASSERT_EQ(RnsCkksKeyProbe::digits(T, Step), P.digitsAt(Level));
    for (size_t G = 0; G < P.digitsAt(Level); ++G)
      for (size_t J = 0; J < Moduli.size(); ++J) {
        if (J > size_t(Level) && J < Chain)
          continue;
        Prng Got = RnsCkksKeyProbe::seed(T, Step, G, J);
        Prng Want = RnsCkksKeyProbe::seed(B, Step, G, J);
        EXPECT_EQ(std::memcmp(&Got, &Want, sizeof(Prng)), 0)
            << "key " << Step << " digit " << G << " modulus " << J;
        EXPECT_TRUE(RnsCkksKeyProbe::storedB(T, Step, G, J) ==
                    RnsCkksKeyProbe::storedB(B, Step, G, J))
            << "key " << Step << " digit " << G << " modulus " << J;
      }
  }
  Prng TrimmedLeft = RnsCkksKeyProbe::stream(T);
  EXPECT_EQ(std::memcmp(&TrimmedLeft, &Replay, sizeof(Prng)), 0);
}

/// Trimmed keys rotate byte-identically to full keys at or below their
/// level, on every rotation path, and throw a typed error above it.
TEST(RnsCkksTrimmedKeys, MatchTheFullKeyAtOrBelowTheirLevelAndThrowAbove) {
  const RnsCkksParams P = hybridParams(3);
  RnsCkksBackend Full(P), Trim(P);
  Full.generateRotationKeys({1, 2, 5});
  Trim.generateRotationKey(1, 2);
  Trim.generateRotationKey(2, 2);
  Trim.generateRotationKey(5, 4);
  // A lower request keeps the key; a higher one regenerates it.
  Trim.generateRotationKey(5, 3);
  EXPECT_EQ(RnsCkksKeyProbe::level(Trim, 5), 4);
  EXPECT_LT(Trim.keyBytes(), Full.keyBytes());

  std::vector<double> V(Full.slotCount());
  Prng Rng(23);
  for (double &X : V)
    X = Rng.nextDouble(-1, 1);
  const double Scale = std::ldexp(1.0, 40);
  auto A = Full.encrypt(Full.encode(V, Scale));
  auto AT = Trim.encrypt(Trim.encode(V, Scale));
  ASSERT_TRUE(serialize(A) == serialize(AT)); // keygen left the same stream

  auto ExpectThrow = [&](auto &&Rotate, const std::string &Step, int Key,
                         int Level) {
    try {
      Rotate();
      ADD_FAILURE() << "no error for rotation by " << Step;
    } catch (const MissingRotationKeyError &E) {
      std::string M = E.what();
      EXPECT_NE(M.find("rotation by " + Step), std::string::npos) << M;
      EXPECT_NE(M.find("level " + std::to_string(Key)), std::string::npos)
          << M;
      EXPECT_NE(M.find("level " + std::to_string(Level)), std::string::npos)
          << M;
    }
  };
  auto Rescale = [](RnsCkksBackend &B, RnsCkksBackend::Ct &C, int Level) {
    while (C.Level > Level)
      B.rescaleAssign(C, B.params().ChainPrimes[C.Level]);
  };
  auto ExpectSame = [&](int Steps) {
    auto R = Full.copy(A), RT = Trim.copy(AT);
    Full.rotLeftAssign(R, Steps);
    Trim.rotLeftAssign(RT, Steps);
    EXPECT_TRUE(serialize(R) == serialize(RT)) << "rotation by " << Steps;
  };

  // Top level (6): every key is too short. 3 runs as the hops 1 + 2.
  auto R = Trim.copy(AT);
  ExpectThrow([&] { Trim.rotLeftAssign(R, 5); }, "5", 4, 6);
  ExpectThrow([&] { Trim.rotLeftAssign(R, 3); }, "1", 2, 6);
  ExpectThrow([&] { Trim.rotLeftMany(AT, {0, 5}); }, "5", 4, 6);

  Rescale(Full, A, 4);
  Rescale(Trim, AT, 4);
  ExpectSame(5);
  ExpectThrow([&] { Trim.rotLeftMany(AT, {5, 1}); }, "1", 2, 4);

  Rescale(Full, A, 2);
  Rescale(Trim, AT, 2);
  ExpectSame(3);
  ExpectSame(5);
  std::vector<int> Steps = {1, 0, 5, 3, 2};
  auto Many = Full.rotLeftMany(A, Steps);
  auto ManyT = Trim.rotLeftMany(AT, Steps);
  for (size_t I = 0; I < Steps.size(); ++I)
    EXPECT_TRUE(serialize(Many[I]) == serialize(ManyT[I]))
        << "hoisted amount " << Steps[I];

  // Raising a key's level regenerates it.
  Trim.generateRotationKey(5, 6);
  EXPECT_EQ(RnsCkksKeyProbe::level(Trim, 5), 6);
}

TEST(RnsCkksSeededKeys, KeygenIsIdenticalAcrossThreadsAndLimbPool) {
  PoolsGuard Guard;
  auto Material = [] {
    RnsCkksBackend B(rejectingParams());
    B.generateRotationKeys({1, 5});
    std::vector<std::vector<uint8_t>> Out;
    for (int Step : {0, 1, 5})
      Out.push_back(RnsCkksKeyProbe::stored(B, Step));
    return Out;
  };
  setGlobalThreadCount(1);
  const auto Ref = Material();
  for (unsigned Threads : {2u, 3u, 4u, 8u}) {
    setGlobalThreadCount(Threads);
    EXPECT_TRUE(Material() == Ref) << Threads << " threads";
  }
  LimbPool::instance().setEnabled(false);
  EXPECT_TRUE(Material() == Ref) << "CHET_LIMB_POOL=off";
}

} // namespace
