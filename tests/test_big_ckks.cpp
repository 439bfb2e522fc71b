//===- test_big_ckks.cpp - Tests for the HEAAN-style CKKS backend ----------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ckks/BigCkks.h"

#include "ckks/Serialization.h"
#include "hisa/Hisa.h"
#include "support/Error.h"
#include "support/LimbPool.h"
#include "support/Prng.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

using namespace chet;

static_assert(HisaBackend<BigCkksBackend>,
              "BigCkksBackend must satisfy the HISA concept");

namespace {

constexpr double kScale = 1073741824.0; // 2^30

class BigCkksTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    BigCkksParams P;
    P.LogN = 11;
    P.LogQ = 150;
    P.Security = SecurityLevel::None; // test-size ring
    Backend = new BigCkksBackend(P);
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

  BigCkksBackend::Ct encryptValues(const std::vector<double> &V,
                                   double Scale = kScale) {
    return Backend->encrypt(Backend->encode(V, Scale));
  }

  std::vector<double> decryptValues(const BigCkksBackend::Ct &C) {
    return Backend->decode(Backend->decrypt(C));
  }

  static BigCkksBackend *Backend;
};

BigCkksBackend *BigCkksTest::Backend = nullptr;

TEST_F(BigCkksTest, EncryptDecryptRoundTrip) {
  auto V = randomValues(1);
  auto C = encryptValues(V);
  EXPECT_EQ(Backend->logQOf(C), Backend->params().LogQ);
  auto Back = decryptValues(C);
  // Fresh-encryption noise is ~2^13 in the coefficients, i.e. ~2^-17
  // after removing the 2^30 scale.
  for (size_t I = 0; I < V.size(); ++I)
    ASSERT_NEAR(Back[I], V[I], 5e-5) << "slot " << I;
}

TEST_F(BigCkksTest, HomomorphicAddSub) {
  auto A = randomValues(2), B = randomValues(3);
  auto CA = encryptValues(A), CB = encryptValues(B);
  auto Sum = add(*Backend, CA, CB);
  auto Diff = sub(*Backend, CA, CB);
  auto SumBack = decryptValues(Sum);
  auto DiffBack = decryptValues(Diff);
  for (size_t I = 0; I < A.size(); ++I) {
    ASSERT_NEAR(SumBack[I], A[I] + B[I], 1e-4);
    ASSERT_NEAR(DiffBack[I], A[I] - B[I], 1e-4);
  }
}

TEST_F(BigCkksTest, AddSubPlainAndScalar) {
  auto A = randomValues(4), B = randomValues(5);
  auto C = encryptValues(A);
  auto P = Backend->encode(B, kScale);
  Backend->addPlainAssign(C, P);
  Backend->addScalarAssign(C, 2.5);
  Backend->subScalarAssign(C, 1.0);
  auto Back = decryptValues(C);
  for (size_t I = 0; I < A.size(); ++I)
    ASSERT_NEAR(Back[I], A[I] + B[I] + 1.5, 1e-4);
}

TEST_F(BigCkksTest, CiphertextMultiplicationWithExactRescale) {
  auto A = randomValues(6, -3, 3), B = randomValues(7, -3, 3);
  auto CA = encryptValues(A), CB = encryptValues(B);
  auto Prod = mul(*Backend, CA, CB);
  EXPECT_NEAR(Backend->scaleOf(Prod), kScale * kScale, 1.0);
  rescaleToFloor(*Backend, Prod, kScale);
  // CKKS rescaling by powers of two is exact: back to precisely 2^30.
  EXPECT_NEAR(Backend->scaleOf(Prod), kScale, 1e-9);
  EXPECT_EQ(Backend->logQOf(Prod), Backend->params().LogQ - 30);
  auto Back = decryptValues(Prod);
  for (size_t I = 0; I < A.size(); ++I)
    ASSERT_NEAR(Back[I], A[I] * B[I], 1e-3);
}

TEST_F(BigCkksTest, SquaringTwice) {
  auto A = randomValues(8, -2, 2);
  auto C = encryptValues(A);
  for (int Round = 0; Round < 2; ++Round) {
    auto C2 = mul(*Backend, C, C);
    rescaleToFloor(*Backend, C2, kScale);
    C = C2;
  }
  auto Back = decryptValues(C);
  for (size_t I = 0; I < A.size(); ++I)
    ASSERT_NEAR(Back[I], std::pow(A[I], 4),
                1e-2 * std::max(1.0, std::fabs(Back[I])));
}

TEST_F(BigCkksTest, MulPlainAndScalar) {
  auto A = randomValues(9, -4, 4), W = randomValues(10, -2, 2);
  auto C = encryptValues(A);
  auto P = Backend->encode(W, kScale);
  auto CP = mulPlain(*Backend, C, P);
  rescaleToFloor(*Backend, CP, kScale);
  auto BackP = decryptValues(CP);
  for (size_t I = 0; I < A.size(); ++I)
    ASSERT_NEAR(BackP[I], A[I] * W[I], 1e-3);

  auto CS = mulScalar(*Backend, C, -1.5, uint64_t(kScale));
  rescaleToFloor(*Backend, CS, kScale);
  auto BackS = decryptValues(CS);
  for (size_t I = 0; I < A.size(); ++I)
    ASSERT_NEAR(BackS[I], A[I] * -1.5, 1e-3);
}

TEST_F(BigCkksTest, RotationWithAndWithoutDedicatedKeys) {
  auto A = randomValues(11);
  size_t Slots = Backend->slotCount();
  for (int Step : {1, 8, 5, -3}) { // 5 and -3 exercise the pow2 fallback
    auto C = encryptValues(A);
    Backend->rotLeftAssign(C, Step);
    auto Back = decryptValues(C);
    int S = ((Step % static_cast<int>(Slots)) + Slots) % Slots;
    for (size_t I = 0; I < Slots; ++I)
      ASSERT_NEAR(Back[I], A[(I + S) % Slots], 1e-4)
          << "step " << Step << " slot " << I;
  }
}

TEST_F(BigCkksTest, MaxRescaleReturnsPowersOfTwo) {
  auto C = encryptValues(randomValues(12));
  EXPECT_EQ(Backend->maxRescale(C, 1), 1u);
  EXPECT_EQ(Backend->maxRescale(C, 2), 2u);
  EXPECT_EQ(Backend->maxRescale(C, 3), 2u);
  EXPECT_EQ(Backend->maxRescale(C, 1 << 20), uint64_t(1) << 20);
  EXPECT_EQ(Backend->maxRescale(C, (1 << 20) + 12345), uint64_t(1) << 20);
  // Bounded by the remaining modulus: bring the ciphertext down to a
  // 40-bit modulus, then ask for a huge divisor.
  while (Backend->logQOf(C) > 50) {
    Backend->mulScalarAssign(C, 1.0, uint64_t(1) << 30);
    Backend->rescaleAssign(C, uint64_t(1) << 30);
  }
  int LogQ = Backend->logQOf(C);
  ASSERT_LT(LogQ, 63);
  uint64_t Huge = uint64_t(1) << 62;
  EXPECT_LE(Backend->maxRescale(C, Huge), uint64_t(1) << (LogQ - 2));
}

TEST_F(BigCkksTest, ModulusAlignmentOnAdd) {
  auto A = randomValues(13, -2, 2), B = randomValues(14, -2, 2);
  auto CA = encryptValues(A), CB = encryptValues(B);
  Backend->rescaleAssign(CA, 1); // no-op
  // Drop CA's modulus via a scalar multiply and exact rescale.
  Backend->mulScalarAssign(CA, 1.0, uint64_t(1) << 20);
  Backend->rescaleAssign(CA, uint64_t(1) << 20);
  EXPECT_LT(Backend->logQOf(CA), Backend->logQOf(CB));
  auto Sum = add(*Backend, CA, CB);
  EXPECT_EQ(Backend->logQOf(Sum), Backend->logQOf(CA));
  auto Back = decryptValues(Sum);
  for (size_t I = 0; I < A.size(); ++I)
    ASSERT_NEAR(Back[I], A[I] + B[I], 1e-3);
}

TEST_F(BigCkksTest, SecurityCheckRejectsOversizedModulus) {
  BigCkksParams P;
  P.LogN = 11;
  P.LogQ = 150;
  P.Security = SecurityLevel::Classical128;
  EXPECT_THROW(BigCkksBackend{P}, SecurityBudgetError);
}

TEST_F(BigCkksTest, DeterministicUnderSeed) {
  BigCkksParams P;
  P.LogN = 10;
  P.LogQ = 60;
  P.LogSpecial = 60;
  P.Security = SecurityLevel::None;
  P.Seed = 99;
  BigCkksBackend B1(P), B2(P);
  std::vector<double> V(B1.slotCount(), 1.25);
  auto C1 = B1.encrypt(B1.encode(V, 1 << 20));
  auto C2 = B2.encrypt(B2.encode(V, 1 << 20));
  for (size_t K = 0; K < 4; ++K)
    EXPECT_EQ(C1.C0[K].compare(C2.C0[K]), 0);
}

/// Trimmed keys rotate byte-identically to full keys at or below their
/// LogQ, on every rotation path (a hoisted batch mixing key widths
/// included), and throw a typed error above it.
TEST(BigCkksTrimmedKeys, MatchTheFullKeyAtOrBelowTheirLevelAndThrowAbove) {
  BigCkksParams P;
  P.LogN = 11;
  P.LogQ = 150;
  P.Security = SecurityLevel::None;
  P.StockPow2Keys = false;
  BigCkksBackend Full(P), Trim(P);
  Full.generateRotationKeys({1, 2, 5});
  Trim.generateRotationKey(1, 100);
  Trim.generateRotationKey(2, 100);
  Trim.generateRotationKey(5, 130);
  Trim.generateRotationKey(5, 120); // a lower request keeps the key
  EXPECT_LT(Trim.keyBytes(), Full.keyBytes());

  std::vector<double> V(Full.slotCount());
  Prng Rng(29);
  for (double &X : V)
    X = Rng.nextDouble(-1, 1);
  auto A = Full.encrypt(Full.encode(V, kScale));
  auto AT = Trim.encrypt(Trim.encode(V, kScale));
  ASSERT_TRUE(serialize(A) == serialize(AT)); // keygen left the same stream

  auto ExpectThrow = [&](auto &&Rotate, const std::string &Step, int Key,
                         int LogQ) {
    try {
      Rotate();
      ADD_FAILURE() << "no error for rotation by " << Step;
    } catch (const MissingRotationKeyError &E) {
      std::string M = E.what();
      EXPECT_NE(M.find("rotation by " + Step), std::string::npos) << M;
      EXPECT_NE(M.find("LogQ " + std::to_string(Key)), std::string::npos)
          << M;
      EXPECT_NE(M.find("LogQ " + std::to_string(LogQ)), std::string::npos)
          << M;
    }
  };
  auto Rescale = [&](int Bits) {
    Full.rescaleAssign(A, uint64_t(1) << Bits);
    Trim.rescaleAssign(AT, uint64_t(1) << Bits);
  };
  auto ExpectSame = [&](int Steps) {
    auto R = Full.copy(A), RT = Trim.copy(AT);
    Full.rotLeftAssign(R, Steps);
    Trim.rotLeftAssign(RT, Steps);
    EXPECT_TRUE(serialize(R) == serialize(RT)) << "rotation by " << Steps;
  };

  // Fresh (LogQ 150): every key is too short. 3 runs as the hops 1 + 2.
  auto R = Trim.copy(AT);
  ExpectThrow([&] { Trim.rotLeftAssign(R, 5); }, "5", 130, 150);
  ExpectThrow([&] { Trim.rotLeftAssign(R, 3); }, "1", 100, 150);
  ExpectThrow([&] { Trim.rotLeftMany(AT, {0, 5}); }, "5", 130, 150);

  Rescale(20); // LogQ 130
  ExpectSame(5);
  ExpectThrow([&] { Trim.rotLeftMany(AT, {5, 1}); }, "1", 100, 130);

  Rescale(30); // LogQ 100
  ExpectSame(3);
  ExpectSame(5);
  std::vector<int> Steps = {1, 0, 5, 3, 2};
  auto Many = Full.rotLeftMany(A, Steps);
  auto ManyT = Trim.rotLeftMany(AT, Steps);
  for (size_t I = 0; I < Steps.size(); ++I)
    EXPECT_TRUE(serialize(Many[I]) == serialize(ManyT[I]))
        << "hoisted amount " << Steps[I];
}

/// FNV-1a hash of every intermediate ciphertext of one pipeline at logN
/// 11: keygen with a top-level Galois key (3) and one trimmed to LogQ 120
/// (5), then encrypt -> mul+relin -> rotate -> rescale by 2^30 while the
/// modulus allows, the trimmed key's rotation and a hoisted batch joining
/// once LogQ is at most 120.
uint64_t bigPipelineHash() {
  BigCkksParams P;
  P.LogN = 11;
  P.LogQ = 150;
  P.Security = SecurityLevel::None;
  P.Seed = 2026;
  P.StockPow2Keys = false;
  BigCkksBackend B(P);
  B.generateRotationKeys({3});
  B.generateRotationKey(5, 120);
  uint64_t H = 1469598103934665603ULL;
  auto Mix = [&](const BigCkksBackend::Ct &C) {
    for (uint8_t Byte : serialize(C)) {
      H ^= Byte;
      H *= 1099511628211ULL;
    }
  };
  Prng Rng(17);
  std::vector<double> V1(B.slotCount()), V2(B.slotCount());
  for (auto &X : V1)
    X = Rng.nextDouble(-1, 1);
  for (auto &X : V2)
    X = Rng.nextDouble(-1, 1);
  auto A = B.encrypt(B.encode(V1, kScale));
  auto C = B.encrypt(B.encode(V2, kScale));
  Mix(A);
  Mix(C);
  while (B.logQOf(A) >= 90) {
    B.mulAssign(A, C);
    Mix(A);
    B.rotLeftAssign(A, 3);
    Mix(A);
    if (B.logQOf(A) <= 120) {
      B.rotLeftAssign(A, 5);
      Mix(A);
      for (auto &R : B.rotLeftMany(A, {3, 0, 5}))
        Mix(R);
    }
    B.rescaleAssign(A, uint64_t(1) << 30);
    Mix(A);
  }
  return H;
}

TEST(BigCkksPipeline, ReproducesTheRecordedBytes) {
  // Recorded with the uniform halves drawn on one lane, word by word.
  constexpr uint64_t kRecorded = 0x2e649ec7a6649927ULL;
  unsigned Threads = globalThreadCount();
  bool PoolWasEnabled = LimbPool::instance().enabled();
  for (unsigned Lanes : {1u, 2u, 8u}) {
    setGlobalThreadCount(Lanes);
    EXPECT_EQ(bigPipelineHash(), kRecorded) << Lanes << " threads";
  }
  setGlobalThreadCount(Threads);
  LimbPool::instance().setEnabled(false);
  EXPECT_EQ(bigPipelineHash(), kRecorded) << "CHET_LIMB_POOL=off";
  LimbPool::instance().setEnabled(PoolWasEnabled);
}

} // namespace
