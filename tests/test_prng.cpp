//===- test_prng.cpp - Unit tests for the PRNG ----------------------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Prng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <thread>
#include <utility>
#include <vector>

using namespace chet;

TEST(Prng, DeterministicForSameSeed) {
  Prng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Prng, DifferentSeedsDiffer) {
  Prng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 2);
}

TEST(Prng, BoundedStaysInRange) {
  Prng Rng(7);
  for (uint64_t Bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000003ULL, 1ULL << 62}) {
    for (int I = 0; I < 200; ++I)
      EXPECT_LT(Rng.nextBounded(Bound), Bound);
  }
}

TEST(Prng, BoundedIsRoughlyUniform) {
  Prng Rng(11);
  const uint64_t Bound = 10;
  int Counts[10] = {};
  const int Samples = 100000;
  for (int I = 0; I < Samples; ++I)
    ++Counts[Rng.nextBounded(Bound)];
  for (int Count : Counts) {
    EXPECT_GT(Count, Samples / 10 - 1000);
    EXPECT_LT(Count, Samples / 10 + 1000);
  }
}

TEST(Prng, DoubleInUnitInterval) {
  Prng Rng(13);
  double Sum = 0;
  for (int I = 0; I < 10000; ++I) {
    double X = Rng.nextDouble();
    ASSERT_GE(X, 0.0);
    ASSERT_LT(X, 1.0);
    Sum += X;
  }
  EXPECT_NEAR(Sum / 10000.0, 0.5, 0.02);
}

TEST(Prng, TernaryDistribution) {
  Prng Rng(17);
  int Counts[3] = {};
  const int Samples = 100000;
  for (int I = 0; I < Samples; ++I)
    ++Counts[Rng.nextTernary() + 1];
  // P(-1) = P(+1) = 1/4, P(0) = 1/2.
  EXPECT_NEAR(Counts[0] / double(Samples), 0.25, 0.01);
  EXPECT_NEAR(Counts[1] / double(Samples), 0.50, 0.01);
  EXPECT_NEAR(Counts[2] / double(Samples), 0.25, 0.01);
}

TEST(Prng, GaussianMomentsMatch) {
  Prng Rng(19);
  const double Sigma = 3.2;
  const int Samples = 200000;
  double Sum = 0, SumSq = 0;
  for (int I = 0; I < Samples; ++I) {
    double X = static_cast<double>(Rng.nextCenteredGaussian(Sigma));
    Sum += X;
    SumSq += X * X;
  }
  double Mean = Sum / Samples;
  double Var = SumSq / Samples - Mean * Mean;
  EXPECT_NEAR(Mean, 0.0, 0.05);
  // Centered binomial variance k/2 with k = ceil(2 sigma^2): 10.5 vs 10.24.
  EXPECT_NEAR(Var, 10.5, 0.3);
}

TEST(Prng, NormalMomentsMatch) {
  Prng Rng(23);
  const int Samples = 200000;
  double Sum = 0, SumSq = 0;
  for (int I = 0; I < Samples; ++I) {
    double X = Rng.nextNormal();
    Sum += X;
    SumSq += X * X;
  }
  EXPECT_NEAR(Sum / Samples, 0.0, 0.02);
  EXPECT_NEAR(SumSq / Samples, 1.0, 0.03);
}

TEST(Prng, ReseedResetsStream) {
  Prng Rng(5);
  std::vector<uint64_t> First;
  for (int I = 0; I < 16; ++I)
    First.push_back(Rng.next());
  Rng.reseed(5);
  for (int I = 0; I < 16; ++I)
    EXPECT_EQ(Rng.next(), First[I]);
}

// First among the discard tests, so its threads race to build the maps.
TEST(Prng, DiscardIsSafeFromConcurrentThreads) {
  const uint64_t N = ~0ULL; // every map
  std::vector<Prng> Out(4, Prng(37));
  std::vector<std::thread> Threads;
  for (Prng &P : Out)
    Threads.emplace_back([&P, N] { P.discard(N); });
  for (std::thread &T : Threads)
    T.join();
  Prng Split(37);
  Split.discard(N >> 1);
  Split.discard(N - (N >> 1));
  for (const Prng &P : Out)
    EXPECT_TRUE(P == Split);
}

TEST(Prng, DiscardMatchesStepping) {
  for (uint64_t N : {0ULL, 1ULL, 63ULL, 64ULL, 12345ULL, 1ULL << 15,
                     25ULL * 4096 + 7}) {
    Prng Stepped(29), Jumped(29);
    for (uint64_t I = 0; I < N; ++I)
      Stepped.next();
    Jumped.discard(N);
    EXPECT_TRUE(Jumped == Stepped) << "n = " << N;
    EXPECT_EQ(Jumped.next(), Stepped.next()) << "n = " << N;
  }
}

TEST(Prng, DiscardsCompose) {
  const uint64_t Huge = (1ULL << 40) + 3;
  for (auto [A, B] : {std::pair<uint64_t, uint64_t>{0, 5000},
                      {1023, 1}, {4096, 12345}, {Huge, 1ULL << 62}}) {
    Prng Twice(31), Once(31);
    Twice.discard(A);
    Twice.discard(B);
    Once.discard(A + B);
    EXPECT_TRUE(Twice == Once) << A << " + " << B;
  }
}
