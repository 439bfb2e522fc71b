//===- Prng.cpp - Deterministic pseudo-random number generation ----------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Prng.h"

#include <cassert>
#include <cmath>

using namespace chet;

static uint64_t splitmix64(uint64_t &X) {
  X += 0x9e3779b97f4a7c15ULL;
  uint64_t Z = X;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

void Prng::reseed(uint64_t Seed) {
  uint64_t S = Seed;
  for (uint64_t &Word : State)
    Word = splitmix64(S);
}

uint64_t Prng::nextBounded(uint64_t Bound) {
  assert(Bound != 0 && "bound must be positive");
  // Rejection sampling: discard values in the biased tail.
  uint64_t Threshold = -Bound % Bound;
  for (;;) {
    uint64_t R = next();
    if (R >= Threshold)
      return R % Bound;
  }
}

double Prng::nextDouble() {
  // 53 high-quality bits into the mantissa.
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Prng::nextDouble(double Lo, double Hi) {
  return Lo + (Hi - Lo) * nextDouble();
}

int Prng::nextTernary() {
  uint64_t Bits = next();
  // Two bits: 00 -> -1, 01 -> 0, 10 -> 0, 11 -> +1.
  int Low = static_cast<int>(Bits & 1);
  int High = static_cast<int>((Bits >> 1) & 1);
  return Low + High - 1;
}

int64_t Prng::nextCenteredGaussian(double Sigma) {
  // A centered binomial B(2k, 1/2) - k has variance k/2; pick k so the
  // variance matches Sigma^2. For sigma = 3.2 this gives k = 21 (variance
  // 10.5 vs 10.24), comfortably within the RLWE security analysis slack.
  int K = static_cast<int>(std::ceil(2.0 * Sigma * Sigma));
  int64_t Sum = 0;
  int Remaining = 2 * K;
  while (Remaining > 0) {
    int Chunk = Remaining < 64 ? Remaining : 64;
    uint64_t Bits = next();
    if (Chunk < 64)
      Bits &= (1ULL << Chunk) - 1;
    Sum += __builtin_popcountll(Bits);
    Remaining -= Chunk;
  }
  return Sum - K;
}

double Prng::nextNormal() {
  // Box-Muller; fine for synthetic weights.
  double U1 = nextDouble();
  double U2 = nextDouble();
  if (U1 < 1e-300)
    U1 = 1e-300;
  return std::sqrt(-2.0 * std::log(U1)) * std::cos(6.283185307179586 * U2);
}
