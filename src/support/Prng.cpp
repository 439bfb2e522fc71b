//===- Prng.cpp - Deterministic pseudo-random number generation ----------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Prng.h"

#include <array>
#include <cassert>
#include <cmath>
#include <cstring>
#include <mutex>

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

/// A GF(2)-linear map on the 256-bit state: Col[I] is the image of the
/// state whose only set bit is bit I % 64 of word I / 64.
struct chet::PrngStepMap {
  uint64_t Col[256][4];

  void apply(uint64_t (&S)[4]) const {
    uint64_t Out[4] = {};
    for (int I = 0; I < 256; ++I) {
      const uint64_t Mask = -((S[I >> 6] >> (I & 63)) & 1);
      for (int W = 0; W < 4; ++W)
        Out[W] ^= Col[I][W] & Mask;
    }
    std::memcpy(S, Out, sizeof(Out));
  }
};

/// Below 2^kSteppedBits steps, stepping costs less than applying a map.
static constexpr int kSteppedBits = 10;

const PrngStepMap &Prng::powerMap(int K) {
  static std::array<PrngStepMap, 64> Maps;
  static std::array<std::once_flag, 64> Built;
  // The smallest map steps each basis state; every larger one squares
  // its predecessor.
  std::call_once(Built[K], [K] {
    for (int I = 0; I < 256; ++I) {
      uint64_t S[4] = {};
      if (K == kSteppedBits) {
        S[I >> 6] = uint64_t(1) << (I & 63);
        for (uint64_t Step = 0; Step < (uint64_t(1) << K); ++Step)
          step(S);
      } else {
        const PrngStepMap &Half = powerMap(K - 1);
        std::memcpy(S, Half.Col[I], sizeof(S));
        Half.apply(S);
      }
      std::memcpy(Maps[K].Col[I], S, sizeof(S));
    }
  });
  return Maps[K];
}

void Prng::discard(uint64_t N) {
  for (uint64_t R = N & ((uint64_t(1) << kSteppedBits) - 1); R != 0; --R)
    step(State);
  for (int K = kSteppedBits; K < 64; ++K)
    if ((N >> K) & 1)
      powerMap(K).apply(State);
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
