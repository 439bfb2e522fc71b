//===- Prng.h - Deterministic pseudo-random number generation --*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, fast, seedable PRNG (xoshiro256**) used throughout the library
/// for key generation, noise sampling, synthetic weights, and tests.
///
/// Cryptographic note: a production FHE library would draw key and noise
/// randomness from a CSPRNG. This reproduction deliberately uses a seedable
/// generator so that every experiment and test is exactly repeatable; the
/// sampling *distributions* (uniform ternary secrets, centered binomial /
/// discrete Gaussian noise) match what SEAL and HEAAN use.
///
//===----------------------------------------------------------------------===//

#ifndef CHET_SUPPORT_PRNG_H
#define CHET_SUPPORT_PRNG_H

#include <cstdint>

namespace chet {

struct PrngStepMap;

/// xoshiro256** by Blackman & Vigna: 256 bits of state, period 2^256 - 1,
/// passes BigCrush. Deterministic given a seed.
class Prng {
public:
  explicit Prng(uint64_t Seed = 0x5eedc4e7u) { reseed(Seed); }

  /// Re-initializes the state from \p Seed using splitmix64 so that nearby
  /// seeds yield unrelated streams.
  void reseed(uint64_t Seed);

  /// Returns the next 64 uniformly random bits. Inline: key switching
  /// regenerates the uniform key halves from saved states, one call per
  /// key word.
  uint64_t next() {
    uint64_t Result = rotl(State[1] * 5, 7) * 9;
    step(State);
    return Result;
  }

  /// Advances the state exactly as \p N calls of next() would. The state
  /// update is linear over GF(2), so N steps are a product of precomputed
  /// 256x256 step maps, one per set bit of N at or above 2^10 (built once
  /// per process on first use); the low bits are stepped. This lets
  /// callers compute where a later part of the stream starts without
  /// walking up to it.
  void discard(uint64_t N);

  friend bool operator==(const Prng &, const Prng &) = default;

  /// Returns a uniform value in [0, Bound). \p Bound must be nonzero.
  /// Uses rejection sampling, so the result is exactly uniform.
  uint64_t nextBounded(uint64_t Bound);

  /// Returns a uniform double in [0, 1).
  double nextDouble();

  /// Returns a uniform double in [Lo, Hi).
  double nextDouble(double Lo, double Hi);

  /// Returns a sample from {-1, 0, 1} with P(-1)=P(1)=1/4, P(0)=1/2
  /// (the ternary secret-key distribution used by SEAL and HEAAN).
  int nextTernary();

  /// Returns an approximately Gaussian integer with standard deviation
  /// \p Sigma, sampled via a centered binomial of matching variance
  /// (the standard RLWE error distribution; sigma ~ 3.2 by default).
  int64_t nextCenteredGaussian(double Sigma = 3.2);

  /// Returns a standard-normal double (Box-Muller); used for synthetic
  /// weight generation, not for cryptographic noise.
  double nextNormal();

private:
  static uint64_t rotl(uint64_t X, int K) {
    return (X << K) | (X >> (64 - K));
  }

  /// One state update of xoshiro256 (the linear engine behind next()).
  static void step(uint64_t (&S)[4]) {
    uint64_t T = S[1] << 17;
    S[2] ^= S[0];
    S[3] ^= S[1];
    S[1] ^= S[2];
    S[0] ^= S[3];
    S[2] ^= T;
    S[3] = rotl(S[3], 45);
  }

  /// The map advancing the state 2^K steps, K >= 10 (see discard).
  static const PrngStepMap &powerMap(int K);

  uint64_t State[4];
};

} // namespace chet

#endif // CHET_SUPPORT_PRNG_H
