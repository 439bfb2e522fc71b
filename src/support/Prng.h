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
    uint64_t T = State[1] << 17;
    State[2] ^= State[0];
    State[3] ^= State[1];
    State[1] ^= State[2];
    State[0] ^= State[3];
    State[2] ^= T;
    State[3] = rotl(State[3], 45);
    return Result;
  }

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

  uint64_t State[4];
};

} // namespace chet

#endif // CHET_SUPPORT_PRNG_H
