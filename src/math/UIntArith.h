//===- UIntArith.h - 64-bit modular arithmetic primitives ------*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Word-level modular arithmetic over primes of up to 61 bits: Barrett
/// reduction, Shoup multiplication, modular exponentiation and inversion,
/// Miller-Rabin primality testing, and primitive-root search. These are the
/// building blocks of the NTT and of both CKKS backends.
///
//===----------------------------------------------------------------------===//

#ifndef CHET_MATH_UINTARITH_H
#define CHET_MATH_UINTARITH_H

#include <cassert>
#include <cstdint>

namespace chet {

/// Returns the high 64 bits of the 128-bit product A * B.
inline uint64_t mulHigh64(uint64_t A, uint64_t B) {
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(A) * B) >> 64);
}

/// A prime modulus together with its precomputed Barrett constant.
///
/// Supports moduli up to 61 bits so that lazy sums of up to four products
/// stay inside 128 bits. All arithmetic helpers expect fully reduced
/// operands unless documented otherwise.
class Modulus {
public:
  Modulus() = default;

  /// Precomputes floor(2^128 / Q) (two words) for Barrett reduction.
  explicit Modulus(uint64_t Q);

  uint64_t value() const { return Value; }
  int bitCount() const { return BitCount; }

  /// Reduces an arbitrary 64-bit value modulo Q.
  uint64_t reduce(uint64_t X) const {
    // Single-word Barrett: Approx = floor(X * floor(2^64/Q) / 2^64) is off
    // by at most one quotient step.
    uint64_t Approx = mulHigh64(X, Ratio64);
    uint64_t R = X - Approx * Value;
    return R >= Value ? R - Value : R;
  }

  /// Reduces a 128-bit value modulo Q (full two-word Barrett reduction).
  /// Inline and branch-free: it sits inside every mulMod and every lazy
  /// key-switch fold.
  uint64_t reduce128(unsigned __int128 X) const {
    // Barrett reduction with a two-word ratio, following the layout used
    // in SEAL: Q_est = floor(X * Ratio / 2^128), remainder fixed with
    // conditional subtractions.
    uint64_t XLo = static_cast<uint64_t>(X);
    uint64_t XHi = static_cast<uint64_t>(X >> 64);

    // Multiply the 128-bit X by the 128-bit ratio, keep bits [128,192).
    unsigned __int128 Prod0 = static_cast<unsigned __int128>(XLo) * Ratio128Lo;
    unsigned __int128 Prod1 = static_cast<unsigned __int128>(XLo) * Ratio128Hi;
    unsigned __int128 Prod2 = static_cast<unsigned __int128>(XHi) * Ratio128Lo;
    uint64_t Prod3 = XHi * Ratio128Hi;

    unsigned __int128 Mid =
        Prod1 + Prod2 + static_cast<uint64_t>(Prod0 >> 64);
    uint64_t QEst = Prod3 + static_cast<uint64_t>(Mid >> 64);

    uint64_t R = XLo - QEst * Value;
    // The estimate can be low by at most 2.
    R = R >= Value ? R - Value : R;
    return R >= Value ? R - Value : R;
  }

  /// Returns (A * B) mod Q for fully reduced A and B.
  uint64_t mulMod(uint64_t A, uint64_t B) const {
    return reduce128(static_cast<unsigned __int128>(A) * B);
  }

  /// Returns (A + B) mod Q for fully reduced A and B.
  uint64_t addMod(uint64_t A, uint64_t B) const {
    uint64_t S = A + B;
    return S >= Value ? S - Value : S;
  }

  /// Returns (A - B) mod Q for fully reduced A and B.
  uint64_t subMod(uint64_t A, uint64_t B) const {
    return A >= B ? A - B : A + Value - B;
  }

  /// Returns (-A) mod Q for fully reduced A.
  uint64_t negMod(uint64_t A) const { return A == 0 ? 0 : Value - A; }

  bool operator==(const Modulus &Other) const { return Value == Other.Value; }

private:
  uint64_t Value = 0;
  uint64_t Ratio64 = 0;  ///< floor(2^64 / Q).
  uint64_t Ratio128Hi = 0; ///< High word of floor(2^128 / Q).
  uint64_t Ratio128Lo = 0; ///< Low word of floor(2^128 / Q).
  int BitCount = 0;
};

/// Precomputed Shoup constant for repeated multiplication by a fixed
/// operand W modulo Q: floor(W * 2^64 / Q).
inline uint64_t shoupPrecompute(uint64_t W, uint64_t Q) {
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(W) << 64) / Q);
}

/// Returns (X * W) mod Q using the Shoup constant \p WShoup for W.
/// Result is in [0, Q); X must be in [0, Q) and W in [0, Q).
inline uint64_t shoupMulMod(uint64_t X, uint64_t W, uint64_t WShoup,
                            uint64_t Q) {
  uint64_t Approx = mulHigh64(X, WShoup);
  uint64_t R = X * W - Approx * Q;
  return R >= Q ? R - Q : R;
}

/// Lazy Shoup multiplication: result is in [0, 2Q).
inline uint64_t shoupMulModLazy(uint64_t X, uint64_t W, uint64_t WShoup,
                                uint64_t Q) {
  uint64_t Approx = mulHigh64(X, WShoup);
  return X * W - Approx * Q;
}

//===--------------------------------------------------------------------===//
// Narrow-word (<= 32-bit) primitives
//===--------------------------------------------------------------------===//
//
// The vectorized NTT path keeps lazily reduced values below 4q across
// butterfly stages, so a modulus below 2^30 bounds every intermediate by
// 2^32: one RNS limb fits a 32-bit word, doubling the limbs per cache
// line, and the Shoup butterfly needs only 32x32->64 products -- the
// shape auto-vectorizers turn into vpmuludq -- instead of the 64x64->128
// ladder the wide path pays.

/// Largest modulus width eligible for the narrow-word kernels.
inline constexpr int kNarrowPrimeBits = 30;
inline constexpr uint64_t kNarrowPrimeBound = uint64_t(1) << kNarrowPrimeBits;

/// True when \p Q fits the narrow-word lazy domain (4q < 2^32).
inline bool isNarrowModulus(uint64_t Q) { return Q < kNarrowPrimeBound; }

/// Narrow Shoup constant floor(W * 2^32 / Q); fits 32 bits for W < Q.
inline uint32_t shoupPrecompute32(uint32_t W, uint32_t Q) {
  return static_cast<uint32_t>((static_cast<uint64_t>(W) << 32) / Q);
}

/// Narrow lazy Shoup multiplication: congruent to X*W mod Q, in [0, 2Q),
/// for ANY 32-bit X: with WShoup = floor(W*2^32/Q) the quotient estimate
/// floor(X*WShoup/2^32) undershoots the true quotient by less than
/// 1 + X/2^32 < 2 steps, so the remainder stays below 2Q.
inline uint32_t shoupMulModLazy32(uint32_t X, uint32_t W, uint32_t WShoup,
                                  uint32_t Q) {
  uint32_t Approx =
      static_cast<uint32_t>((static_cast<uint64_t>(X) * WShoup) >> 32);
  return X * W - Approx * Q;
}

/// Fully reduced narrow Shoup multiplication; X may be any 32-bit value.
inline uint32_t shoupMulMod32(uint32_t X, uint32_t W, uint32_t WShoup,
                              uint32_t Q) {
  uint32_t R = shoupMulModLazy32(X, W, WShoup, Q);
  return R >= Q ? R - Q : R;
}

/// Returns Base^Exp mod Q by square-and-multiply.
uint64_t powMod(uint64_t Base, uint64_t Exp, const Modulus &Q);

/// Returns the modular inverse of A mod Q. \p A must be nonzero and
/// coprime to Q (always true for prime Q).
uint64_t invMod(uint64_t A, const Modulus &Q);

/// Deterministic Miller-Rabin primality test, exact for all 64-bit inputs.
bool isPrime(uint64_t N);

/// Finds a generator of the cyclic group of order \p GroupOrder inside
/// Z_Q^* (Q prime, GroupOrder | Q-1). Returns 0 if none exists.
uint64_t findPrimitiveRoot(uint64_t GroupOrder, const Modulus &Q,
                           uint64_t Seed = 1);

} // namespace chet

#endif // CHET_MATH_UINTARITH_H
