//===- LevelScale.h - Level/scale rules of the abstract HISAs -*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The level/scale bookkeeping every abstract interpretation of the HISA
/// shares (Section 5.2): how a ciphertext's scale and consumed modulus
/// evolve under rescaling and binary operations, and how a rotation is
/// normalized and decomposed when no dedicated Galois key serves it. The
/// compiler's AnalysisBackend (core/Analysis.h) and the post-compile
/// AuditBackend (hisa/AuditBackend.h) both build on this core, so the
/// modulus chain the compiler sizes is exactly the one the audit walks,
/// and the hop count the cost model prices is the one the noise model
/// charges.
///
//===----------------------------------------------------------------------===//

#ifndef CHET_HISA_LEVELSCALE_H
#define CHET_HISA_LEVELSCALE_H

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace chet {

/// Relative tolerance under which two scales count as equal (addition
/// operands, plaintext-role classification).
inline constexpr double kScaleTolerance = 1e-6;

inline bool scalesMatch(double A, double B) {
  double Ratio = A / B;
  return Ratio > 1.0 - kScaleTolerance && Ratio < 1.0 + kScaleTolerance;
}

/// Normalizes a left-rotation amount into [0, Slots).
inline int normalizeRotation(int64_t Steps, size_t Slots) {
  int64_t S = Steps % static_cast<int64_t>(Slots);
  return static_cast<int>(S < 0 ? S + static_cast<int64_t>(Slots) : S);
}

/// The power-of-two decomposition the CKKS backends' rotLeftAssign runs
/// when no dedicated key serves the normalized step \p S (Section 2.4):
/// one hop per set bit of the shorter direction. Calls \p Visit with
/// every hop, normalized to [0, Slots), and returns the hop count.
template <typename Fn>
int forEachRotationHop(int S, size_t Slots, Fn &&Visit) {
  int64_t N = static_cast<int64_t>(Slots);
  int64_t Short = S <= N / 2 ? S : S - N;
  uint64_t Mag = static_cast<uint64_t>(Short >= 0 ? Short : -Short);
  int Hops = 0;
  for (int Bit = 0; Mag != 0; ++Bit, Mag >>= 1) {
    if (!(Mag & 1))
      continue;
    int64_t Hop = int64_t(1) << Bit;
    Visit(static_cast<int>(Short >= 0 ? Hop : N - Hop));
    ++Hops;
  }
  return Hops;
}

inline int rotationHopCount(int S, size_t Slots) {
  return forEachRotationHop(S, Slots, [](int) {});
}

/// The level/scale state of one abstract ciphertext.
struct LevelScale {
  double Scale = 1.0;
  int ConsumedPrimes = 0;   ///< RNS: index into the candidate list.
  double LogConsumed = 0.0; ///< CKKS: log2 of the divisor product.
};

/// Rescale semantics of one scheme instance: RNS-CKKS consumes the
/// candidate scaling primes in list order; big-modulus CKKS divides by
/// powers of two against a log2 budget.
class LevelScaleCore {
public:
  LevelScaleCore(bool Rns, int LogN, std::vector<uint64_t> Candidates)
      : Rns(Rns), Slots(size_t(1) << (LogN - 1)),
        Candidates(std::move(Candidates)) {}

  bool rns() const { return Rns; }
  size_t slotCount() const { return Slots; }
  const std::vector<uint64_t> &candidates() const { return Candidates; }

  /// RNS: every candidate prime has been consumed.
  bool exhausted(const LevelScale &C) const {
    return C.ConsumedPrimes >= static_cast<int>(Candidates.size());
  }

  /// Largest divisor <= \p UpperBound: a power of two for CKKS, the
  /// product of the next unconsumed candidates for RNS.
  uint64_t maxRescale(const LevelScale &C, uint64_t UpperBound) const {
    if (!Rns) {
      if (UpperBound < 2)
        return 1;
      return uint64_t(1) << (63 - __builtin_clzll(UpperBound));
    }
    uint64_t Divisor = 1;
    for (size_t I = static_cast<size_t>(C.ConsumedPrimes);
         I < Candidates.size() && Divisor <= UpperBound / Candidates[I]; ++I)
      Divisor *= Candidates[I];
    return Divisor;
  }

  /// CKKS: sheds a power-of-two \p Divisor; returns its bit count.
  double shedBits(LevelScale &C, uint64_t Divisor) const {
    double Bits = std::log2(static_cast<double>(Divisor));
    C.LogConsumed += Bits;
    C.Scale /= static_cast<double>(Divisor);
    return Bits;
  }

  /// RNS: sheds the next candidate prime out of \p Divisor. Returns false
  /// (shedding nothing) once the list is exhausted or the divisor did not
  /// come from maxRescale.
  bool shedPrime(LevelScale &C, uint64_t &Divisor) const {
    if (exhausted(C))
      return false;
    uint64_t Q = Candidates[static_cast<size_t>(C.ConsumedPrimes)];
    if (Divisor % Q != 0)
      return false;
    Divisor /= Q;
    C.Scale /= static_cast<double>(Q);
    ++C.ConsumedPrimes;
    return true;
  }

  /// Level alignment of binary operations: the deeper history dominates.
  static void align(LevelScale &C, const LevelScale &Other) {
    if (Other.ConsumedPrimes > C.ConsumedPrimes)
      C.ConsumedPrimes = Other.ConsumedPrimes;
    if (Other.LogConsumed > C.LogConsumed)
      C.LogConsumed = Other.LogConsumed;
  }

private:
  bool Rns;
  size_t Slots;
  std::vector<uint64_t> Candidates;
};

} // namespace chet

#endif // CHET_HISA_LEVELSCALE_H
