//===- CostModel.h - HISA-primitive cost models ----------------*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-scheme cost models for HISA primitives, following Section 5.3:
/// asymptotic complexity (Table 1) with constants tuned by
/// microbenchmarking the two backends. Costs use only local information
/// (the instruction's arguments and the ciphertext's current modulus),
/// independent of the rest of the circuit. Units are arbitrary
/// ("estimated cost"); Figure 6 only requires them to correlate with
/// wall-clock latency.
///
//===----------------------------------------------------------------------===//

#ifndef CHET_CORE_COSTMODEL_H
#define CHET_CORE_COSTMODEL_H

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace chet {

/// Which FHE scheme a compilation targets.
enum class SchemeKind {
  RnsCkks, ///< SEAL-style RNS-CKKS.
  BigCkks, ///< HEAAN-style CKKS with a power-of-two modulus.
};

inline const char *schemeName(SchemeKind K) {
  return K == SchemeKind::RnsCkks ? "RNS-CKKS(SEAL-like)"
                                  : "CKKS(HEAAN-like)";
}

/// Cost model for one scheme at one ring dimension. The RNS functions
/// take the number of active RNS components r; the big-CKKS functions
/// take the current modulus width logQ (and the key modulus width logQP
/// where key switching is involved).
class CostModel {
public:
  /// Returns the model for \p Scheme at ring dimension 2^\p LogN, with
  /// constants measured once on the development machine. logQP is the
  /// key-switching modulus width used by big-CKKS key switches.
  static CostModel create(SchemeKind Scheme, int LogN, double LogQP = 0);

  double add(double ModulusState) const;
  double mulScalar(double ModulusState) const;
  double mulPlain(double ModulusState) const;
  double mulCipher(double ModulusState) const;
  double rotate(double ModulusState) const;
  /// Hoisted rotation fan-out (Halevi-Shoup): one-time cost of the shared
  /// key-switch decomposition, paid once per rotLeftMany batch.
  double rotateHoistShared(double ModulusState) const;
  /// Marginal cost of each amount in a hoisted fan-out: automorphism of
  /// the shared base, key inner product, and the special-modulus divide.
  double rotateHoistPerAmount(double ModulusState) const;
  double rescale(double ModulusState) const;
  double encode() const;

  SchemeKind scheme() const { return Scheme; }

private:
  SchemeKind Scheme = SchemeKind::RnsCkks;
  double N = 0;
  double LogN = 0;
  double LogQP = 0;
};

/// The instructions the analysis interpretation counts (core/Analysis.h),
/// in the units estimateCost prices.
enum class CountedOp {
  Encode,
  Encrypt, ///< Client-side; counted, not priced.
  Add,
  AddPlain,
  AddScalar,
  Mul,
  MulPlain,
  MulScalar,
  Rescale,   ///< At the modulus the rescale starts from.
  Rotate,    ///< A standalone rotation (rotLeftAssign).
  RotateHop, ///< One key switch of a standalone rotation: one per
             ///< rotation with a dedicated key, one per power-of-two
             ///< hop without.
  HoistBatch,  ///< A hoisted rotLeftMany batch with a non-zero amount.
  HoistAmount, ///< One non-zero amount of a hoisted batch.
  NumOps
};

/// Executed-instruction counts by consumed modulus: Rows[L][Op] counts Op
/// on ciphertexts that had consumed L units of modulus -- candidate
/// primes for RNS-CKKS, bits for big-CKKS (sparse: a big-CKKS chain
/// touches a few dozen of its hundreds of bit levels). Instructions
/// without a ciphertext operand (encode, encrypt) count at L = 0.
struct LevelOpCounts {
  using Row = std::array<uint64_t, static_cast<size_t>(CountedOp::NumOps)>;
  std::map<int, Row> Rows;

  void add(int Level, CountedOp Op, uint64_t N = 1) {
    Rows[Level][static_cast<size_t>(Op)] += N;
  }
  uint64_t total(CountedOp Op) const {
    uint64_t Sum = 0;
    for (const auto &[Level, R] : Rows)
      Sum += R[static_cast<size_t>(Op)];
    return Sum;
  }
};

/// Prices \p Counts with \p Model on a chain sized at \p TopModulus:
/// the total chain primes for RNS-CKKS, log Q for big-CKKS. A row L
/// runs at TopModulus - L (at least one prime, or 30 bits). With
/// \p Hoisted false every hoisted amount is priced as a standalone
/// rotation, modelling a runtime with hoisting disabled.
double estimateCost(const LevelOpCounts &Counts, const CostModel &Model,
                    double TopModulus, bool Hoisted = true);

/// Worst-case CKKS noise constants for the static range/noise analysis
/// (hisa/AuditBackend.h, core/NoiseAnalysis.h).
///
/// All quantities are high-probability canonical-embedding bounds on the
/// *slot magnitude* of the freshly introduced noise polynomial; dividing
/// by the ciphertext scale yields the message-space error. The model
/// matches what the two backends actually sample: ternary secrets and
/// encryption randomness, centered-binomial errors of standard deviation
/// \c Sigma (support/Prng.h), and special-prime hybrid key switching.
/// A polynomial with iid coefficients of standard deviation s has slot
/// values of standard deviation s*sqrt(N); products of two independent
/// such polynomials multiply in the embedding. \c Safety is the
/// high-probability tail multiplier applied once per bound (lambda in the
/// EVA noise analysis); the accumulated circuit bound additionally adds
/// terms linearly where real noise cancels in quadrature, so end-to-end
/// bounds are intentionally loose but sound.
struct NoiseModel {
  double N = 8192;           ///< ring dimension 2^LogN
  double Sigma = 3.2;        ///< error stddev (Prng::nextCenteredGaussian)
  double Safety = 10.0;      ///< high-probability tail multiplier
  double KsDigitRatio = 0.0; ///< sum_g |g| Q_g / P over key-switch digits

  /// Builds the model for \p Scheme at ring dimension 2^\p LogN.
  /// \p ChainPrimes and \p SpecialPrimes describe the RNS-CKKS modulus
  /// chain and key-switch digits (alpha = SpecialPrimes.size() chain
  /// primes per digit); big-CKKS passes its modulus width \p LogQ
  /// instead.
  static NoiseModel create(SchemeKind Scheme, int LogN,
                           const std::vector<uint64_t> &ChainPrimes,
                           const std::vector<uint64_t> &SpecialPrimes,
                           double LogQ);

  /// Slot bound on the encode rounding polynomial (coefficients rounded
  /// to the nearest integer, uniform in [-1/2, 1/2]).
  double encodeQuant() const { return Safety * std::sqrt(N / 12.0); }

  /// Slot bound on fresh encryption noise e0 + u*e_pk + e1*s with
  /// ternary u, s and centered-binomial e terms.
  double freshNoise() const {
    return Safety * Sigma * (std::sqrt(N) + std::sqrt(2.0) * N);
  }

  /// Slot bound on the rescale rounding polynomial eps0 + eps1*s.
  double rescaleNoise() const {
    return Safety * std::sqrt(N / 12.0) * (1.0 + std::sqrt(N / 2.0));
  }

  /// Slot bound on key-switch noise: the digit inner product
  /// sum_g d_g*e_g / P plus the rounding of the division by P, which
  /// lifts the special-prime residues centered (RnsCkks ModDown) and so
  /// rounds like a rescale at any alpha. Also the relinearization bound
  /// (same key-switch structure over s^2).
  double keySwitchNoise() const {
    return Safety * Sigma * N / std::sqrt(12.0) * KsDigitRatio +
           rescaleNoise();
  }
};

} // namespace chet

#endif // CHET_CORE_COSTMODEL_H
