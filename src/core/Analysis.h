//===- Analysis.h - Dataflow-analysis HISA backend -------------*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiler's analysis interpretation of the HISA (Section 5.1): a
/// backend whose ciphertext type carries dataflow facts instead of
/// polynomials. Running the ordinary kernels/evaluator over this backend
/// "dynamically unrolls the graph on-the-fly" and composes the per-
/// instruction dataflow equations, with no explicit dataflow graph.
///
/// One backend type serves the three analyses of Sections 5.2-5.4 (the
/// paper describes them as separate HISA-Analysers; we fuse them into one
/// interpretation since they read disjoint state, and expose each
/// analysis's result separately):
///
///   - encryption-parameter selection: each ct tracks the modulus its
///     history consumed -- a log2 product of divisors for CKKS, an index
///     into the global candidate modulus list for RNS-CKKS -- with
///     maxRescale faithfully replicating the real backends' semantics;
///   - cost counting: every executed instruction increments a count
///     keyed by the instruction and by the modulus its ciphertext has
///     consumed (each instruction executes exactly once during
///     re-interpretation, so shared subcircuits are not double-counted);
///     once the chain is sized, estimateCost (core/CostModel.h) prices
///     the counts without re-running anything;
///   - rotation-key selection: the set of distinct (normalized) rotation
///     step counts is collected.
///
//===----------------------------------------------------------------------===//

#ifndef CHET_CORE_ANALYSIS_H
#define CHET_CORE_ANALYSIS_H

#include "core/CostModel.h"
#include "hisa/Hisa.h"
#include "hisa/LevelScale.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace chet {

/// Configuration of one analysis run.
struct AnalysisConfig {
  SchemeKind Scheme = SchemeKind::RnsCkks;
  int LogN = 13;
  /// RNS only: the global pre-generated candidate scaling moduli
  /// (Section 5.2), consumed in order.
  std::vector<uint64_t> ScalePrimeCandidates;
  /// Whether the rotation-key set is assumed generated for exactly the
  /// steps used (true) or only the default power-of-two keys exist
  /// (false), in which case a rotation takes one hop per set bit of the
  /// shorter direction (Section 2.4) and rotLeftMany cannot hoist.
  bool SelectedRotationKeys = true;
};

/// HISA implementation over dataflow metadata. Satisfies the same
/// HisaBackend concept as the real schemes.
class AnalysisBackend {
public:
  using Ct = LevelScale;
  struct Pt {
    double Scale = 1.0;
  };

  explicit AnalysisBackend(const AnalysisConfig &Config);

  //===--------------------------------------------------------------===//
  // HISA instructions.
  //===--------------------------------------------------------------===//

  size_t slotCount() const { return Core.slotCount(); }
  Pt encode(const std::vector<double> &Values, double Scale);
  std::vector<double> decode(const Pt &P) const;
  Ct encrypt(const Pt &P);
  Pt decrypt(const Ct &C) const { return Pt{C.Scale}; }
  Ct copy(const Ct &C) const { return C; }
  void freeCt(Ct &C) const {}

  void rotLeftAssign(Ct &C, int Steps);
  void rotRightAssign(Ct &C, int Steps) { rotLeftAssign(C, -Steps); }
  /// Rotation fan-out: collects every normalized amount into the
  /// rotation-key set exactly once (std::set) and counts the batch as one
  /// hoisted batch plus its non-zero amounts when dedicated keys are
  /// assumed; under power-of-two fallback keys it counts the per-amount
  /// hop loop the real backends run.
  std::vector<Ct> rotLeftMany(const Ct &C, const std::vector<int> &Steps);

  void addAssign(Ct &C, const Ct &Other);
  void subAssign(Ct &C, const Ct &Other) { addAssign(C, Other); }
  void addPlainAssign(Ct &C, const Pt &P);
  void subPlainAssign(Ct &C, const Pt &P) { addPlainAssign(C, P); }
  void addScalarAssign(Ct &C, double X);
  void subScalarAssign(Ct &C, double X) { addScalarAssign(C, X); }

  void mulAssign(Ct &C, const Ct &Other);
  void mulPlainAssign(Ct &C, const Pt &P);
  void mulScalarAssign(Ct &C, double X, uint64_t Scale);

  uint64_t maxRescale(const Ct &C, uint64_t UpperBound) const {
    return Core.maxRescale(C, UpperBound);
  }
  void rescaleAssign(Ct &C, uint64_t Divisor);
  double scaleOf(const Ct &C) const { return C.Scale; }

  //===--------------------------------------------------------------===//
  // Analysis results.
  //===--------------------------------------------------------------===//

  /// RNS: the largest number of candidate primes any ciphertext consumed.
  int maxConsumedPrimes() const { return MaxConsumedPrimes; }
  /// CKKS: the largest log2 modulus any ciphertext consumed.
  double maxLogConsumed() const { return MaxLogConsumed; }
  /// Largest scale any ciphertext reached (headroom check).
  double maxLogScale() const { return MaxLogScale; }
  /// Distinct normalized rotation steps used (Section 5.4).
  const std::set<int> &rotationSteps() const { return RotationSteps; }
  /// Executed-instruction counts by consumed modulus, for estimateCost.
  const LevelOpCounts &counts() const { return Counts; }
  /// Move the counts and the rotation steps out; the backend's results
  /// are spent afterwards.
  LevelOpCounts takeCounts() { return std::move(Counts); }
  std::set<int> takeRotationSteps() { return std::move(RotationSteps); }
  /// Executed-instruction histogram, keyed by instruction name: every
  /// rotation amount (standalone or hoisted) counts under "rotate", the
  /// extra power-of-two hops under "rotateHops", and hoisted batches
  /// under "rotateHoistShared".
  std::map<std::string, uint64_t> opCounts() const;

private:
  /// Counts \p N executions of \p Op on ciphertext \p C.
  void count(const Ct &C, CountedOp Op, uint64_t N = 1);
  /// Counts a standalone rotation by the normalized non-zero step \p S.
  void countRotation(const Ct &C, int S);
  void trackScale(const Ct &C);

  AnalysisConfig Config;
  LevelScaleCore Core;

  int MaxConsumedPrimes = 0;
  double MaxLogConsumed = 0;
  double MaxLogScale = 0;
  std::set<int> RotationSteps;
  LevelOpCounts Counts;
};

/// The analysis interpreter tracks scales and levels only; its encode()
/// discards the slot vector (see BackendEncodeIsValueAgnostic).
template <>
inline constexpr bool BackendEncodeIsValueAgnostic<AnalysisBackend> = true;

} // namespace chet

#endif // CHET_CORE_ANALYSIS_H
