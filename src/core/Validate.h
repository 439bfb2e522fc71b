//===- Validate.h - Compile-time circuit validation ------------*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile-time feasibility check of the compiler (Section 5.2's
/// promise that infeasible circuits are caught before any encrypted
/// execution). validateCircuit replays the compiler's analysis
/// interpretation for every candidate layout policy and reports *all*
/// infeasibilities at once instead of stopping at the first:
///
///   - the required log(QP) against the HE-standard security table at
///     every permissible ring dimension;
///   - the rescale-chain depth against the global candidate modulus list;
///   - the data layout against the slot capacity of the largest ring;
///   - any structural misuse a kernel would reject at runtime (layout or
///     shape mismatches), surfaced as a compile-time diagnostic.
///
/// compileCircuit throws ChetError(InfeasibleCircuit) carrying the full
/// report when no policy is feasible; services call validateCircuit
/// directly to vet a circuit before deployment without paying for key
/// generation.
///
//===----------------------------------------------------------------------===//

#ifndef CHET_CORE_VALIDATE_H
#define CHET_CORE_VALIDATE_H

#include "core/Compiler.h"
#include "support/Error.h"

#include <optional>
#include <set>
#include <string>
#include <vector>

namespace chet {

/// One violation found by the validation pass, tied to the layout policy
/// whose analysis produced it.
struct CircuitDiagnostic {
  ErrorCode Code = ErrorCode::InfeasibleCircuit;
  LayoutPolicy Policy = LayoutPolicy::AllHW;
  /// Provenance of the finding (a layer label or analysis stage); part
  /// of ValidationReport::str()'s dedup key, so two layers tripping the
  /// same message render as two findings. Empty for circuit-wide
  /// violations.
  std::string Where;
  std::string Message;
};

/// The outcome of validating one circuit against one option set. The
/// circuit is deployable iff at least one policy came through clean (all
/// policies, when layout search is disabled, is just the fixed one).
struct ValidationReport {
  std::vector<CircuitDiagnostic> Diagnostics;
  int PoliciesChecked = 0;
  int FeasiblePolicies = 0;

  bool ok() const { return FeasiblePolicies > 0; }

  /// Renders every violation as a numbered, policy-tagged list -- the
  /// payload of the InfeasibleCircuit error compileCircuit throws.
  std::string str() const;
};

/// Validates \p Circ under \p Options without generating any keys or
/// touching ciphertext data. Never throws for circuit problems -- they
/// all land in the report.
ValidationReport validateCircuit(const TensorCircuit &Circ,
                                 const CompilerOptions &Options);

/// Returns the rotation steps in \p Required (normalized left steps) that
/// a backend holding keys for \p Available cannot serve -- neither
/// directly nor through the power-of-two decomposition fallback of the
/// shorter direction. Empty means every rotation will succeed.
std::vector<int> missingRotationSteps(const std::set<int> &Required,
                                      const std::set<int> &Available,
                                      size_t Slots);

namespace detail {
/// Smallest LogN whose slot count fits the circuit's padded input image.
int minLogNForData(const TensorCircuit &Circ);
/// Bit size of the candidate scaling primes for a scale configuration.
int scalePrimeBits(const ScaleConfig &S);
/// The global pre-generated candidate modulus list (Section 5.2): the
/// base prime, then the scaling-prime candidates in consumption order.
std::vector<uint64_t> candidateChain(const CompilerOptions &Options);
/// The layout policies a compile with \p Options considers.
std::vector<LayoutPolicy> candidatePolicies(const CompilerOptions &Options);

/// Outcome of the compiler's analysis of one layout policy: a sizing, or
/// the one violation that makes the policy infeasible. Info is filled but
/// for EstimatedCost; on a violation its LogN, LogQ and LogQP describe how
/// far the fixpoint got and ChainPrimes, RotationSteps and Counts stay
/// empty.
struct PolicySizing {
  PolicyAnalysis Info;
  int ConsumedPrimes = 0; ///< RNS: candidates the rescale chain consumes.
  int ExtraPrimes = 0;    ///< RNS: reserve primes for output headroom.
  std::optional<CircuitDiagnostic> Violation;
};

/// The analysis of one layout policy (Section 5.2): iterates the ring
/// dimension to a fixpoint between data fit, modulus consumption, and the
/// security table (the interdependence discussed in Section 3.1). The
/// last iteration's counts and rotation steps are the ones compileCircuit
/// prices and selects keys from. compileCircuit and validateCircuit both
/// run it.
PolicySizing sizePolicy(const TensorCircuit &Circ,
                        const CompilerOptions &Options, LayoutPolicy Policy,
                        const std::vector<uint64_t> &ScaleCandidates);
} // namespace detail

} // namespace chet

#endif // CHET_CORE_VALIDATE_H
