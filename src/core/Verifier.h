//===- Verifier.h - Post-compile static verification -----------*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static verifier: the post-compile audit's (Audit.h) view of a
/// compiled circuit that reports *every* violation at once, each with
/// full provenance (HISA instruction -> tensor-circuit node -> network
/// layer). Where validateCircuit answers "can this circuit be compiled at
/// all?", verifyCircuit vets a concrete compiled artifact -- its actual
/// modulus chain, its actual rotation-key set -- and additionally lints
/// for wasted FHE work (dead ciphertexts, redundant rotations,
/// multiply-depth hotspots).
///
/// Checks and severities:
///
///   error   ScaleMismatch      add/sub operands differ beyond tolerance
///   error   LevelExhausted     rescale wanted, modulus chain spent
///   error   MissingRotationKey rotation unservable by the key set
///   warning ScaleMismatch      rescale lands below the scale floor
///   warning DeadCiphertext     node never reaches the circuit output
///   warning RedundantRotation  back-to-back rotations, fusible
///   note    DepthHotspot       one layer eats a big share of the chain
///
/// compileCircuit runs the audit on every compile; with
/// CompilerOptions::PostCompileVerify (the default) errors abort through
/// the InfeasibleCircuit path and warnings and notes ride on
/// CompiledCircuit::Warnings. Services vet circuits directly via either
/// overload below; neither touches key material or ciphertext data.
///
//===----------------------------------------------------------------------===//

#ifndef CHET_CORE_VERIFIER_H
#define CHET_CORE_VERIFIER_H

#include "core/Compiler.h"
#include "hisa/AuditBackend.h"

#include <string>
#include <vector>

namespace chet {

/// The outcome of verifying one compiled circuit: the deduplicated
/// diagnostics and the per-layer activity table the hotspot check is
/// computed from.
struct VerificationReport {
  std::vector<VerifierDiagnostic> Diagnostics;
  /// Per-layer multiply/rotate/level accounting, in evaluation order
  /// (row 0 is the input packing).
  std::vector<AuditNodeStats> LayerDepth;
  LayoutPolicy Policy = LayoutPolicy::AllHW;

  size_t errors() const { return count(Severity::Error); }
  size_t warnings() const { return count(Severity::Warning); }
  size_t notes() const { return count(Severity::Note); }
  /// Deployable: no error-severity finding.
  bool ok() const { return errors() == 0; }

  /// Renders every finding as a numbered list in the style of
  /// ValidationReport::str(), severity and provenance included.
  std::string str() const;
  /// Renders the per-layer multiply-depth table (Table 3 companion).
  std::string depthTableStr() const;

private:
  size_t count(Severity Sev) const {
    size_t N = 0;
    for (const VerifierDiagnostic &D : Diagnostics)
      N += D.Sev == Sev;
    return N;
  }
};

/// Verifies \p Circ against the artifact \p Compiled produced for it:
/// the compiled modulus chain, rotation-key set, layout policy, and
/// scales. Never throws for circuit problems -- they all land in the
/// report.
VerificationReport verifyCircuit(const TensorCircuit &Circ,
                                 const CompiledCircuit &Compiled);

/// Convenience for services: compiles \p Circ (with the post-compile
/// pass disabled to avoid double work) and verifies the result. A
/// compilation failure becomes an error diagnostic in the report.
VerificationReport verifyCircuit(const TensorCircuit &Circ,
                                 const CompilerOptions &Options);

} // namespace chet

#endif // CHET_CORE_VERIFIER_H
