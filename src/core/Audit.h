//===- Audit.h - The post-compile audit pass -------------------*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiler's post-compile audit: one value-agnostic evaluation of a
/// compiled circuit over AuditBackend (hisa/AuditBackend.h) fills three
/// reports at once -- the paper's "analyse the circuit by re-interpreting
/// it" (Section 5.1) applied to the finished artifact:
///
///   - VerificationReport (Verifier.h): does the artifact *run* -- scales
///     align, the chain suffices, every rotation has a key -- plus lints
///     for wasted FHE work;
///   - NoiseReport (NoiseAnalysis.h): a sound worst-case bound on the
///     decrypted output error, with per-layer hotspots;
///   - FootprintReport (FootprintAnalysis.h): a worst-case bound on the
///     bytes one inference holds live at once.
///
/// The driver runs the evaluator's node loop itself (detail::evaluateNode)
/// so it can keep the evaluator's liveness frontier: after each node it
/// sums the sizes of every value still in the table -- including operands
/// of the node just executed, which are live *during* it -- then releases
/// dead entries exactly as evaluateCircuit does.
///
/// compileCircuit runs the pass once per compile; verifyCircuit,
/// analyzeNoise and analyzeFootprint are views of it.
///
//===----------------------------------------------------------------------===//

#ifndef CHET_CORE_AUDIT_H
#define CHET_CORE_AUDIT_H

#include "core/FootprintAnalysis.h"
#include "core/NoiseAnalysis.h"
#include "core/Verifier.h"

#include <exception>

namespace chet {

struct AuditReport {
  VerificationReport Verification;
  NoiseReport Noise;
  FootprintReport Footprint;
  /// The artifact's selected Galois keys, each lowered to the highest
  /// level a rotation switches it at (keys no rotation reached keep the
  /// artifact's level). compileCircuit stores this list, and
  /// Footprint.KeyBytes sizes the keys at these levels.
  std::vector<RotationKeySpec> RotationKeys;
  /// Set when a kernel rejected the artifact outright (layout or shape
  /// misuse): Verification carries it as an "evaluation" error, the other
  /// two reports are partial, and their views rethrow it.
  std::exception_ptr Failure;
};

/// Audits \p Circ as compiled by \p Compiled. Never touches key material
/// or ciphertext data; throws only for an unusable artifact (empty
/// circuit, ring dimension out of range).
AuditReport auditCircuit(const TensorCircuit &Circ,
                         const CompiledCircuit &Compiled);

} // namespace chet

#endif // CHET_CORE_AUDIT_H
