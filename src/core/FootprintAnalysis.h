//===- FootprintAnalysis.h - Static peak-memory analysis -------*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile-time memory analysis: the post-compile audit's (Audit.h)
/// view of a compiled circuit as a worst-case bound on the bytes a single
/// inference holds live at once, with per-layer provenance for hotspot
/// reports. Per node the bound adds the evaluator's live value table
/// (including operands of the node being executed) to the node's
/// worst-instruction pooled scratch, scaled by the modeled kernel
/// concurrency, and its transient ciphertext copies (hoisted rotation
/// fan-out, kernel-local accumulators) -- all sized from the audit's
/// level state (hisa/AuditBackend.h).
///
/// Soundness contract, enforced by test_memory_governor and the
/// bench_memory gate: for every zoo network and both schemes, PeakBytes
/// must upper-bound the LimbPool high-water measured over a real
/// inference. The model is generous rather than tight (ciphertext
/// vectors are counted in full, scratch constants round up); the bench
/// reports the looseness ratio so regressions in either direction are
/// visible.
///
/// compileCircuit records the headline numbers on
/// CompiledCircuit::Footprint; the serving layer passes that bound as
/// TenantOptions::PredictedPeakBytes so admission can reserve it against
/// the process MemoryGovernor budget.
///
//===----------------------------------------------------------------------===//

#ifndef CHET_CORE_FOOTPRINTANALYSIS_H
#define CHET_CORE_FOOTPRINTANALYSIS_H

#include "core/Compiler.h"

#include <string>
#include <vector>

namespace chet {

/// Per-layer row of the footprint report, in evaluation order. Row 0 is
/// the synthetic "input packing" node.
struct FootprintNodeReport {
  int NodeId = -1;
  std::string Label;
  uint64_t LiveCtBytes = 0;   ///< Value-table bytes while the node ran.
  uint64_t ScratchBytes = 0;  ///< Worst-instruction pooled scratch.
  uint64_t TransientBytes = 0; ///< Worst-instruction transient copies.
  uint64_t PeakBytes = 0;     ///< Sum of the above: the node's bound.
};

/// Full result of the static footprint analysis.
struct FootprintReport {
  LayoutPolicy Policy = LayoutPolicy::AllHW;
  uint64_t InputBytes = 0;  ///< Encrypted input (live throughout).
  uint64_t OutputBytes = 0; ///< Encrypted output.
  /// Evaluation keys the backend generates (public, relinearization and
  /// Galois keys); held for the session, outside PeakBytes.
  uint64_t KeyBytes = 0;
  uint64_t PeakBytes = 0;   ///< max over nodes of PeakBytes.
  uint64_t PeakLiveCtBytes = 0;  ///< Live-ciphertext share at the peak.
  uint64_t PeakScratchBytes = 0; ///< Scratch share at the peak.
  int PeakNodeId = -1;           ///< Node owning the peak.
  std::string PeakLabel;
  std::vector<FootprintNodeReport> PerNode;

  /// The K layers with the largest peak bytes, worst first.
  std::vector<FootprintNodeReport> hotspots(size_t K = 3) const;
  FootprintSummary summary() const {
    return {true,       PeakBytes,  PeakLiveCtBytes, PeakScratchBytes,
            InputBytes, OutputBytes, KeyBytes};
  }
  std::string str() const;
};

/// Analyzes \p Circ as compiled by \p Compiled (one audit pass).
/// Value-agnostic and cheap (no encryption, no slot vectors). Throws
/// only on structural misuse the kernels reject.
FootprintReport analyzeFootprint(const TensorCircuit &Circ,
                                 const CompiledCircuit &Compiled);

} // namespace chet

#endif // CHET_CORE_FOOTPRINTANALYSIS_H
