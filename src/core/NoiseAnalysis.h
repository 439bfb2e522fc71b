//===- NoiseAnalysis.h - Static range/noise-budget analysis ----*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile-time precision analysis: the post-compile audit's
/// (Audit.h) view of a compiled circuit as a sound worst-case bound on
/// |encrypted output - exact output|, split into a fixed-point
/// quantization share and an RLWE noise share, with per-layer provenance
/// for hotspot reports.
///
/// The analysis runs in two stages:
///
///  1. A semantic range pre-pass over the tensor IR (rangeEnvelopes)
///     computes, per node, a tight output-magnitude bound from the
///     network's actual weights (the L1 norm of a linear layer is the
///     exact supremum of its output over a box of inputs) plus a sound
///     cap on every intermediate slot value the node's kernel
///     materializes. O(#weights).
///  2. The audit's range/noise facet (hisa/AuditBackend.h) propagates
///     interval + error state per instruction, clamping value bounds to
///     the stage-1 caps so kernel-internal fan-out (replicate-sums, tap
///     accumulation) cannot blow the interval up past what the layer
///     semantics allow. O(#ops).
///
/// compileCircuit records the headline bound on CompiledCircuit::Noise;
/// with a positive CompilerOptions::MaxOutputError it fails compilation
/// with a typed PrecisionBound error. selectScales consults the bound to
/// accept candidates statically, skipping encrypted trial runs (see
/// ScaleSearchOptions::UseStaticBound). The verifier facet of the same
/// pass proves the artifact *runs*; this view proves what runs is
/// *precise*.
///
/// Bounds are high-probability canonical-embedding bounds (NoiseModel in
/// core/CostModel.h), accumulated linearly where real noise cancels in
/// quadrature -- sound for any fixed failure probability, and loose by
/// design; the bench_noise soundness gate tracks the looseness ratio.
///
//===----------------------------------------------------------------------===//

#ifndef CHET_CORE_NOISEANALYSIS_H
#define CHET_CORE_NOISEANALYSIS_H

#include "core/Compiler.h"
#include "hisa/AuditBackend.h"

#include <map>
#include <string>
#include <vector>

namespace chet {

/// Per-layer row of the noise report, in evaluation order. Row 0 is the
/// synthetic "input packing" node (encryption happens before the first
/// kernel).
struct NoiseNodeReport {
  int NodeId = -1;
  std::string Label;
  double PeakAbs = 0;          ///< Largest value bound in the layer.
  double PeakErr = 0;          ///< Largest total error bound in the layer.
  double NoiseIntroduced = 0;  ///< Fresh noise added by the layer's ops.
};

/// Full result of the static range/noise analysis.
struct NoiseReport {
  LayoutPolicy Policy = LayoutPolicy::AllHW;
  double MessageBound = 0; ///< Bound on |output value|.
  double ErrorBound = 0;   ///< QuantBound + NoiseBound.
  double QuantBound = 0;   ///< Fixed-point rounding share.
  double NoiseBound = 0;   ///< RLWE noise share.
  std::vector<NoiseNodeReport> PerNode;

  /// The K layers with the largest peak error bound, worst first
  /// (op -> node -> layer provenance for PrecisionBound messages).
  std::vector<NoiseNodeReport> hotspots(size_t K = 3) const;
  NoiseSummary summary() const {
    return {true, MessageBound, ErrorBound, QuantBound, NoiseBound};
  }
  std::string str() const;
};

/// Stage 1 alone: the per-node semantic envelopes (output bound,
/// intermediate cap, weight/bias magnitudes) computed from the
/// circuit's actual weights. Exposed for tests and for reuse by future
/// passes (bootstrap placement needs the same ranges).
std::map<int, RangeEnvelope> rangeEnvelopes(const TensorCircuit &Circ,
                                            double InputAbs);

/// Analyzes \p Circ as compiled by \p Compiled (one audit pass).
/// Value-agnostic and cheap (no encryption, no slot vectors). Throws
/// only on structural misuse the kernels reject.
NoiseReport analyzeNoise(const TensorCircuit &Circ,
                         const CompiledCircuit &Compiled);

} // namespace chet

#endif // CHET_CORE_NOISEANALYSIS_H
