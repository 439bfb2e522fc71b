//===- Compiler.h - The CHET compiler driver -------------------*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiler of Section 5: given a tensor circuit, an input schema
/// (carried by the circuit), and a target scheme, it
///
///   1. searches the pruned layout-policy space (Section 5.3), running for
///      each policy an encryption-parameter analysis (Section 5.2) and a
///      cost analysis over the scheme's cost model,
///   2. picks the cheapest policy and derives the concrete encryption
///      parameters (ring dimension N from the security table, the modulus
///      chain / log Q from the modulus the circuit consumes plus the
///      desired output precision),
///   3. selects the exact rotation-key set (Section 5.4),
///   4. optionally tunes the four fixed-point scales by profile-guided
///      search against the unencrypted reference (Section 5.5).
///
/// The resulting CompiledCircuit plays the role of the paper's "optimized
/// homomorphic tensor circuit + encryptor/decryptor": it fixes everything
/// the client and server need (parameters, keys to generate, layout
/// policy, scales).
///
//===----------------------------------------------------------------------===//

#ifndef CHET_CORE_COMPILER_H
#define CHET_CORE_COMPILER_H

#include "ckks/BigCkks.h"
#include "ckks/RnsCkks.h"
#include "core/Analysis.h"
#include "core/Evaluate.h"
#include "core/Ir.h"
#include "support/Error.h"

#include <optional>
#include <set>

namespace chet {

/// User-facing compilation options (the "schema" side inputs of Fig. 2).
struct CompilerOptions {
  SchemeKind Scheme = SchemeKind::RnsCkks;
  SecurityLevel Security = SecurityLevel::Classical128;
  /// Fixed-point scales; either user-provided or from selectScales.
  ScaleConfig Scales;
  /// Bit size of the base prime q_0 and the special prime.
  int FirstPrimeBits = 60;
  /// Headroom reserved above the output's scale so the result decrypts to
  /// the desired precision (Section 5.2's "output precision").
  int OutputPrecisionBits = 20;
  /// Generate rotation keys for exactly the steps the circuit uses
  /// (Section 5.4) instead of relying on the power-of-two default.
  bool SelectRotationKeys = true;
  /// Search all four layout policies; when false, FixedPolicy is used.
  bool SearchLayouts = true;
  LayoutPolicy FixedPolicy = LayoutPolicy::AllHW;
  /// Ring-dimension search bound.
  int MaxLogN = 16;
  /// Act on the verifier findings of the post-compile audit (Audit.h),
  /// which runs on every compile: errors abort through the
  /// InfeasibleCircuit path, warnings and notes land on
  /// CompiledCircuit::Warnings. Off, the findings are discarded.
  bool PostCompileVerify = true;
  /// Requested output precision as an absolute error target: when
  /// positive and the audit's static worst-case output error exceeds it,
  /// compilation fails with a typed PrecisionBound error naming the
  /// hottest layers. Zero keeps the bound report-only.
  double MaxOutputError = 0;
};

/// Per-policy analysis record, kept for reporting (Tables 5/6, Figure 6).
struct PolicyAnalysis {
  LayoutPolicy Policy = LayoutPolicy::AllHW;
  int LogN = 0;
  double LogQ = 0;
  double LogQP = 0;
  int ChainPrimes = 0; ///< RNS only.
  /// policyCost(*this, Scheme); infinite for an infeasible policy.
  double EstimatedCost = 0;
  std::set<int> RotationSteps;
  /// The analysis run's instruction counts (empty when infeasible).
  LevelOpCounts Counts;
};

/// Prices \p P's counts with \p Scheme's cost model at the policy's ring
/// dimension and sized chain. \p Hoisted false prices every hoisted
/// rotation amount as a standalone rotation (estimateCost).
double policyCost(const PolicyAnalysis &P, SchemeKind Scheme,
                  bool Hoisted = true);

/// One finding of the static verifier, with full provenance: the HISA
/// instruction that tripped the check, the tensor-circuit node whose
/// kernel issued it, and that node's network-layer label.
struct VerifierDiagnostic {
  Severity Sev = Severity::Warning;
  ErrorCode Code = ErrorCode::InvalidArgument;
  std::string HisaOp;
  int NodeId = -1;
  std::string Layer;
  std::string Message;
};

/// Headline numbers of the post-compile audit's range/noise bound,
/// recorded on the compiled artifact (the full per-layer report is
/// analyzeNoise in NoiseAnalysis.h). All values are message-space bounds
/// at the circuit output: the decrypted result differs from the exact
/// real computation by at most ErrorBound = QuantBound + NoiseBound.
struct NoiseSummary {
  bool Analyzed = false;
  double MessageBound = 0; ///< Bound on |output value|.
  double ErrorBound = 0;   ///< Total worst-case output error.
  double QuantBound = 0;   ///< Fixed-point rounding share.
  double NoiseBound = 0;   ///< RLWE noise share.
};

/// Headline numbers of the post-compile audit's peak-footprint bound,
/// recorded on the compiled artifact (the full per-layer report is
/// analyzeFootprint in FootprintAnalysis.h). PeakBytes is a worst-case
/// bound on the bytes one inference of this circuit holds live at once
/// -- value-table ciphertexts plus kernel scratch and transient copies --
/// sized from the scheme's actual ring degree and per-level limb counts.
struct FootprintSummary {
  bool Analyzed = false;
  uint64_t PeakBytes = 0;       ///< InputBytes + live + scratch + transient.
  uint64_t PeakLiveCtBytes = 0; ///< Value-table share of the peak.
  uint64_t PeakScratchBytes = 0; ///< Pooled-scratch share of the peak.
  uint64_t InputBytes = 0;      ///< Encrypted input (live throughout).
  uint64_t OutputBytes = 0;     ///< Encrypted output.
  /// Evaluation key material (public, relinearization and Galois keys)
  /// the backend generates; not part of PeakBytes.
  uint64_t KeyBytes = 0;
};

/// One selected Galois key: the rotation step it serves and the highest
/// level at which the circuit switches it, in the target backend's own
/// unit (RNS-CKKS Ct::Level, big-CKKS Ct::LogQ). The backend generates the
/// key for that level only (DESIGN.md section 5m).
struct RotationKeySpec {
  int Step = 0;
  int Level = 0;
};

/// The compiler's output artifact.
struct CompiledCircuit {
  SchemeKind Scheme = SchemeKind::RnsCkks;
  LayoutPolicy Policy = LayoutPolicy::AllHW;
  ScaleConfig Scales;
  int LogN = 0;
  double LogQ = 0;
  int PadPhys = 0;
  double EstimatedCost = 0;
  std::optional<RnsCkksParams> Rns;
  std::optional<BigCkksParams> Big;
  /// Galois keys to generate, ascending by normalized step, each with the
  /// level the post-compile audit recorded for it (empty: power-of-two
  /// default).
  std::vector<RotationKeySpec> RotationKeys;
  /// The full four-policy analysis for reporting.
  std::vector<PolicyAnalysis> PerPolicy;
  /// Non-fatal verifier findings of the post-compile audit (empty when
  /// CompilerOptions::PostCompileVerify is off).
  std::vector<VerifierDiagnostic> Warnings;
  /// Static precision bound from the post-compile audit.
  NoiseSummary Noise;
  /// Static memory bound from the post-compile audit.
  FootprintSummary Footprint;
};

/// Runs passes 1-3. Throws ChetError(InfeasibleCircuit) -- whose message
/// lists every per-policy violation from the validation pass (Validate.h)
/// -- if no tabulated ring dimension can hold the circuit at the
/// requested security level.
CompiledCircuit compileCircuit(const TensorCircuit &Circ,
                               const CompilerOptions &Options);

/// Instantiates the scheme backend a CompiledCircuit prescribes and
/// generates its selected rotation keys, each at its recorded level.
/// Exactly one of these matches Compiled.Scheme.
RnsCkksBackend makeRnsBackend(const CompiledCircuit &Compiled,
                              uint64_t Seed = 0x5ea1);
BigCkksBackend makeBigBackend(const CompiledCircuit &Compiled,
                              uint64_t Seed = 0x4ea2);

/// Profile-guided fixed-point scale selection (Section 5.5).
struct ScaleSearchOptions {
  /// Output error bound relative to the unencrypted reference.
  double Tolerance = 0.1;
  /// Exponent decrement per accepted trial.
  int StepBits = 2;
  /// Search floor for every exponent.
  int MinExponent = 8;
  /// Consult the static noise bound before running an encrypted trial:
  /// a candidate whose worst-case static error already fits inside
  /// Tolerance is accepted without touching ciphertexts. Sound and
  /// decision-identical (the encrypted trial could only have agreed),
  /// so the final scales never change -- only EncryptedRuns shrinks.
  bool UseStaticBound = true;
};

struct ScaleSearchResult {
  ScaleConfig Scales;
  int Trials = 0;
  int AcceptedSteps = 0;
  /// Candidates evaluated with a full encrypted inference.
  int EncryptedRuns = 0;
  /// Candidates accepted purely from the static noise bound.
  int StaticAccepts = 0;
};

/// Round-robin descent over the four scale exponents, accepting a
/// decrement while every test input's encrypted output stays within
/// Tolerance of the plain reference. Starts from Options.Scales.
ScaleSearchResult selectScales(const TensorCircuit &Circ,
                               const CompilerOptions &Options,
                               const std::vector<Tensor3> &TestInputs,
                               const ScaleSearchOptions &Search = {});

} // namespace chet

#endif // CHET_CORE_COMPILER_H
