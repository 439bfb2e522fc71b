//===- Compiler.cpp - The CHET compiler driver -----------------------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"

#include "core/Audit.h"
#include "core/Validate.h"
#include "runtime/ReferenceOps.h"
#include "support/Error.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

using namespace chet;

bool chet::narrowChainRequested(PrimeChainWidth Width) {
  if (Width != PrimeChainWidth::Auto)
    return Width == PrimeChainWidth::Narrow;
  static const bool EnvNarrow = [] {
    const char *Env = std::getenv("CHET_NARROW_PRIMES");
    return Env && (Env[0] == '1' || Env[0] == 't' || Env[0] == 'T' ||
                   ((Env[0] == 'o' || Env[0] == 'O') &&
                    (Env[1] == 'n' || Env[1] == 'N')));
  }();
  return EnvNarrow;
}

namespace {

struct PolicyRun {
  PolicyAnalysis Info;
  detail::PolicySizing Sizing;
};

/// Runs the modulus analysis (phase 1, shared with validateCircuit) and
/// the cost analysis (phase 2) for one layout policy.
PolicyRun analyzePolicy(const TensorCircuit &Circ,
                        const CompilerOptions &Options, LayoutPolicy Policy,
                        const std::vector<uint64_t> &ScaleCandidates) {
  PolicyRun Run;
  Run.Sizing = detail::sizePolicy(Circ, Options, Policy, ScaleCandidates);
  const detail::PolicySizing &S = Run.Sizing;
  Run.Info.Policy = Policy;
  Run.Info.LogN = S.LogN;
  Run.Info.LogQ = S.LogQ;
  Run.Info.LogQP = S.LogQP;
  if (S.Violation) {
    Run.Info.EstimatedCost = std::numeric_limits<double>::infinity();
    return Run;
  }

  // Phase 2: cost + rotation-set analysis at the chosen dimension.
  CostModel Model = CostModel::create(
      Options.Scheme, S.LogN,
      Options.Scheme == SchemeKind::BigCkks ? S.LogQ : 0);
  AnalysisConfig C2;
  C2.Scheme = Options.Scheme;
  C2.LogN = S.LogN;
  C2.ScalePrimeCandidates = ScaleCandidates;
  C2.Cost = &Model;
  C2.TotalChainPrimes = S.ChainPrimes;
  C2.TotalLogQ = S.LogQ;
  C2.SelectedRotationKeys = Options.SelectRotationKeys;
  C2.HoistedRotationPricing = Options.HoistedRotationCost;
  AnalysisBackend B2(C2);
  const OpNode &In = Circ.ops().front();
  Tensor3 Dummy(In.C, In.H, In.W);
  TensorLayout L = circuitInputLayout(Circ, Policy, B2.slotCount());
  auto Enc = encryptTensor(B2, Dummy, L, Options.Scales);
  (void)evaluateCircuit(B2, Circ, Enc, Options.Scales, Policy);

  Run.Info.ChainPrimes = S.ChainPrimes;
  Run.Info.EstimatedCost = B2.totalCost();
  Run.Info.RotationSteps = B2.rotationSteps();
  return Run;
}

} // namespace

CompiledCircuit chet::compileCircuit(const TensorCircuit &Circ,
                                     const CompilerOptions &Options) {
  std::vector<uint64_t> Chain = detail::candidateChain(Options);
  uint64_t FirstPrime = Chain.front();
  std::vector<uint64_t> ScaleCandidates(Chain.begin() + 1, Chain.end());

  CompiledCircuit Result;
  Result.Scheme = Options.Scheme;
  Result.Scales = Options.Scales;
  Result.PadPhys = Circ.padPhysNeeded();

  // Phase 1 reports each infeasible policy's violation, so an infeasible
  // circuit's error lists every one of them without a second analysis.
  ValidationReport Validation;
  std::optional<PolicyRun> Best;
  for (LayoutPolicy Policy : detail::candidatePolicies(Options)) {
    ++Validation.PoliciesChecked;
    PolicyRun Run = analyzePolicy(Circ, Options, Policy, ScaleCandidates);
    Result.PerPolicy.push_back(Run.Info);
    if (Run.Sizing.Violation) {
      Validation.Diagnostics.push_back(*Run.Sizing.Violation);
      continue;
    }
    ++Validation.FeasiblePolicies;
    if (!Best || Run.Info.EstimatedCost < Best->Info.EstimatedCost)
      Best = std::move(Run);
  }
  if (!Best)
    throw InfeasibleCircuitError(formatError(
        "no layout policy fits any tabulated ring dimension at the "
        "requested security level; ",
        Validation.str()));

  Result.Policy = Best->Info.Policy;
  Result.LogN = Best->Info.LogN;
  Result.LogQ = Best->Info.LogQ;
  Result.EstimatedCost = Best->Info.EstimatedCost;

  if (Options.Scheme == SchemeKind::RnsCkks) {
    RnsCkksParams P;
    P.LogN = Result.LogN;
    // Chain layout: base prime, then the reserve primes, then the
    // consumed candidates in reverse -- the backend rescales from the
    // chain's tail, so it consumes candidates in exactly the order the
    // analysis did.
    P.ChainPrimes.push_back(FirstPrime);
    const detail::PolicySizing &S = Best->Sizing;
    for (int I = 0; I < S.ExtraPrimes; ++I)
      P.ChainPrimes.push_back(ScaleCandidates[S.ConsumedPrimes + I]);
    for (int I = S.ConsumedPrimes - 1; I >= 0; --I)
      P.ChainPrimes.push_back(ScaleCandidates[I]);
    // The key-switch digit width fills the budget the chain leaves over;
    // it feeds back into no sizing or layout decision.
    P.SpecialPrimes = RnsCkksParams::specialPrimesFor(
        P.ChainPrimes, P.LogN, Options.Security, Options.FirstPrimeBits);
    P.Security = Options.Security;
    P.StockPow2Keys = !Options.SelectRotationKeys;
    Result.Rns = std::move(P);
  } else {
    BigCkksParams P;
    P.LogN = Result.LogN;
    P.LogQ = static_cast<int>(Result.LogQ);
    P.LogSpecial = 0; // defaults to LogQ
    P.Security = Options.Security;
    P.StockPow2Keys = !Options.SelectRotationKeys;
    Result.Big = std::move(P);
  }
  // Selected keys start at the top level; the audit below lowers each to
  // the highest level the circuit switches it at.
  if (Options.SelectRotationKeys) {
    int Top = Result.Rns ? Result.Rns->levels() : Result.Big->LogQ;
    for (int Step : Best->Info.RotationSteps)
      Result.RotationKeys.push_back({Step, Top});
  }

  // One post-compile audit pass: verification, precision bound and
  // footprint bound from a single re-interpretation of the artifact.
  AuditReport Audit = auditCircuit(Circ, Result);
  if (Options.PostCompileVerify) {
    if (!Audit.Verification.ok())
      throw InfeasibleCircuitError(formatError(
          "post-compile verification failed; ", Audit.Verification.str()));
    Result.Warnings = std::move(Audit.Verification.Diagnostics);
  }
  if (Audit.Failure)
    std::rethrow_exception(Audit.Failure);
  Result.Noise = Audit.Noise.summary();
  if (Options.MaxOutputError > 0 &&
      Audit.Noise.ErrorBound > Options.MaxOutputError)
    throw PrecisionBoundError(formatError(
        "the static worst-case output error ", Audit.Noise.ErrorBound,
        " exceeds the requested precision ", Options.MaxOutputError, "; ",
        Audit.Noise.str()));
  Result.Footprint = Audit.Footprint.summary();
  Result.RotationKeys = std::move(Audit.RotationKeys);
  return Result;
}

RnsCkksBackend chet::makeRnsBackend(const CompiledCircuit &Compiled,
                                    uint64_t Seed) {
  CHET_CHECK(Compiled.Rns.has_value(), InvalidArgument,
             "compiled circuit does not target RNS-CKKS");
  RnsCkksParams P = *Compiled.Rns;
  P.Seed = Seed;
  RnsCkksBackend Backend(P);
  for (const RotationKeySpec &K : Compiled.RotationKeys)
    Backend.generateRotationKey(K.Step, K.Level);
  return Backend;
}

BigCkksBackend chet::makeBigBackend(const CompiledCircuit &Compiled,
                                    uint64_t Seed) {
  CHET_CHECK(Compiled.Big.has_value(), InvalidArgument,
             "compiled circuit does not target big-CKKS");
  BigCkksParams P = *Compiled.Big;
  P.Seed = Seed;
  BigCkksBackend Backend(P);
  for (const RotationKeySpec &K : Compiled.RotationKeys)
    Backend.generateRotationKey(K.Step, K.Level);
  return Backend;
}

namespace {

/// Encoded-plaintext caches held across the trials of one scale search.
/// Backend instances are rebuilt per trial, but the encodings (and their
/// per-prime NTT forms) only depend on the scale configuration and the
/// compiled parameters, which only change when the scales do -- and
/// evaluateCircuit's noteScales hook drops the caches exactly then.
struct ScaleSearchCaches {
  EncodedPlaintextCache<RnsCkksBackend> Rns;
  EncodedPlaintextCache<BigCkksBackend> Big;
};

/// Largest output error of encrypted inference vs the plain reference
/// over the test inputs, for one candidate scale configuration.
double maxOutputError(const TensorCircuit &Circ,
                      const CompilerOptions &Options,
                      const CompiledCircuit &Compiled,
                      const std::vector<Tensor3> &Inputs,
                      ScaleSearchCaches *Caches = nullptr) {
  double MaxErr = 0;
  auto RunAll = [&](auto &Backend, auto *PtCache) {
    for (const Tensor3 &Image : Inputs) {
      Tensor3 Got = runEncryptedInference(Backend, Circ, Image,
                                          Options.Scales, Compiled.Policy,
                                          FcAlgorithm::Auto, PtCache);
      Tensor3 Want = Circ.evaluatePlain(Image);
      MaxErr = std::max(MaxErr, maxAbsDiff(Got, Want));
    }
  };
  if (Options.Scheme == SchemeKind::RnsCkks) {
    RnsCkksBackend Backend = makeRnsBackend(Compiled);
    RunAll(Backend, Caches ? &Caches->Rns : nullptr);
  } else {
    BigCkksBackend Backend = makeBigBackend(Compiled);
    RunAll(Backend, Caches ? &Caches->Big : nullptr);
  }
  return MaxErr;
}

} // namespace

ScaleSearchResult chet::selectScales(const TensorCircuit &Circ,
                                     const CompilerOptions &Options,
                                     const std::vector<Tensor3> &TestInputs,
                                     const ScaleSearchOptions &Search) {
  CHET_CHECK(!TestInputs.empty(), InvalidArgument,
             "scale search needs at least one test input");
  CompilerOptions Current = Options;
  ScaleSearchResult Result;
  ScaleSearchCaches Caches; // shared across trials, see above

  auto Acceptable = [&](const CompilerOptions &Cand) {
    ++Result.Trials;
    // Precision enforcement belongs to the caller's final compile; the
    // search probes candidates report-only so its accept/reject
    // decisions are identical with or without the static bound.
    CompilerOptions Probe = Cand;
    Probe.MaxOutputError = 0;
    CompiledCircuit Compiled = compileCircuit(Circ, Probe);
    if (Search.UseStaticBound && Compiled.Noise.Analyzed &&
        Compiled.Noise.ErrorBound <= Search.Tolerance) {
      // The static bound already proves every input's encrypted output
      // lands within tolerance; the trial run could only have agreed.
      ++Result.StaticAccepts;
      return true;
    }
    ++Result.EncryptedRuns;
    return maxOutputError(Circ, Probe, Compiled, TestInputs, &Caches) <=
           Search.Tolerance;
  };

  // The starting point must itself be acceptable; otherwise report the
  // originals untouched (the user must raise the starting scales).
  if (!Acceptable(Current)) {
    Result.Scales = Options.Scales;
    return Result;
  }

  // Round-robin descent over (Pc, Pw, Pu, Pm), Section 5.5: decrease one
  // exponent at a time while every test input stays within tolerance.
  int Exponents[4] = {
      static_cast<int>(std::lround(std::log2(Current.Scales.Image))),
      static_cast<int>(std::lround(std::log2(Current.Scales.Weight))),
      static_cast<int>(std::lround(std::log2(Current.Scales.Scalar))),
      static_cast<int>(std::lround(std::log2(Current.Scales.Mask)))};
  bool Stuck[4] = {false, false, false, false};
  int Role = 0;
  int StuckCount = 0;
  while (StuckCount < 4) {
    if (Stuck[Role]) {
      Role = (Role + 1) % 4;
      continue;
    }
    int Candidate = Exponents[Role] - Search.StepBits;
    if (Candidate < Search.MinExponent) {
      Stuck[Role] = true;
      ++StuckCount;
      Role = (Role + 1) % 4;
      continue;
    }
    CompilerOptions Trial = Current;
    int E[4] = {Exponents[0], Exponents[1], Exponents[2], Exponents[3]};
    E[Role] = Candidate;
    Trial.Scales = ScaleConfig::fromExponents(E[0], E[1], E[2], E[3]);
    if (Acceptable(Trial)) {
      Exponents[Role] = Candidate;
      Current = Trial;
      ++Result.AcceptedSteps;
    } else {
      Stuck[Role] = true;
      ++StuckCount;
    }
    Role = (Role + 1) % 4;
  }
  Result.Scales = Current.Scales;
  return Result;
}
