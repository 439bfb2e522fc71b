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
#include <limits>

using namespace chet;

double chet::policyCost(const PolicyAnalysis &P, SchemeKind Scheme,
                        bool Hoisted) {
  bool Big = Scheme == SchemeKind::BigCkks;
  CostModel Model = CostModel::create(Scheme, P.LogN, Big ? P.LogQ : 0);
  return estimateCost(P.Counts, Model, Big ? P.LogQ : P.ChainPrimes, Hoisted);
}

CompiledCircuit chet::compileCircuit(const TensorCircuit &Circ,
                                     const CompilerOptions &Options) {
  std::vector<uint64_t> Chain = detail::candidateChain(Options);
  uint64_t FirstPrime = Chain.front();
  std::vector<uint64_t> ScaleCandidates(Chain.begin() + 1, Chain.end());

  CompiledCircuit Result;
  Result.Scheme = Options.Scheme;
  Result.Scales = Options.Scales;
  Result.PadPhys = Circ.padPhysNeeded();

  // One analysis run per fixpoint iteration sizes each policy, and its
  // counts are priced afterwards. The sizing reports each infeasible
  // policy's violation, so an infeasible circuit's error lists every one
  // of them without a second analysis.
  ValidationReport Validation;
  std::optional<size_t> Best; // index into Result.PerPolicy
  int BestConsumed = 0, BestExtra = 0;
  for (LayoutPolicy Policy : detail::candidatePolicies(Options)) {
    ++Validation.PoliciesChecked;
    detail::PolicySizing Run =
        detail::sizePolicy(Circ, Options, Policy, ScaleCandidates);
    if (Run.Violation) {
      Run.Info.EstimatedCost = std::numeric_limits<double>::infinity();
      Validation.Diagnostics.push_back(std::move(*Run.Violation));
    } else {
      ++Validation.FeasiblePolicies;
      Run.Info.EstimatedCost = policyCost(Run.Info, Options.Scheme);
      if (!Best ||
          Run.Info.EstimatedCost < Result.PerPolicy[*Best].EstimatedCost) {
        Best = Result.PerPolicy.size();
        BestConsumed = Run.ConsumedPrimes;
        BestExtra = Run.ExtraPrimes;
      }
    }
    Result.PerPolicy.push_back(std::move(Run.Info));
  }
  if (!Best)
    throw InfeasibleCircuitError(formatError(
        "no layout policy fits any tabulated ring dimension at the "
        "requested security level; ",
        Validation.str()));

  const PolicyAnalysis &Chosen = Result.PerPolicy[*Best];
  Result.Policy = Chosen.Policy;
  Result.LogN = Chosen.LogN;
  Result.LogQ = Chosen.LogQ;
  Result.EstimatedCost = Chosen.EstimatedCost;

  if (Options.Scheme == SchemeKind::RnsCkks) {
    RnsCkksParams P;
    P.LogN = Result.LogN;
    // Chain layout: base prime, then the reserve primes, then the
    // consumed candidates in reverse -- the backend rescales from the
    // chain's tail, so it consumes candidates in exactly the order the
    // analysis did.
    P.ChainPrimes.push_back(FirstPrime);
    for (int I = 0; I < BestExtra; ++I)
      P.ChainPrimes.push_back(ScaleCandidates[BestConsumed + I]);
    for (int I = BestConsumed - 1; I >= 0; --I)
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
    for (int Step : Chosen.RotationSteps)
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
