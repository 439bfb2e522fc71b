//===- Validate.cpp - Compile-time circuit validation ----------------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Validate.h"

#include "hisa/LevelScale.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <tuple>
#include <utility>

using namespace chet;

int chet::detail::minLogNForData(const TensorCircuit &Circ) {
  const OpNode &In = Circ.ops().front();
  int Pad = Circ.padPhysNeeded();
  long Phys = static_cast<long>(In.H + 2 * Pad) * (In.W + 2 * Pad);
  int LogSlots = 0;
  while ((1L << LogSlots) < Phys)
    ++LogSlots;
  int LogN = LogSlots + 1;
  return std::max(LogN, 11);
}

int chet::detail::scalePrimeBits(const ScaleConfig &S) {
  int Bits = static_cast<int>(std::lround(std::log2(S.Image)));
  // Floor of 29: the candidate primes must satisfy q = 1 mod 2^17 (valid
  // at every ring dimension up to 2^16), and the list needs dozens of
  // distinct primes of the chosen size -- below 2^29 the congruence
  // class holds too few primes.
  return std::clamp(Bits, 29, 55);
}

std::string ValidationReport::str() const {
  std::ostringstream OS;
  OS << "circuit validation found " << Diagnostics.size() << " violation"
     << (Diagnostics.size() == 1 ? "" : "s") << " across " << PoliciesChecked
     << (PoliciesChecked == 1 ? " policy" : " policies") << " ("
     << FeasiblePolicies << " feasible):";
  // Policies often fail identically (the same modulus overrun under every
  // layout); render each distinct (code, provenance, message) once,
  // tagged with every policy that produced it, in first-appearance
  // order. Provenance is part of the key: two layers tripping the same
  // message are two findings, not one.
  std::vector<size_t> Order;
  std::map<std::tuple<int, std::string, std::string>,
           std::vector<LayoutPolicy>>
      Groups;
  for (const CircuitDiagnostic &D : Diagnostics) {
    auto Key = std::make_tuple(static_cast<int>(D.Code), D.Where, D.Message);
    auto It = Groups.find(Key);
    if (It == Groups.end()) {
      Order.push_back(static_cast<size_t>(&D - Diagnostics.data()));
      Groups.emplace(std::move(Key), std::vector<LayoutPolicy>{D.Policy});
    } else {
      It->second.push_back(D.Policy);
    }
  }
  int N = 0;
  for (size_t Index : Order) {
    const CircuitDiagnostic &D = Diagnostics[Index];
    const auto &Policies =
        Groups[{static_cast<int>(D.Code), D.Where, D.Message}];
    OS << "\n  " << ++N << ". [";
    for (size_t I = 0; I < Policies.size(); ++I)
      OS << (I ? ", " : "") << layoutPolicyName(Policies[I]);
    OS << "] " << errorCodeName(D.Code);
    if (!D.Where.empty())
      OS << " (at " << D.Where << ")";
    OS << ": " << D.Message;
    if (Policies.size() > 1)
      OS << " (" << Policies.size() << " policies)";
  }
  return OS.str();
}

std::vector<int> chet::missingRotationSteps(const std::set<int> &Required,
                                            const std::set<int> &Available,
                                            size_t Slots) {
  std::vector<int> Missing;
  for (int Step : Required) {
    int S = normalizeRotation(Step, Slots);
    if (S == 0 || Available.count(S))
      continue;
    bool Covered = true;
    forEachRotationHop(S, Slots, [&](int Hop) {
      Covered = Covered && Available.count(Hop);
    });
    if (!Covered)
      Missing.push_back(Step);
  }
  return Missing;
}

std::vector<uint64_t>
chet::detail::candidateChain(const CompilerOptions &Options) {
  return RnsCkksParams::candidateChain(65, Options.FirstPrimeBits,
                                       scalePrimeBits(Options.Scales));
}

std::vector<LayoutPolicy>
chet::detail::candidatePolicies(const CompilerOptions &Options) {
  if (!Options.SearchLayouts)
    return {Options.FixedPolicy};
  return {std::begin(kAllLayoutPolicies), std::end(kAllLayoutPolicies)};
}

chet::detail::PolicySizing
chet::detail::sizePolicy(const TensorCircuit &Circ,
                         const CompilerOptions &Options, LayoutPolicy Policy,
                         const std::vector<uint64_t> &ScaleCandidates) {
  PolicySizing Sizing;
  PolicyAnalysis &Info = Sizing.Info;
  Info.Policy = Policy;
  auto Fail = [&](ErrorCode Code, std::string Message) {
    Sizing.Violation = CircuitDiagnostic{Code, Policy, "", std::move(Message)};
    return Sizing;
  };

  // Hard ring-dimension ceiling: the encoder tops out at LogN = 17 and
  // the security table at LogN = 16; MaxLogN may be tighter still.
  int LogNCeil = std::min(Options.MaxLogN, 16);
  int &LogN = Info.LogN;
  LogN = minLogNForData(Circ);
  if (LogN > LogNCeil)
    return Fail(ErrorCode::LayoutMismatch,
                formatError("the padded input image needs LogN >= ", LogN,
                            " to fit one ciphertext, but the ring-dimension "
                            "bound is ",
                            LogNCeil));

  const OpNode &In = Circ.ops().front();
  Tensor3 Dummy(In.C, In.H, In.W);
  for (;;) {
    AnalysisConfig C1;
    C1.Scheme = Options.Scheme;
    C1.LogN = LogN;
    C1.ScalePrimeCandidates = ScaleCandidates;
    C1.SelectedRotationKeys = Options.SelectRotationKeys;
    AnalysisBackend B1(C1);
    double Need = 0;
    try {
      TensorLayout L = circuitInputLayout(Circ, Policy, B1.slotCount());
      auto Enc = encryptTensor(B1, Dummy, L, Options.Scales);
      auto Output = evaluateCircuit(B1, Circ, Enc, Options.Scales, Policy);
      Need = std::log2(Output.scale(B1)) + Options.OutputPrecisionBits;
    } catch (const ChetError &E) {
      // Structural misuse a kernel rejected (shape/layout) -- a
      // compile-time fact, since the analysis touches no real data.
      return Fail(E.code(), E.what());
    }

    double LogQ = 0, LogQP = 0;
    int ChainPrimes = 0;
    if (Options.Scheme == SchemeKind::RnsCkks) {
      int Consumed = Sizing.ConsumedPrimes = B1.maxConsumedPrimes();
      double ConsumedBits = 0;
      for (int I = 0; I < Consumed; ++I)
        ConsumedBits += std::log2(static_cast<double>(ScaleCandidates[I]));
      // Reserve enough unconsumed modulus (q_0 plus extra primes) to hold
      // the output at its scale plus the precision headroom.
      double Reserve = Options.FirstPrimeBits;
      int &Extra = Sizing.ExtraPrimes;
      for (Extra = 0; Reserve < Need; ++Extra) {
        size_t Index = static_cast<size_t>(Consumed) + Extra;
        if (Index >= ScaleCandidates.size())
          return Fail(ErrorCode::LevelExhausted,
                      formatError("the rescale chain consumes ", Consumed,
                                  " scaling primes and the output headroom "
                                  "needs ",
                                  Extra + 1,
                                  " more, but the global candidate modulus "
                                  "list holds only ",
                                  ScaleCandidates.size(), " primes"));
        Reserve += std::log2(static_cast<double>(ScaleCandidates[Index]));
      }
      LogQ = ConsumedBits + Reserve;
      LogQP = LogQ + Options.FirstPrimeBits;
      ChainPrimes = 1 + Consumed + Extra;
    } else {
      LogQ = std::ceil(B1.maxLogConsumed() + Need);
      LogQP = 2 * LogQ; // LogSpecial = LogQ, HEAAN style
    }

    int SecLogN = minLogNForLogQ(static_cast<int>(std::ceil(LogQP)),
                                 Options.Security);
    if (SecLogN == -1 || std::max(LogN, SecLogN) > LogNCeil) {
      Info.LogQ = LogQ;
      Info.LogQP = LogQP;
      return Fail(
          ErrorCode::SecurityBudgetExceeded,
          formatError(
              "the circuit needs logQP = ",
              static_cast<int>(std::ceil(LogQP)),
              " bits of modulus, but the security table allows at most ",
              maxLogQForSecurity(LogNCeil, Options.Security),
              " bits at the largest permissible ring dimension LogN = ",
              LogNCeil));
    }
    int NewLogN = std::max(LogN, SecLogN);
    if (NewLogN == LogN) {
      Info.LogQ = LogQ;
      Info.LogQP = LogQP;
      Info.ChainPrimes = ChainPrimes;
      Info.Counts = B1.takeCounts();
      Info.RotationSteps = B1.takeRotationSteps();
      return Sizing; // feasible: fixpoint reached with no violations
    }
    LogN = NewLogN; // slot-dependent choices change; re-analyze
  }
}

ValidationReport chet::validateCircuit(const TensorCircuit &Circ,
                                       const CompilerOptions &Options) {
  ValidationReport Report;
  if (Circ.ops().empty()) {
    Report.PoliciesChecked = 1;
    Report.Diagnostics.push_back({ErrorCode::InvalidArgument,
                                  Options.FixedPolicy, "",
                                  "circuit has no operations"});
    return Report;
  }

  std::vector<uint64_t> Chain = detail::candidateChain(Options);
  std::vector<uint64_t> ScaleCandidates(Chain.begin() + 1, Chain.end());
  for (LayoutPolicy Policy : detail::candidatePolicies(Options)) {
    ++Report.PoliciesChecked;
    detail::PolicySizing Sizing =
        detail::sizePolicy(Circ, Options, Policy, ScaleCandidates);
    if (Sizing.Violation)
      Report.Diagnostics.push_back(std::move(*Sizing.Violation));
    else
      ++Report.FeasiblePolicies;
  }
  return Report;
}
