//===- Audit.cpp - The post-compile audit pass ----------------------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Audit.h"

#include "core/Evaluate.h"
#include "math/UIntArith.h"
#include "support/Error.h"
#include "support/Prng.h"

#include <algorithm>
#include <cmath>
#include <map>

using namespace chet;

namespace {

/// A layer consuming at least this many levels of the modulus chain on
/// any single ciphertext (RNS: scaling primes; CKKS: the equivalent in
/// image-scale bits) earns a DepthHotspot note. This flags the degree-2
/// activations (scalar mul + squaring = 2 levels) while leaving
/// single-rescale linear layers silent.
constexpr int kDepthHotspotLevels = 2;

int severityRank(Severity S) {
  switch (S) {
  case Severity::Error:
    return 0;
  case Severity::Warning:
    return 1;
  case Severity::Note:
    return 2;
  }
  return 3;
}

std::string layerOf(const TensorCircuit &Circ, int NodeId) {
  if (NodeId >= 0 && NodeId < static_cast<int>(Circ.ops().size()))
    return Circ.label(NodeId);
  return "input packing";
}

/// Extracts the audit's abstract machine from a compiled artifact.
AuditConfig configFor(const TensorCircuit &Circ,
                      const CompiledCircuit &Compiled) {
  AuditConfig C;
  C.Rns = Compiled.Scheme == SchemeKind::RnsCkks;
  C.LogN = Compiled.LogN;
  if (Compiled.Rns) {
    // The backend rescales from the chain's tail, so the consumption
    // order the compiler's analysis (and the audit) sees is the tail
    // reversed.
    const auto &Chain = Compiled.Rns->ChainPrimes;
    C.ScalePrimeCandidates.assign(Chain.rbegin(),
                                  Chain.rend() - (Chain.empty() ? 0 : 1));
    C.ChainLen = static_cast<int>(Chain.size());
    C.StockPow2Keys = Compiled.Rns->StockPow2Keys;
    C.Noise = NoiseModel::create(Compiled.Scheme, Compiled.LogN, Chain,
                                 Compiled.Rns->SpecialPrimes, Compiled.LogQ);
  } else {
    C.LogQBudget = Compiled.LogQ;
    C.StockPow2Keys = Compiled.Big ? Compiled.Big->StockPow2Keys
                                   : Compiled.RotationKeys.empty();
    C.Noise = NoiseModel::create(Compiled.Scheme, Compiled.LogN, {}, {},
                                 Compiled.LogQ);
  }
  for (const RotationKeySpec &K : Compiled.RotationKeys)
    C.AvailableRotationSteps.insert(K.Step);
  const ScaleConfig &S = Compiled.Scales;
  C.MinScaleFloor = std::min(std::min(S.Image, S.Weight),
                             std::min(S.Scalar, S.Mask));
  C.WeightScale = S.Weight;
  C.MaskScale = S.Mask;
  C.NodeEnv = rangeEnvelopes(Circ, kInputAbs);
  return C;
}

/// Bytes of the evaluation keys makeRnsBackend/makeBigBackend generate
/// for \p Compiled with its selected keys at the levels \p Keys gives:
/// the public key, the top-level relinearization key, one Galois key per
/// selected step, and the stock power-of-two set (top level) when
/// enabled.
uint64_t predictedKeyBytes(const CompiledCircuit &Compiled,
                           const std::vector<RotationKeySpec> &Keys) {
  const uint64_t N = uint64_t(1) << Compiled.LogN;
  const int Slots = static_cast<int>(N / 2);
  bool Stock = Compiled.Rns ? Compiled.Rns->StockPow2Keys
                            : Compiled.Big && Compiled.Big->StockPow2Keys;
  const int Top = Compiled.Rns   ? Compiled.Rns->levels()
                  : Compiled.Big ? Compiled.Big->LogQ
                                 : 0;
  // Normalized step -> key level; a step generated twice keeps the higher.
  std::map<int, int> Levels;
  auto Add = [&](int Step, int Level) {
    int S = normalizeRotation(Step, Slots);
    if (S != 0)
      Levels[S] = std::max(Levels[S], Level);
  };
  for (const RotationKeySpec &K : Keys)
    Add(K.Step, K.Level);
  if (Stock)
    for (int S = 1; S < Slots; S <<= 1) {
      Add(S, Top);
      Add(Slots - S, Top);
    }
  if (Compiled.Rns) {
    // Per key and (digit, modulus) block: the N-word b half (4-byte words
    // modulo a prime below 2^30, 8-byte otherwise) and the seed its a
    // half regenerates from; per Galois key its NTT permutation. A key at
    // level l keeps digitsAt(l) digits of q_0..q_l and the special primes.
    // Without special primes no backend (and so no key) can exist.
    const RnsCkksParams &P = *Compiled.Rns;
    if (P.SpecialPrimes.empty())
      return 0;
    auto BlockBytes = [&](uint64_t Q) {
      return N * (isNarrowModulus(Q) ? sizeof(uint32_t) : sizeof(uint64_t)) +
             sizeof(Prng);
    };
    uint64_t SpecialBytes = 0;
    for (uint64_t Q : P.SpecialPrimes)
      SpecialBytes += BlockBytes(Q);
    auto KeyBytes = [&](int Level) {
      uint64_t Digit = SpecialBytes;
      for (int J = 0; J <= Level; ++J)
        Digit += BlockBytes(P.ChainPrimes[J]);
      return P.digitsAt(Level) * Digit;
    };
    uint64_t Bytes = KeyBytes(Top); // relinearization
    for (const auto &[Step, Level] : Levels)
      Bytes += KeyBytes(Level);
    return 2 * P.ChainPrimes.size() * N * sizeof(uint64_t) + Bytes +
           Levels.size() * N * sizeof(uint32_t);
  }
  if (Compiled.Big) {
    // Per key at LogQ k: two halves decomposed over the primes of the
    // worst-case product at k; the public key is two BigInt polynomials.
    const BigCkksParams &P = *Compiled.Big;
    auto Primes = [&](int LogQ) {
      return uint64_t(BigPolyRing::primesForBits(
          2 * LogQ + P.effectiveLogSpecial() + Compiled.LogN + 2));
    };
    uint64_t AllPrimes = Primes(Top); // relinearization
    for (const auto &[Step, Level] : Levels)
      AllPrimes += Primes(Level);
    return 2 * N * sizeof(BigInt) + 2 * AllPrimes * N * sizeof(uint64_t);
  }
  return 0;
}

/// Nodes whose value can reach the circuit output (reverse reachability
/// over the DAG; ops are topologically ordered).
std::vector<bool> liveNodes(const TensorCircuit &Circ) {
  const auto &Ops = Circ.ops();
  std::vector<bool> Live(Ops.size(), false);
  Live[Circ.outputId()] = true;
  for (int Id = static_cast<int>(Ops.size()) - 1; Id >= 0; --Id)
    if (Live[Id])
      for (int In : Ops[Id].Inputs)
        Live[In] = true;
  return Live;
}

uint64_t tensorBytes(const AuditBackend &Backend,
                     const CipherTensor<AuditBackend> &T) {
  uint64_t Bytes = 0;
  for (const auto &Ct : T.Cts)
    Bytes += Backend.ctBytes(Ct);
  return Bytes;
}

/// Appends the verifier's findings: the backend's deduplicated events,
/// dead nodes, and per-ciphertext depth hotspots, errors first.
void finishVerification(const TensorCircuit &Circ,
                        const CompiledCircuit &Compiled,
                        AuditBackend &Backend, VerificationReport &Report) {
  Backend.finishAudits();
  Report.LayerDepth = Backend.nodeStats();
  for (const AuditEvent &E : Backend.events()) {
    std::string Message = E.Message;
    if (E.Count > 1)
      Message += formatError(" (", E.Count, " occurrences)");
    Report.Diagnostics.push_back({E.Sev, E.Code, E.HisaOp, E.NodeId,
                                  layerOf(Circ, E.NodeId),
                                  std::move(Message)});
  }

  std::vector<bool> Live = liveNodes(Circ);
  for (const OpNode &Node : Circ.ops())
    if (!Live[Node.Id])
      Report.Diagnostics.push_back(
          {Severity::Warning, ErrorCode::DeadCiphertext, "", Node.Id,
           Circ.label(Node.Id),
           formatError("layer '", Circ.label(Node.Id),
                       "' is computed but its result never reaches the "
                       "circuit output; the FHE work is wasted")});

  // Measured per ciphertext (DeepestLevels), not summed across the many
  // ciphertexts a layer touches -- 16 parallel FC rows shedding one prime
  // each cost the chain one level, not sixteen.
  double ImageBits = std::log2(Compiled.Scales.Image);
  for (const AuditNodeStats &Row : Report.LayerDepth) {
    if (Row.NodeId < 0)
      continue;
    int Levels = Row.DeepestLevels;
    if (Row.DeepestLog > 0 && ImageBits > 0)
      Levels = static_cast<int>(Row.DeepestLog / ImageBits + 0.5);
    if (Levels < kDepthHotspotLevels)
      continue;
    Report.Diagnostics.push_back(
        {Severity::Note, ErrorCode::DepthHotspot, "", Row.NodeId, Row.Label,
         formatError("layer '", Row.Label, "' consumes ", Levels,
                     " levels of the modulus chain on its deepest "
                     "ciphertext (multiply-depth hotspot)")});
  }

  std::stable_sort(Report.Diagnostics.begin(), Report.Diagnostics.end(),
                   [](const VerifierDiagnostic &A,
                      const VerifierDiagnostic &B) {
                     return severityRank(A.Sev) < severityRank(B.Sev);
                   });
}

} // namespace

AuditReport chet::auditCircuit(const TensorCircuit &Circ,
                               const CompiledCircuit &Compiled) {
  CHET_CHECK(!Circ.ops().empty(), InvalidArgument,
             "cannot analyze an empty circuit");
  CHET_CHECK(Compiled.LogN >= 2 && Compiled.LogN <= 17, InvalidArgument,
             "compiled artifact carries an unusable ring dimension LogN = ",
             Compiled.LogN);

  AuditReport R;
  R.Verification.Policy = R.Noise.Policy = R.Footprint.Policy =
      Compiled.Policy;
  AuditBackend Backend(configFor(Circ, Compiled));
  FootprintReport &F = R.Footprint;

  // One footprint row per node, from the stats row beginNode opened.
  auto pushRow = [&](uint64_t Live) {
    const AuditNodeStats &S = Backend.nodeStats().back();
    FootprintNodeReport Row{S.NodeId,
                            S.Label,
                            Live,
                            S.ScratchPeakBytes,
                            S.TransientPeakBytes,
                            Live + S.ScratchPeakBytes + S.TransientPeakBytes};
    F.PerNode.push_back(Row);
    if (Row.PeakBytes > F.PeakBytes) {
      F.PeakBytes = Row.PeakBytes;
      F.PeakLiveCtBytes = Row.LiveCtBytes;
      F.PeakScratchBytes = Row.ScratchBytes;
      F.PeakNodeId = Row.NodeId;
      F.PeakLabel = Row.Label;
    }
  };

  const auto &Ops = Circ.ops();
  try {
    Tensor3 Dummy(Ops.front().C, Ops.front().H, Ops.front().W);
    TensorLayout L =
        circuitInputLayout(Circ, Compiled.Policy, Backend.slotCount());
    auto Enc = encryptTensor(Backend, Dummy, L, Compiled.Scales);
    F.InputBytes = tensorBytes(Backend, Enc);
    pushRow(F.InputBytes); // row 0: input packing

    std::vector<bool> NeedsMask =
        detail::computeMaskNeeds(Circ, Compiled.Policy);
    std::vector<std::optional<CipherTensor<AuditBackend>>> Vals(Ops.size());
    std::vector<int> LastUse(Ops.size(), -1);
    for (const OpNode &Node : Ops)
      for (int InId : Node.Inputs)
        LastUse[InId] = std::max(LastUse[InId], Node.Id);

    uint64_t Live = F.InputBytes; // the value table, kept incrementally
    bool Finished = false;
    for (const OpNode &Node : Ops) {
      if (Node.Kind == OpKind::Output) {
        Backend.beginNode(Node.Id, Node.Label);
        const auto &Out = *Vals[Node.Inputs[0]];
        F.OutputBytes = tensorBytes(Backend, Out);
        pushRow(F.InputBytes + F.OutputBytes);
        for (const auto &Ct : Out.Cts) {
          double Err = Ct.QuantErr + Ct.NoiseErr;
          R.Noise.MessageBound = std::max(R.Noise.MessageBound, Ct.Abs);
          if (Err > R.Noise.ErrorBound) {
            R.Noise.ErrorBound = Err;
            R.Noise.QuantBound = Ct.QuantErr;
            R.Noise.NoiseBound = Ct.NoiseErr;
          }
        }
        Finished = true;
        break;
      }
      detail::evaluateNode(Backend, Node, Vals, NeedsMask, Enc,
                           Compiled.Scales, Compiled.Policy);
      // Live bytes are measured *before* dead operands of the node are
      // released: they are held across the node's kernels.
      Live += tensorBytes(Backend, *Vals[Node.Id]);
      pushRow(Live);
      for (int J = 0; J <= Node.Id; ++J)
        if (Vals[J] && LastUse[J] <= Node.Id) {
          Live -= tensorBytes(Backend, *Vals[J]);
          Vals[J].reset();
        }
    }
    if (!Finished)
      throw InvalidArgumentError("circuit has no output node");
  } catch (const ChetError &E) {
    // Structural misuse a kernel rejects outright (layout/shape); the
    // abstract interpretation cannot continue past it.
    R.Verification.Diagnostics.push_back(
        {Severity::Error, E.code(), "", -1, "evaluation", E.what()});
    R.Failure = std::current_exception();
  }

  R.RotationKeys = Compiled.RotationKeys;
  for (RotationKeySpec &K : R.RotationKeys) {
    std::optional<int> Switched = Backend.keyLevel(K.Step);
    if (!Switched)
      continue;
    if (K.Level < *Switched)
      R.Verification.Diagnostics.push_back(
          {Severity::Error, ErrorCode::MissingRotationKey, "", -1,
           "rotation keys",
           formatError("the Galois key for rotation by ", K.Step,
                       " is generated for level ", K.Level,
                       " but a rotation switches it at level ",
                       *Switched)});
    K.Level = std::min(K.Level, *Switched);
  }
  F.KeyBytes = predictedKeyBytes(Compiled, R.RotationKeys);
  finishVerification(Circ, Compiled, Backend, R.Verification);
  for (const AuditNodeStats &S : Backend.nodeStats())
    R.Noise.PerNode.push_back(
        {S.NodeId, S.Label, S.PeakAbs, S.PeakErr, S.NoiseIntroduced});
  return R;
}
