//===- AuditBackend.h - Post-compile audit HISA backend ---------*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The post-compile audit's interpretation of the HISA: one value-agnostic
/// backend whose ciphertext is the shared level/scale state (LevelScale.h)
/// plus the facts of three analyses, all updated by every instruction in
/// a single evaluation of the compiled circuit (core/Audit.h):
///
///   verifier   multiply depth, provenance (the node whose kernel last
///              produced the value), the rotation event the value still
///              is, a per-node depth window, and per Galois key the
///              highest level a rotation switches it at (the level key
///              generation trims it to). Violations -- scale
///              mismatches, chain exhaustion, unservable rotations -- are
///              *recorded* instead of thrown, and interpretation continues
///              on a repaired state, so one pass reports every violation.
///   range/noise  interval arithmetic in message space: Abs bounds
///              |true slot value|, QuantErr the fixed-point rounding error
///              and NoiseErr the RLWE noise (fresh encryption, key
///              switches, rescale rounding), both amplified through
///              multiplications. The decrypted value differs from the
///              exact computation by at most QuantErr + NoiseErr.
///   footprint  nothing per ciphertext: bytes are sized from the level
///              state (2*K*N words at K active RNS limbs; fixed-capacity
///              BigInts for big-modulus CKKS), and each instruction's
///              pooled scratch is modeled per instruction class.
///
/// Every instruction runs on the level/scale core the compiler's
/// AnalysisBackend uses, so the audit walks exactly the chain the compiler
/// sized and never false-positives on an artifact it accepted.
///
/// Taming interval blow-up. A replicate-sum doubles a naive interval
/// log2(slots) times and a convolution adds one term per tap, so the
/// range facet clamps every value bound to the current node's *cap*
/// (RangeEnvelope::CapAbs, the L1-norm transfer function of the node's
/// actual weights -- a sound bound on every intermediate slot value its
/// kernel materializes). Error terms are never clamped.
///
/// Value-agnosticism. encode() ignores slot contents, so plaintext
/// magnitudes come from the side: the driver supplies per-node weight and
/// bias magnitudes, and encodes are classified by scale (mask vs weight
/// role); when roles collide on one scale the maximum is used.
///
//===----------------------------------------------------------------------===//

#ifndef CHET_HISA_AUDITBACKEND_H
#define CHET_HISA_AUDITBACKEND_H

#include "core/CostModel.h"
#include "hisa/Hisa.h"
#include "hisa/LevelScale.h"
#include "math/BigInt.h"
#include "support/Error.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace chet {

/// Bound on |input slot value| (the zoo's images live in [-0.5, 0.5]).
inline constexpr double kInputAbs = 0.5;

/// Per-node semantic envelope, computed from the tensor circuit's actual
/// weights (rangeEnvelopes in core/NoiseAnalysis.h). All magnitudes are
/// message-space bounds.
struct RangeEnvelope {
  /// Sound bound on the node's output slot values.
  double OutAbs = std::numeric_limits<double>::infinity();
  /// Sound bound on *every* intermediate slot value the node's kernel
  /// materializes (partial sums, rotated copies, masked extracts).
  double CapAbs = std::numeric_limits<double>::infinity();
  /// Largest |entry| over weight plaintexts the node encodes.
  double WeightAbs = 0;
  /// Largest |bias| the node encodes.
  double BiasAbs = 0;
};

/// Abstract machine the audit interprets against, extracted from a
/// CompiledCircuit (core/Audit.cpp) or hand-built by tests.
struct AuditConfig {
  /// RNS-CKKS (true) or big-modulus CKKS (false) rescale semantics.
  bool Rns = true;
  int LogN = 13;
  /// RNS: scaling moduli in consumption order (the compiled chain's tail
  /// reversed -- the order the compiler's analysis consumed them in).
  std::vector<uint64_t> ScalePrimeCandidates;
  /// RNS: total primes in the compiled chain (a fresh ciphertext carries
  /// one limb per prime).
  int ChainLen = 1;
  /// CKKS: total log2 rescale budget, a fresh ciphertext's Ct::LogQ; 0
  /// disables the check.
  double LogQBudget = 0;
  /// Normalized left-rotation steps with dedicated Galois keys.
  std::set<int> AvailableRotationSteps;
  /// The backend holds the stock power-of-two key set.
  bool StockPow2Keys = false;
  /// Smallest scale a rescale may land on; 0 disables the warning.
  double MinScaleFloor = 0;
  /// Noise constants for this scheme instance.
  NoiseModel Noise;
  /// ScaleConfig roles used to classify value-agnostic encodes; a zero
  /// scale disables that role.
  double WeightScale = 0;
  double MaskScale = 0;
  /// Per-node envelopes by node id. A node without one is unbounded
  /// (pure interval propagation), the mode unit tests drive.
  std::map<int, RangeEnvelope> NodeEnv;
};

/// One deduplicated verifier finding. Count accumulates repeats of the
/// same (code, node, instruction) triple; Message keeps the first.
struct AuditEvent {
  Severity Sev = Severity::Error;
  ErrorCode Code = ErrorCode::InvalidArgument;
  const char *HisaOp = "";
  int NodeId = -1; ///< Tensor-circuit node; -1 = input packing.
  std::string Message;
  uint64_t Count = 1;
};

/// Per-node activity of all three facets, in evaluation order. Row 0 is
/// the synthetic "input packing" node covering instructions issued before
/// the first beginNode (encryptTensor runs outside the evaluator loop).
struct AuditNodeStats {
  int NodeId = -1;
  std::string Label;
  // Verifier facet.
  uint64_t CtMuls = 0;
  uint64_t PtMuls = 0;
  uint64_t ScalarMuls = 0;
  uint64_t Rotations = 0;
  int LevelsConsumed = 0; ///< RNS: primes shed in this node, summed over
                          ///< every ciphertext it touches.
  double LogConsumed = 0; ///< CKKS: modulus bits shed in this node.
  int MaxDepth = 0;       ///< Largest ct-ct multiply depth reached.
  int DeepestLevels = 0;  ///< RNS: most primes any single ciphertext shed
                          ///< inside this node (its depth cost).
  double DeepestLog = 0;  ///< CKKS: same, in modulus bits.
  // Range/noise facet.
  double PeakAbs = 0;         ///< Largest value bound produced here.
  double PeakErr = 0;         ///< Largest QuantErr + NoiseErr produced.
  double NoiseIntroduced = 0; ///< Fresh noise terms added here.
  // Footprint facet.
  uint64_t ScratchPeakBytes = 0;   ///< Worst-instruction pooled scratch,
                                   ///< times lanes and safety factor.
  uint64_t TransientPeakBytes = 0; ///< Worst-instruction transient copies.
};

/// HISA implementation over audit metadata; see the file comment.
class AuditBackend {
public:
  struct Ct : LevelScale {
    // Verifier facet.
    int MulDepth = 0;      ///< Ciphertext-ciphertext multiply depth.
    int OriginNode = -1;   ///< Node whose kernel produced this value.
    int RotEvent = -1;     ///< Rotation whose output this still is.
    int EntryNode = -2;    ///< Node whose depth window this value is in.
    int EntryPrimes = 0;   ///< ConsumedPrimes on entering EntryNode.
    double EntryLog = 0.0; ///< LogConsumed on entering EntryNode.
    // Range/noise facet.
    double Abs = 0;      ///< Bound on |true slot value|.
    double QuantErr = 0; ///< Fixed-point rounding error bound.
    double NoiseErr = 0; ///< RLWE noise error bound.
  };
  struct Pt {
    double Scale = 1.0;
    double Abs = 0;   ///< Bound on |plaintext slot value|.
    double Quant = 0; ///< Encode rounding error bound.
  };

  explicit AuditBackend(AuditConfig ConfigIn)
      : Config(std::move(ConfigIn)),
        Core(Config.Rns, Config.LogN, Config.ScalePrimeCandidates),
        Slots(Core.slotCount()), EncodeQuant(Config.Noise.encodeQuant()),
        FreshNoise(Config.Noise.freshNoise()),
        RescaleNoise(Config.Noise.rescaleNoise()),
        KeySwitchNoise(Config.Noise.keySwitchNoise()), KeyFor(Slots, false),
        KeyLevel(Slots, kNoKeyLevel), Env(&envFor(-1)) {
    Stats.push_back({-1, "input packing"});
    for (int S : Config.AvailableRotationSteps)
      if (S >= 0 && static_cast<size_t>(S) < Slots)
        KeyFor[static_cast<size_t>(S)] = true;
    if (Config.StockPow2Keys)
      for (size_t Bit = 1; Bit < Slots; Bit <<= 1)
        KeyFor[Bit] = KeyFor[Slots - Bit] = true;
  }
  /// Env points into Config; a copy would alias the source's envelopes.
  AuditBackend(const AuditBackend &) = delete;
  AuditBackend &operator=(const AuditBackend &) = delete;

  void beginNode(int NodeId, const std::string &Label) {
    CurrentNode = NodeId;
    Env = &envFor(NodeId);
    Stats.push_back({NodeId, Label});
  }

  //===--------------------------------------------------------------===//
  // HISA instructions.
  //===--------------------------------------------------------------===//

  size_t slotCount() const { return Slots; }

  Pt encode(const std::vector<double> &Values, double Scale) {
    noteOp(scratchWords(kEncode, activeLimbs(0)), 0);
    return Pt{Scale, plainAbsFor(Scale), EncodeQuant / Scale};
  }
  std::vector<double> decode(const Pt &P) const { return {}; }
  Ct encrypt(const Pt &P) {
    Ct C;
    C.Scale = P.Scale;
    C.OriginNode = CurrentNode;
    C.Abs = P.Abs;
    C.QuantErr = P.Quant;
    C.NoiseErr = introduce(FreshNoise / P.Scale);
    note(C);
    noteOp(scratchWords(kEncrypt, activeLimbs(0)), ctBytes(C));
    return C;
  }
  Pt decrypt(const Ct &C) {
    useValue(C);
    noteOp(scratchWords(kEncrypt, activeLimbs(C.ConsumedPrimes)), 0);
    return Pt{C.Scale, C.Abs, C.QuantErr + C.NoiseErr};
  }
  /// Copies are provenance-transparent: the copy still *is* the source
  /// rotation's output, and copying alone is not a use of it.
  Ct copy(const Ct &C) {
    noteOp(0, ctBytes(C));
    return C;
  }
  void freeCt(Ct &C) const {}

  void rotLeftAssign(Ct &C, int Steps) {
    int S = normalizeRotation(Steps, Slots);
    if (S == 0)
      return; // complete no-op, exactly as the real backends treat it
    int Hops = keySwitchesFor(C, S, "rotLeftAssign", "rotation by ");
    noteOp(scratchWords(kKeySwitch, activeLimbs(C.ConsumedPrimes)),
           2 * ctBytes(C));
    rotated(C, C, S, Hops);
  }
  void rotRightAssign(Ct &C, int Steps) { rotLeftAssign(C, -Steps); }

  /// Rotation fan-out: every amount is checked for key coverage, counted
  /// as its own rotation event and charged its own key-switch noise, so a
  /// hoisted batch over F amounts looks to the verifier and the noise
  /// facet exactly like F rotations of the shared source. The footprint
  /// facet sees one shared decomposition with all F results live at once
  /// -- the dominant transient of rotation-heavy kernels.
  std::vector<Ct> rotLeftMany(const Ct &C, const std::vector<int> &Steps) {
    noteOp(scratchWords(kKeySwitch, activeLimbs(C.ConsumedPrimes)),
           (Steps.size() + 1) * ctBytes(C));
    std::vector<Ct> Out(Steps.size(), C);
    for (size_t I = 0; I < Steps.size(); ++I) {
      int S = normalizeRotation(Steps[I], Slots);
      if (S != 0)
        rotated(C, Out[I], S,
                keySwitchesFor(C, S, "rotLeftMany", "hoisted rotation by "));
    }
    return Out;
  }

  void addAssign(Ct &C, const Ct &Other) { addCt("addAssign", C, Other); }
  void subAssign(Ct &C, const Ct &Other) { addCt("subAssign", C, Other); }
  void addPlainAssign(Ct &C, const Pt &P) { addPt("addPlainAssign", C, P); }
  void subPlainAssign(Ct &C, const Pt &P) { addPt("subPlainAssign", C, P); }
  void addScalarAssign(Ct &C, double X) {
    consume(C);
    // The constant polynomial has one rounded coefficient; its slot
    // error is exactly |round(X*Scale) - X*Scale| / Scale <= 0.5/Scale.
    C.Abs = clamp(C.Abs + std::fabs(X));
    C.QuantErr += 0.5 / C.Scale;
    note(C);
    noteOp(scratchWords(kLight, activeLimbs(C.ConsumedPrimes)), ctBytes(C));
  }
  void subScalarAssign(Ct &C, double X) { addScalarAssign(C, X); }

  void mulAssign(Ct &C, const Ct &Other) {
    int Depth = std::max(C.MulDepth, Other.MulDepth) + 1;
    // err(a*b) = |a|*e_b + |b|*e_a + e_a*e_b; the cross and quadratic
    // terms land in NoiseErr (attribution is cosmetic, the sum is sound).
    double Ea = C.QuantErr + C.NoiseErr;
    double Eb = Other.QuantErr + Other.NoiseErr;
    double Quant = C.Abs * Other.QuantErr + Other.Abs * C.QuantErr;
    double Noise = C.Abs * Other.NoiseErr + Other.Abs * C.NoiseErr + Ea * Eb;
    double Abs = clamp(C.Abs * Other.Abs);
    useValue(Other);
    consume(C);
    LevelScaleCore::align(C, Other);
    C.MulDepth = Depth;
    C.Scale *= Other.Scale;
    AuditNodeStats &S = Stats.back();
    ++S.CtMuls;
    S.MaxDepth = std::max(S.MaxDepth, Depth);
    C.Abs = Abs;
    C.QuantErr = Quant;
    // Relinearization is a key switch over s^2 at the product scale.
    C.NoiseErr = Noise + introduce(KeySwitchNoise / C.Scale);
    note(C);
    noteOp(scratchWords(kKeySwitch, activeLimbs(C.ConsumedPrimes)),
           3 * ctBytes(C));
  }
  void mulPlainAssign(Ct &C, const Pt &P) {
    scaleBy(C, P.Abs, P.Quant, P.Scale);
    ++Stats.back().PtMuls;
  }
  void mulScalarAssign(Ct &C, double X, uint64_t Scale) {
    // One rounded coefficient, as in addScalarAssign.
    scaleBy(C, std::fabs(X), 0.5 / static_cast<double>(Scale),
            static_cast<double>(Scale));
    ++Stats.back().ScalarMuls;
  }

  uint64_t maxRescale(const Ct &C, uint64_t UpperBound) {
    // A bound >= 2 is a genuine rescale request (rescaleToFloor returns
    // early below that); answering it with an exhausted candidate list
    // means the compiled chain has no level left for this multiply.
    if (Core.rns() && UpperBound >= 2 && Core.exhausted(C))
      record(Severity::Error, ErrorCode::LevelExhausted, "maxRescale",
             formatError("rescale requested at scale ", C.Scale,
                         " but the modulus chain is exhausted (all ",
                         Core.candidates().size(),
                         " scaling primes consumed)"));
    return Core.maxRescale(C, UpperBound);
  }

  void rescaleAssign(Ct &C, uint64_t Divisor) {
    if (Divisor <= 1)
      return;
    consume(C);
    // Open this value's per-node depth window on its first rescale in the
    // current node: the window's growth is the node's depth cost for this
    // one ciphertext, as opposed to LevelsConsumed/LogConsumed which sum
    // over every ciphertext the node touches.
    if (C.EntryNode != CurrentNode) {
      C.EntryNode = CurrentNode;
      C.EntryPrimes = C.ConsumedPrimes;
      C.EntryLog = C.LogConsumed;
    }
    AuditNodeStats &S = Stats.back();
    if (!Core.rns()) {
      S.LogConsumed += Core.shedBits(C, Divisor);
      S.DeepestLog = std::max(S.DeepestLog, C.LogConsumed - C.EntryLog);
      C.NoiseErr += introduce(RescaleNoise / C.Scale);
      if (Config.LogQBudget > 0 && C.LogConsumed > Config.LogQBudget)
        record(Severity::Error, ErrorCode::LevelExhausted, "rescaleAssign",
               formatError("rescale chain consumed ", C.LogConsumed,
                           " bits of modulus, exceeding the compiled logQ "
                           "budget of ",
                           Config.LogQBudget, " bits"));
    } else {
      // Exhaustion was already recorded by maxRescale; a divisor that did
      // not come from it has nothing sane to shed.
      while (Divisor > 1 && Core.shedPrime(C, Divisor)) {
        ++S.LevelsConsumed;
        S.DeepestLevels =
            std::max(S.DeepestLevels, C.ConsumedPrimes - C.EntryPrimes);
        // Rounding noise lands at the post-division scale.
        C.NoiseErr += introduce(RescaleNoise / C.Scale);
      }
    }
    if (Config.MinScaleFloor > 0 &&
        C.Scale < Config.MinScaleFloor * (1.0 - kScaleTolerance))
      record(Severity::Warning, ErrorCode::ScaleMismatch, "rescaleAssign",
             formatError("rescale left the scale at ", C.Scale,
                         ", below the minimum scale floor ",
                         Config.MinScaleFloor,
                         "; downstream additions lose precision"));
    note(C);
    noteOp(scratchWords(kMulPlain, activeLimbs(C.ConsumedPrimes)),
           ctBytes(C));
  }

  double scaleOf(const Ct &C) const { return C.Scale; }

  //===--------------------------------------------------------------===//
  // Results.
  //===--------------------------------------------------------------===//

  /// Worst-case bytes of one ciphertext in this state.
  uint64_t ctBytes(const Ct &C) const {
    if (!Core.rns())
      // Fixed-capacity coefficients: size is level-independent.
      return 2 * static_cast<uint64_t>(2 * Slots) * sizeof(BigInt);
    return 2 * activeLimbs(C.ConsumedPrimes) *
           static_cast<uint64_t>(2 * Slots) * sizeof(uint64_t);
  }

  /// Runs the redundant-rotation scan and appends its findings to
  /// events(). Call once, after the evaluation finished.
  void finishAudits() {
    for (const RotationEvent &E : RotEvents) {
      if (E.Source < 0)
        continue;
      const RotationEvent &Src = RotEvents[static_cast<size_t>(E.Source)];
      if (Src.Uses != 1)
        continue; // the intermediate has other consumers; not fusible
      int64_t Fused = (static_cast<int64_t>(Src.Steps) + E.Steps) %
                      static_cast<int64_t>(Slots);
      recordAt(Severity::Warning, ErrorCode::RedundantRotation,
               "rotLeftAssign", E.NodeId,
               formatError("rotation by ", Src.Steps,
                           " feeds only another rotation by ", E.Steps,
                           "; fusing them into a single rotation by ", Fused,
                           " saves one key switch"));
    }
  }

  const std::vector<AuditEvent> &events() const { return Events; }
  const std::vector<AuditNodeStats> &nodeStats() const { return Stats; }

  /// The highest level a rotation switched the Galois key of normalized
  /// step \p Step at, in the real backend's unit (RNS Ct::Level, big-CKKS
  /// Ct::LogQ); nullopt when no rotation switched it.
  std::optional<int> keyLevel(int Step) const {
    if (Step < 0 || static_cast<size_t>(Step) >= Slots ||
        KeyLevel[static_cast<size_t>(Step)] == kNoKeyLevel)
      return std::nullopt;
    return KeyLevel[static_cast<size_t>(Step)];
  }

private:
  /// One executed rotation, for the redundant-rotation audit: Uses counts
  /// how many instructions read the rotated value before anything
  /// overwrote it.
  struct RotationEvent {
    int Steps = 0;
    int Source = -1; ///< Rotation whose un-consumed output we rotated.
    int Uses = 0;
    int NodeId = -1;
  };

  /// Instruction classes of the pooled-scratch model.
  enum OpClass { kLight, kMulPlain, kKeySwitch, kEncode, kEncrypt };
  /// Worst-case concurrent kernel lanes modeled: each holds its own
  /// pooled scratch.
  static constexpr uint64_t kLanes = 8;
  /// Safety factor 3/2: absorbs pool-bucket rounding (powers of two) and
  /// minor allocations the per-class model does not itemize.
  static constexpr uint64_t kScratchSafetyNum = 3, kScratchSafetyDen = 2;
  /// KeyLevel entry of a step no rotation switched.
  static constexpr int kNoKeyLevel = std::numeric_limits<int>::min();

  const RangeEnvelope &envFor(int Node) const {
    static const RangeEnvelope Unbounded;
    auto It = Config.NodeEnv.find(Node);
    return It == Config.NodeEnv.end() ? Unbounded : It->second;
  }

  //===--- Verifier facet ---------------------------------------------===//

  void useValue(const Ct &C) {
    if (C.RotEvent >= 0)
      ++RotEvents[static_cast<size_t>(C.RotEvent)].Uses;
  }

  /// Common head of every value-mutating instruction: the old value is
  /// consumed, the result is no rotation output, and it originates here.
  void consume(Ct &C) {
    useValue(C);
    C.RotEvent = -1;
    C.OriginNode = CurrentNode;
  }

  /// \p C's level in the real backend's unit.
  int backendLevel(const Ct &C) const {
    if (Core.rns())
      return std::max(0, Config.ChainLen - 1 - C.ConsumedPrimes);
    return static_cast<int>(Config.LogQBudget) -
           static_cast<int>(std::lround(C.LogConsumed));
  }

  /// Notes that the Galois key of step \p S switches \p C.
  void keySwitchedAt(int S, const Ct &C) {
    int &Level = KeyLevel[static_cast<size_t>(S)];
    Level = std::max(Level, backendLevel(C));
  }

  /// Key switches the real backends spend on a rotation of \p C by
  /// normalized \p S: one with a dedicated key, else one per power-of-two
  /// hop. Records a MissingRotationKey error when some hop has no key
  /// either.
  int keySwitchesFor(const Ct &C, int S, const char *Op, const char *What) {
    if (KeyFor[static_cast<size_t>(S)]) {
      keySwitchedAt(S, C);
      return 1;
    }
    bool Servable = true;
    int Hops = forEachRotationHop(S, Slots, [&](int Hop) {
      bool Keyed = KeyFor[static_cast<size_t>(Hop)];
      if (Keyed)
        keySwitchedAt(Hop, C);
      Servable = Servable && Keyed;
    });
    if (!Servable)
      record(Severity::Error, ErrorCode::MissingRotationKey, Op,
             formatError(What, S,
                         " slots has no Galois key in the selected set ",
                         describeRotationSteps(Config.AvailableRotationSteps),
                         " and no power-of-two decomposition covers it"));
    return Hops;
  }

  /// Verifier and noise effects of rotating \p Src by \p S into \p Dst
  /// (which may alias it) with \p Hops key switches.
  void rotated(const Ct &Src, Ct &Dst, int S, int Hops) {
    int Source = Src.RotEvent;
    useValue(Src);
    RotEvents.push_back({S, Source, 0, CurrentNode});
    Dst.RotEvent = static_cast<int>(RotEvents.size()) - 1;
    Dst.OriginNode = CurrentNode;
    ++Stats.back().Rotations;
    Dst.NoiseErr +=
        introduce(Hops * KeySwitchNoise / Dst.Scale);
    note(Dst);
  }

  /// \p OtherOrigin: a node id, or -2 for a plaintext operand.
  void checkAdditionScales(const char *Op, const Ct &C, double OtherScale,
                           int OtherOrigin) {
    if (scalesMatch(C.Scale, OtherScale))
      return;
    std::string OtherDesc =
        OtherOrigin == -2 ? std::string("encoded plaintext")
                          : "value from " + originName(OtherOrigin);
    record(Severity::Error, ErrorCode::ScaleMismatch, Op,
           formatError("operands carry mismatched scales: ", C.Scale,
                       " (value from ", originName(C.OriginNode), ") vs ",
                       OtherScale, " (", OtherDesc, ")"));
  }

  std::string originName(int Node) const {
    if (Node < 0)
      return "input packing";
    for (const AuditNodeStats &S : Stats)
      if (S.NodeId == Node)
        return "layer '" + S.Label + "'";
    return "node #" + std::to_string(Node);
  }

  void record(Severity Sev, ErrorCode Code, const char *Op,
              std::string Message) {
    recordAt(Sev, Code, Op, CurrentNode, std::move(Message));
  }

  /// Record-time dedup: repeats of (code, node, instruction) bump a
  /// counter instead of flooding the report -- one conv layer can trip
  /// the same check hundreds of times.
  void recordAt(Severity Sev, ErrorCode Code, const char *Op, int Node,
                std::string Message) {
    auto Key = std::make_tuple(static_cast<int>(Code), Node, Op);
    auto It = EventIndex.find(Key);
    if (It != EventIndex.end()) {
      ++Events[It->second].Count;
      return;
    }
    EventIndex.emplace(Key, Events.size());
    Events.push_back({Sev, Code, Op, Node, std::move(Message), 1});
  }

  //===--- Range/noise facet ------------------------------------------===//

  /// Clamps a naive interval bound to the current node's cap.
  double clamp(double Abs) const {
    return Abs < Env->CapAbs ? Abs : Env->CapAbs;
  }

  bool matchesRole(double Scale, double Role) const {
    return Role > 0 && scalesMatch(Scale, Role);
  }

  /// Magnitude of a value-agnostic encode, classified by its scale.
  double plainAbsFor(double Scale) const {
    // Bias vectors encode at whatever scale the ciphertext reached, so
    // the data role matches unconditionally.
    double Abs = CurrentNode < 0 ? kInputAbs : Env->BiasAbs;
    if (matchesRole(Scale, Config.WeightScale))
      Abs = std::max(Abs, Env->WeightAbs);
    if (matchesRole(Scale, Config.MaskScale))
      Abs = std::max(Abs, 1.0);
    return Abs;
  }

  /// Records a freshly introduced noise term against the current node
  /// and returns it, so call sites can add it in one expression.
  double introduce(double Term) {
    Stats.back().NoiseIntroduced += Term;
    return Term;
  }

  /// Folds a result state into the current node's peaks.
  void note(const Ct &C) {
    AuditNodeStats &S = Stats.back();
    S.PeakAbs = std::max(S.PeakAbs, C.Abs);
    S.PeakErr = std::max(S.PeakErr, C.QuantErr + C.NoiseErr);
  }

  //===--- Shared instruction bodies ----------------------------------===//

  void addCt(const char *Op, Ct &C, const Ct &Other) {
    checkAdditionScales(Op, C, Other.Scale, Other.OriginNode);
    useValue(Other);
    consume(C);
    LevelScaleCore::align(C, Other);
    C.MulDepth = std::max(C.MulDepth, Other.MulDepth);
    C.Abs = clamp(C.Abs + Other.Abs);
    C.QuantErr += Other.QuantErr;
    C.NoiseErr += Other.NoiseErr;
    note(C);
    noteOp(scratchWords(kLight, activeLimbs(C.ConsumedPrimes)), ctBytes(C));
  }

  void addPt(const char *Op, Ct &C, const Pt &P) {
    checkAdditionScales(Op, C, P.Scale, -2);
    consume(C);
    C.Abs = clamp(C.Abs + P.Abs);
    C.QuantErr += P.Quant;
    note(C);
    noteOp(scratchWords(kLight, activeLimbs(C.ConsumedPrimes)), ctBytes(C));
  }

  /// Multiplication by a plaintext or scalar of magnitude \p Abs with
  /// rounding error \p Quant, encoded at \p Scale.
  void scaleBy(Ct &C, double Abs, double Quant, double Scale) {
    consume(C);
    double Gain = Abs + Quant;
    C.QuantErr = C.QuantErr * Gain + C.Abs * Quant;
    C.NoiseErr = C.NoiseErr * Gain;
    C.Abs = clamp(C.Abs * Abs);
    C.Scale *= Scale;
    note(C);
    noteOp(scratchWords(kMulPlain, activeLimbs(C.ConsumedPrimes)),
           ctBytes(C));
  }

  //===--- Footprint facet --------------------------------------------===//

  /// Active limbs per ciphertext component at this consumption depth.
  /// The big-modulus scheme stages through an RNS basis wide enough for
  /// its full modulus plus key-switch headroom; approximate that basis
  /// from sizeof(BigInt) capacity (generous by construction).
  uint64_t activeLimbs(int ConsumedPrimes) const {
    if (!Core.rns())
      return static_cast<uint64_t>(BigInt::MaxLimbs) / 4;
    return static_cast<uint64_t>(
        std::max(1, Config.ChainLen - ConsumedPrimes));
  }

  /// Worst-case pooled scratch of one instruction, in words. K is the
  /// active limb count. Key switching decomposes into up to K digits of
  /// K+1 limbs each (quadratic); the other classes allocate a bounded
  /// number of limb-vectors.
  uint64_t scratchWords(OpClass Class, uint64_t K) const {
    uint64_t N = 2 * Slots;
    switch (Class) {
    case kLight:
      return (K + 2) * N;
    case kMulPlain:
      return (2 * K + 6) * N;
    case kKeySwitch:
      return ((K + 2) * (K + 2) * 2 + 16) * N;
    case kEncode:
      return (K + 8) * N;
    case kEncrypt:
      return (2 * K + 8) * N;
    }
    return 8 * N;
  }

  /// Folds one instruction into the current node's footprint peaks.
  void noteOp(uint64_t ScratchWords, uint64_t TransientBytes) {
    AuditNodeStats &S = Stats.back();
    uint64_t Scaled = ScratchWords * sizeof(uint64_t) * kLanes *
                      kScratchSafetyNum / kScratchSafetyDen;
    S.ScratchPeakBytes = std::max(S.ScratchPeakBytes, Scaled);
    S.TransientPeakBytes = std::max(S.TransientPeakBytes, TransientBytes);
  }

  AuditConfig Config;
  LevelScaleCore Core;
  size_t Slots;
  /// NoiseModel terms, evaluated once: each costs square roots.
  double EncodeQuant, FreshNoise, RescaleNoise, KeySwitchNoise;
  /// KeyFor[S]: a Galois key serves the normalized step S directly.
  std::vector<bool> KeyFor;
  /// KeyLevel[S]: see keyLevel(); kNoKeyLevel until a rotation switches
  /// the key of step S.
  std::vector<int> KeyLevel;
  int CurrentNode = -1;
  const RangeEnvelope *Env;
  std::vector<AuditNodeStats> Stats;
  std::vector<AuditEvent> Events;
  std::map<std::tuple<int, int, const char *>, size_t> EventIndex;
  std::vector<RotationEvent> RotEvents;
};

/// The audit's abstract domain ignores slot contents; skipping the
/// weight/mask vector builds keeps the pass an O(ops) walk.
template <>
inline constexpr bool BackendEncodeIsValueAgnostic<AuditBackend> = true;

static_assert(HisaBackend<AuditBackend>,
              "AuditBackend must satisfy the HISA concept");
static_assert(HisaProvenanceSink<AuditBackend>,
              "AuditBackend must receive node provenance");
static_assert(BackendHasRotLeftMany<AuditBackend>,
              "AuditBackend must model hoisted rotation fan-out");

} // namespace chet

#endif // CHET_HISA_AUDITBACKEND_H
