//===- FaultInjectionBackend.h - Deterministic fault injection --*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A HISA backend adapter that wraps any other backend and, driven by a
/// seeded Prng, deterministically injects the failure modes an FHE
/// deployment actually sees:
///
///   - BitFlip            -- corrupts a ciphertext in a representation-
///                           aware way (storage / transmission faults);
///   - DroppedRescale     -- silently skips a rescale, leaving the scale
///                           inflated so downstream scale checks fire
///                           (a lost modulus-management step);
///   - TransientOpFailure -- throws TransientBackendFault from a
///                           homomorphic op (a flaky accelerator or RPC),
///                           recoverable by bounded retry;
///   - CrashAtOp          -- throws SimulatedCrash at scheduled global op
///                           ordinals, modeling process death: the session
///                           layer must treat all in-memory evaluator
///                           state as lost and recover from its
///                           CheckpointStore alone.
///
/// Because the adapter satisfies the HisaBackend concept, the unmodified
/// tensor kernels and the circuit evaluator run under fault injection with
/// no changes -- the same re-interpretation trick the analysis backends
/// use (Section 5.1), applied to robustness testing.
///
/// The adapter is a HisaAdapter (hisa/Adapter.h) whose op hook places the
/// fault points. It is also a provenance sink (beginNode), so every
/// injected fault carries op -> node -> layer attribution: retry logs and
/// SessionReports name the failing layer, not a bare op index.
///
//===----------------------------------------------------------------------===//

#ifndef CHET_HISA_FAULTINJECTIONBACKEND_H
#define CHET_HISA_FAULTINJECTIONBACKEND_H

#include "hisa/Adapter.h"
#include "support/Error.h"
#include "support/Prng.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace chet {

/// The failure modes the adapter can inject.
enum class FaultKind { BitFlip, DroppedRescale, TransientOpFailure, CrashAtOp };

inline const char *faultKindName(FaultKind Kind) {
  switch (Kind) {
  case FaultKind::BitFlip:
    return "BitFlip";
  case FaultKind::DroppedRescale:
    return "DroppedRescale";
  case FaultKind::TransientOpFailure:
    return "TransientOpFailure";
  case FaultKind::CrashAtOp:
    return "CrashAtOp";
  }
  return "?";
}

/// Deterministic fault schedule: every rate is a per-operation
/// probability drawn from the seeded stream, so a (Seed, circuit) pair
/// always produces the same fault sites.
struct FaultPlan {
  uint64_t Seed = 0xfa017;
  /// Probability that a homomorphic op's result ciphertext is corrupted.
  double BitFlipRate = 0.0;
  /// Probability that a rescaleAssign is silently skipped.
  double DropRescaleRate = 0.0;
  /// Probability that a homomorphic op throws TransientBackendFault.
  double TransientRate = 0.0;
  /// Total transient faults to inject before the backend heals; a finite
  /// cap lets bounded retry succeed deterministically.
  int MaxTransientFaults = std::numeric_limits<int>::max();
  /// Total bit flips to inject before the backend heals; a finite cap
  /// lets rollback-to-checkpoint converge deterministically.
  int MaxBitFlips = std::numeric_limits<int>::max();
  /// Global homomorphic-op ordinals (0-based, counted across the whole
  /// run including replays) at which to throw SimulatedCrash. Each entry
  /// fires at most once; order does not matter. Ordinal-based scheduling
  /// keeps crash sites exactly reproducible at any thread count (kernels
  /// stay sequential under this adapter).
  std::vector<long> CrashAtOps;
};

/// One delivered fault with its op -> node -> layer provenance.
struct FaultSite {
  FaultKind Kind = FaultKind::BitFlip;
  std::string Op;    ///< HISA instruction ("mul", "rotLeftMany", ...).
  long OpOrdinal = -1;
  int NodeId = -1;
  std::string Label; ///< Layer label from OpNode::Label ("conv1", ...).
  std::string Scope; ///< Owning scope ("tenant:alice"); empty if unset.
};

/// Counters of the faults actually delivered, plus the first sites.
struct FaultStats {
  long BitFlips = 0;
  long DroppedRescales = 0;
  long TransientFaults = 0;
  long Crashes = 0;
  /// Homomorphic ops observed (the ordinal domain of CrashAtOps).
  long OpsSeen = 0;
  /// Provenance of delivered faults, in delivery order (capped so a
  /// high-rate soak cannot grow without bound).
  std::vector<FaultSite> Sites;

  static constexpr size_t MaxSites = 256;
};

/// HISA adapter injecting faults per a FaultPlan. Holds the wrapped
/// backend by reference; keys and parameters stay with the inner backend.
template <typename B>
class FaultInjectionBackend
    : public HisaAdapter<FaultInjectionBackend<B>, B> {
  using Base = HisaAdapter<FaultInjectionBackend<B>, B>;
  friend Base;

public:
  using typename Base::Ct;

  FaultInjectionBackend(B &InnerIn, const FaultPlan &PlanIn)
      : Base(InnerIn), Plan(PlanIn), Rng(PlanIn.Seed) {
    std::sort(Plan.CrashAtOps.begin(), Plan.CrashAtOps.end());
  }

  const FaultStats &stats() const { return Stats; }

  /// Labels every subsequently delivered fault site with an owning scope
  /// (the serving layer uses "tenant:<id>"), so a multi-tenant chaos run
  /// can attribute each fault to the tenant whose request it hit.
  void setFaultScope(std::string ScopeIn) { CurScope = std::move(ScopeIn); }

private:
  /// Provenance hook: the evaluator tells us which tensor-circuit node
  /// the following instructions implement, so injected faults name the
  /// layer they hit.
  void onBeginNode(int NodeId, const std::string &Label) {
    CurNode = NodeId;
    CurLabel = Label;
  }

  /// Op hook. Every homomorphic op passes a fault point (crash, then
  /// transient) before it runs and a corruption draw on its result after;
  /// encrypt only gets the corruption draw. A rotLeftMany batch takes one
  /// fault point for the shared batch, then one corruption draw per
  /// produced ciphertext, in step order, so the site numbering stays
  /// deterministic for a fixed (Seed, circuit) pair. The other
  /// instructions pass straight through.
  template <HisaOp Op, typename F, typename... Args>
  decltype(auto) onOp(F &&Forward, Args &...Operands) {
    if constexpr (isHomomorphicOp(Op))
      faultPoint(Op);
    if constexpr (Op == HisaOp::Rescale) {
      if (Plan.DropRescaleRate > 0 &&
          Rng.nextDouble() < Plan.DropRescaleRate) {
        // The scale stays inflated; the next scale-checked addition
        // raises ScaleMismatch, turning a silent omission into a typed
        // error.
        ++Stats.DroppedRescales;
        recordSite(FaultKind::DroppedRescale, Op);
        return;
      }
    }
    if constexpr (Op == HisaOp::Encrypt || Op == HisaOp::RotLeftMany) {
      auto Out = Forward();
      maybeCorrupt(Out, Op);
      return Out;
    } else if constexpr (isHomomorphicOp(Op)) {
      Forward();
      maybeCorrupt(firstOperand(Operands...), Op);
    } else {
      return Forward();
    }
  }

  /// Crash then transient check, in that order, at the head of every
  /// homomorphic op. Also advances the global op ordinal.
  void faultPoint(HisaOp Op) {
    long Ordinal = Stats.OpsSeen++;
    if (NextCrash < Plan.CrashAtOps.size() &&
        Plan.CrashAtOps[NextCrash] <= Ordinal) {
      ++NextCrash;
      ++Stats.Crashes;
      recordSite(FaultKind::CrashAtOp, Op, Ordinal);
      throw SimulatedCrashError(
          formatError("injected crash #", Stats.Crashes, " at op ordinal ",
                      Ordinal, " in ", hisaOpName(Op), siteSuffix()));
    }
    maybeTransient(Op, Ordinal);
  }

  void maybeTransient(HisaOp Op, long Ordinal) {
    if (Plan.TransientRate <= 0 ||
        Stats.TransientFaults >= Plan.MaxTransientFaults)
      return;
    if (Rng.nextDouble() < Plan.TransientRate) {
      ++Stats.TransientFaults;
      recordSite(FaultKind::TransientOpFailure, Op, Ordinal);
      throw TransientBackendFaultError(
          formatError("injected transient fault #", Stats.TransientFaults,
                      " in ", hisaOpName(Op), siteSuffix()));
    }
  }

  void maybeCorrupt(Ct &C, HisaOp Op) {
    if (Plan.BitFlipRate <= 0 || Stats.BitFlips >= Plan.MaxBitFlips ||
        Rng.nextDouble() >= Plan.BitFlipRate)
      return;
    if (corrupt(C)) {
      ++Stats.BitFlips;
      recordSite(FaultKind::BitFlip, Op);
    }
  }
  void maybeCorrupt(std::vector<Ct> &Cts, HisaOp Op) {
    for (Ct &C : Cts)
      maybeCorrupt(C, Op);
  }

  /// Representation-aware corruption, resolved at compile time from the
  /// wrapped backend's ciphertext layout. A checksum-carrying wrapper
  /// (IntegrityBackend's Ct) is corrupted through to its payload, leaving
  /// the checksum stale -- exactly what a memory fault does.
  bool corrupt(Ct &C) {
    if constexpr (requires(Ct &X) { X.Inner; X.Sum; }) {
      return corruptRaw(C.Inner);
    } else {
      return corruptRaw(C);
    }
  }

  template <typename RawCt> bool corruptRaw(RawCt &C) {
    if constexpr (requires(RawCt &X) { X.C0[0] ^= uint64_t(1); }) {
      // RNS-CKKS: word-packed polynomials; flip one random bit.
      auto &Poly = Rng.next() & 1 ? C.C0 : C.C1;
      if (Poly.empty())
        return false;
      Poly[Rng.nextBounded(Poly.size())] ^= uint64_t(1)
                                            << Rng.nextBounded(64);
      return true;
    } else if constexpr (requires(RawCt &X) { X.C0[0].negate(); }) {
      // Big-integer CKKS: negate one random coefficient.
      auto &Poly = Rng.next() & 1 ? C.C0 : C.C1;
      if (Poly.empty())
        return false;
      Poly[Rng.nextBounded(Poly.size())].negate();
      return true;
    } else if constexpr (requires(RawCt &X) { X.Values[0] += 1.0; }) {
      // Plain reference: slam one slot far outside the data range.
      if (C.Values.empty())
        return false;
      C.Values[Rng.nextBounded(C.Values.size())] += 1e9;
      return true;
    } else {
      // Metadata-only ciphertexts (analysis backends) have no payload.
      return false;
    }
  }

  void recordSite(FaultKind Kind, HisaOp Op, long Ordinal = -1) {
    if (Stats.Sites.size() >= FaultStats::MaxSites)
      return;
    Stats.Sites.push_back(
        {Kind, hisaOpName(Op), Ordinal, CurNode, CurLabel, CurScope});
  }

  std::string siteSuffix() const {
    std::string S;
    if (CurNode >= 0)
      S += formatError(" (node ", CurNode, " '", CurLabel, "')");
    if (!CurScope.empty())
      S += formatError(" [", CurScope, "]");
    return S;
  }

  FaultPlan Plan;
  Prng Rng;
  FaultStats Stats;
  size_t NextCrash = 0;
  int CurNode = -1;
  std::string CurLabel;
  std::string CurScope;
};

} // namespace chet

#endif // CHET_HISA_FAULTINJECTIONBACKEND_H
