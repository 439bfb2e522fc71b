//===- TracingBackend.h - Span tracer and tracing HISA adapter -*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// In-memory span tracing for the end-to-end benchmark. Spans nest
/// phase (compile, keygen, encrypt, evaluate, decrypt, ...) -> tensor-circuit
/// node -> HISA instruction; every span carries the id of the inference it
/// belongs to (0 for set-up work). TracingBackend is a HISA adapter that
/// forwards every instruction to an inner backend and records one span per
/// instruction, plus one span per node through the evaluator's beginNode
/// provenance hook.
///
/// The adapter must not change the program it measures: it forwards
/// rotLeftMany (so kernels keep the hoisted fan-out schedule) and inherits
/// the inner backend's BackendSupportsParallelKernels setting (so kernels
/// keep their parallel bodies). The benchmark checks this by comparing the
/// serialized output ciphertexts of traced and untraced evaluations.
///
//===----------------------------------------------------------------------===//

#ifndef CHET_E2EBENCH_TRACINGBACKEND_H
#define CHET_E2EBENCH_TRACINGBACKEND_H

#include "hisa/Hisa.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace chet {
namespace e2e {

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Collects spans in memory; written out once, at exit, as Chrome
/// trace-event JSON. Phases and nodes are opened on the evaluator thread;
/// HISA spans may arrive from thread-pool workers, so every mutation is
/// serialized on one mutex.
class Tracer {
public:
  struct Span {
    std::string Name;
    std::string Cat; ///< "phase", "node" or "hisa".
    int64_t BeginNs = 0, EndNs = 0;
    int Tid = 0;
    int Inference = 0; ///< 0 for set-up work.
    int Parent = -1;   ///< Index of the enclosing span, -1 for roots.
  };

  void setInference(int Id) {
    std::lock_guard Lock(Mu);
    Inference = Id;
  }

  /// Opens a phase span; phases do not nest.
  int beginPhase(const std::string &Name) {
    std::lock_guard Lock(Mu);
    Phase = open(Name, "phase", -1, nowNs());
    return Phase;
  }
  void endPhase(int Idx) {
    std::lock_guard Lock(Mu);
    int64_t Now = nowNs();
    closeNode(Now);
    Spans[Idx].EndNs = Now;
    Phase = -1;
  }

  /// Closes the current node span (if any) and opens one for \p Label.
  void beginNode(const std::string &Label) {
    std::lock_guard Lock(Mu);
    int64_t Now = nowNs();
    closeNode(Now);
    Node = open(Label, "node", Phase, Now);
  }

  /// Records one finished HISA instruction under the current node, or
  /// under the current phase outside circuit evaluation.
  void recordOp(const char *Name, int64_t Begin, int64_t End) {
    std::lock_guard Lock(Mu);
    int Idx = open(Name, "hisa", Node >= 0 ? Node : Phase, Begin);
    Spans[Idx].EndNs = End;
  }

  std::vector<Span> spans() const {
    std::lock_guard Lock(Mu);
    return Spans;
  }

  /// Self time of every span, in seconds: its duration minus the part of
  /// its interval covered by the union of its children (children on
  /// several pool threads overlap, hence the union).
  static std::vector<double> selfSeconds(const std::vector<Span> &S) {
    std::vector<std::vector<std::pair<int64_t, int64_t>>> Kids(S.size());
    for (const Span &X : S)
      if (X.Parent >= 0)
        Kids[X.Parent].push_back({X.BeginNs, X.EndNs});
    std::vector<double> Self(S.size());
    for (size_t I = 0; I < S.size(); ++I) {
      auto &K = Kids[I];
      std::sort(K.begin(), K.end());
      int64_t Covered = 0, CurB = 0, CurE = -1;
      for (auto [B, E] : K) {
        B = std::max(B, S[I].BeginNs);
        E = std::min(E, S[I].EndNs);
        if (E <= B)
          continue;
        if (B > CurE) {
          Covered += std::max<int64_t>(0, CurE - CurB);
          CurB = B;
          CurE = E;
        } else {
          CurE = std::max(CurE, E);
        }
      }
      Covered += std::max<int64_t>(0, CurE - CurB);
      Self[I] = double(S[I].EndNs - S[I].BeginNs - Covered) * 1e-9;
    }
    return Self;
  }

  /// Writes the spans as Chrome trace-event JSON ("X" complete events,
  /// microsecond timestamps relative to the first span). Returns false
  /// when the file cannot be written.
  bool writeChromeJson(const std::string &Path) const {
    std::vector<Span> S = spans();
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    int64_t T0 = S.empty() ? 0 : S.front().BeginNs;
    std::fprintf(F, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (size_t I = 0; I < S.size(); ++I)
      std::fprintf(F,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                   "\"inference\":%d,\"span\":%zu,\"parent\":%d}}\n",
                   I ? "," : "", S[I].Name.c_str(), S[I].Cat.c_str(),
                   S[I].Tid, double(S[I].BeginNs - T0) * 1e-3,
                   double(S[I].EndNs - S[I].BeginNs) * 1e-3, S[I].Inference,
                   I, S[I].Parent);
    std::fprintf(F, "]}\n");
    return std::fclose(F) == 0;
  }

private:
  static int threadId() {
    static std::atomic<int> Next{1};
    thread_local int Id = Next.fetch_add(1);
    return Id;
  }

  int open(std::string Name, const char *Cat, int Parent, int64_t Begin) {
    Span X;
    X.Name = std::move(Name);
    X.Cat = Cat;
    X.BeginNs = X.EndNs = Begin;
    X.Tid = threadId();
    X.Inference = Inference;
    X.Parent = Parent;
    Spans.push_back(std::move(X));
    return int(Spans.size()) - 1;
  }

  void closeNode(int64_t Now) {
    if (Node >= 0)
      Spans[Node].EndNs = Now;
    Node = -1;
  }

  mutable std::mutex Mu;
  std::vector<Span> Spans;
  int Inference = 0;
  int Phase = -1;
  int Node = -1;
};

/// Opens a phase span for its lifetime; a null tracer makes it a no-op,
/// so traced and untraced runs share one code path.
class PhaseScope {
public:
  PhaseScope(Tracer *T, const std::string &Name)
      : T(T), Idx(T ? T->beginPhase(Name) : -1) {}
  ~PhaseScope() {
    if (T)
      T->endPhase(Idx);
  }
  PhaseScope(const PhaseScope &) = delete;
  PhaseScope &operator=(const PhaseScope &) = delete;

private:
  Tracer *T;
  int Idx;
};

/// Forwards every HISA instruction to \p Inner, recording one span each.
/// See the file comment for why the forwarding must be exact.
template <HisaBackend B> class TracingBackend {
public:
  using Ct = typename B::Ct;
  using Pt = typename B::Pt;

  TracingBackend(B &Inner, Tracer &T) : Inner(Inner), T(T) {}

  void beginNode(int NodeId, const std::string &Label) {
    T.beginNode(Label);
    if constexpr (HisaProvenanceSink<B>)
      Inner.beginNode(NodeId, Label);
  }

  size_t slotCount() const { return Inner.slotCount(); }

  Pt encode(const std::vector<double> &Values, double Scale) const {
    return traced("encode", [&] { return Inner.encode(Values, Scale); });
  }
  std::vector<double> decode(const Pt &P) const {
    return traced("decode", [&] { return Inner.decode(P); });
  }
  Ct encrypt(const Pt &P) {
    return traced("encrypt", [&] { return Inner.encrypt(P); });
  }
  Pt decrypt(const Ct &C) {
    return traced("decrypt", [&] { return Inner.decrypt(C); });
  }
  Ct copy(const Ct &C) const {
    return traced("copy", [&] { return Inner.copy(C); });
  }
  void freeCt(Ct &C) const {
    traced("freeCt", [&] { Inner.freeCt(C); });
  }
  void rotLeftAssign(Ct &C, int Steps) {
    traced("rotLeft", [&] { Inner.rotLeftAssign(C, Steps); });
  }
  void rotRightAssign(Ct &C, int Steps) {
    traced("rotRight", [&] { Inner.rotRightAssign(C, Steps); });
  }
  std::vector<Ct> rotLeftMany(const Ct &C, const std::vector<int> &Steps)
    requires BackendHasRotLeftMany<B>
  {
    return traced("rotLeftMany", [&] { return Inner.rotLeftMany(C, Steps); });
  }
  void addAssign(Ct &C, const Ct &O) {
    traced("add", [&] { Inner.addAssign(C, O); });
  }
  void subAssign(Ct &C, const Ct &O) {
    traced("sub", [&] { Inner.subAssign(C, O); });
  }
  void addPlainAssign(Ct &C, const Pt &P) {
    traced("addPlain", [&] { Inner.addPlainAssign(C, P); });
  }
  void subPlainAssign(Ct &C, const Pt &P) {
    traced("subPlain", [&] { Inner.subPlainAssign(C, P); });
  }
  void addScalarAssign(Ct &C, double X) {
    traced("addScalar", [&] { Inner.addScalarAssign(C, X); });
  }
  void subScalarAssign(Ct &C, double X) {
    traced("subScalar", [&] { Inner.subScalarAssign(C, X); });
  }
  void mulAssign(Ct &C, const Ct &O) {
    traced("mul", [&] { Inner.mulAssign(C, O); });
  }
  void mulPlainAssign(Ct &C, const Pt &P) {
    traced("mulPlain", [&] { Inner.mulPlainAssign(C, P); });
  }
  void mulScalarAssign(Ct &C, double X, uint64_t Scale) {
    traced("mulScalar", [&] { Inner.mulScalarAssign(C, X, Scale); });
  }
  uint64_t maxRescale(const Ct &C, uint64_t UpperBound) const {
    return traced("maxRescale",
                  [&] { return Inner.maxRescale(C, UpperBound); });
  }
  void rescaleAssign(Ct &C, uint64_t Divisor) {
    traced("rescale", [&] { Inner.rescaleAssign(C, Divisor); });
  }
  double scaleOf(const Ct &C) const { return Inner.scaleOf(C); }

private:
  template <typename F> auto traced(const char *Name, F &&Fn) const {
    int64_t Begin = nowNs();
    if constexpr (std::is_void_v<decltype(Fn())>) {
      Fn();
      T.recordOp(Name, Begin, nowNs());
    } else {
      auto R = Fn();
      T.recordOp(Name, Begin, nowNs());
      return R;
    }
  }

  B &Inner;
  Tracer &T;
};

} // namespace e2e

/// Tracing is transparent to threading (the tracer serializes its own
/// state), so kernels must take the same parallel bodies they take on the
/// inner backend.
template <HisaBackend B>
inline constexpr bool BackendSupportsParallelKernels<e2e::TracingBackend<B>> =
    BackendSupportsParallelKernels<B>;

} // namespace chet

#endif // CHET_E2EBENCH_TRACINGBACKEND_H
