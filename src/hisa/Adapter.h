//===- Adapter.h - Forwarding base for HISA adapters -----------*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The HISA op table and HisaAdapter, the forwarding base of every HISA
/// adapter (ProfilingBackend, IntegrityBackend, FaultInjectionBackend).
/// HisaAdapter<Derived, B> declares each instruction once and forwards it
/// to the inner backend B through two hooks of Derived:
///
///   - the op hook, onOp<HisaOp>(Forward, Operands...), gets the
///     instruction's operands in declaration order (for an *Assign
///     instruction the first is the ciphertext it overwrites), calls
///     Forward() at most once and returns its result. Default: a plain
///     call.
///   - the ciphertext-mapping hook, toInner(C) / fromInner(Raw), for an
///     adapter whose Ct wraps B's (IntegrityBackend's checksummed
///     IntegrityCt). Default: the identity.
///
/// The slotCount and scaleOf queries bypass the op hook. The optional
/// instructions rotLeftMany and verifyCt are forwarded exactly when B has
/// them, so an adapted run issues the plain run's op sequence. An adapter
/// is always a provenance sink: beginNode calls Derived's onBeginNode,
/// then B's beginNode if B is a sink. BackendSupportsParallelKernels stays
/// false unless the adapter specializes it. A new HISA instruction goes
/// here once, plus its free-function default in Hisa.h.
///
//===----------------------------------------------------------------------===//

#ifndef CHET_HISA_ADAPTER_H
#define CHET_HISA_ADAPTER_H

#include "hisa/Hisa.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace chet {

/// The hookable HISA instructions: every member of the HisaBackend
/// concept except the slotCount and scaleOf queries, plus rotLeftMany.
enum class HisaOp : int {
  Encode, Decode, Encrypt, Decrypt, Copy, FreeCt, RotLeft,
  RotRight, RotLeftMany, Add, Sub, AddPlain, SubPlain, AddScalar,
  SubScalar, Mul, MulPlain, MulScalar, MaxRescale, Rescale
};

inline constexpr int HisaOpCount = static_cast<int>(HisaOp::Rescale) + 1;

/// The instruction's name in reports, fault sites and error messages:
/// the member name without its Assign suffix.
inline const char *hisaOpName(HisaOp Op) {
  static const char *Names[HisaOpCount] = {
      "encode",    "decode",    "encrypt",   "decrypt",     "copy",
      "freeCt",    "rotLeft",   "rotRight",  "rotLeftMany", "add",
      "sub",       "addPlain",  "subPlain",  "addScalar",   "subScalar",
      "mul",       "mulPlain",  "mulScalar", "maxRescale",  "rescale"};
  return Names[static_cast<int>(Op)];
}

/// Whether \p Op is a homomorphic op: a rotation, addition,
/// multiplication or rescale. These get a global op ordinal in the fault
/// injectors; encoding, encryption, copies, frees and maxRescale do not.
constexpr bool isHomomorphicOp(HisaOp Op) {
  return Op >= HisaOp::RotLeft && Op <= HisaOp::Rescale &&
         Op != HisaOp::MaxRescale;
}

/// The first operand an op hook receives: the overwritten ciphertext of an
/// *Assign instruction, or the source of copy, decrypt and rotLeftMany.
template <typename First, typename... Rest>
First &firstOperand(First &F, Rest &...) {
  return F;
}

/// What HisaAdapter guarantees of an adapter A over B: A is a HISA
/// backend and a provenance sink, and has rotLeftMany exactly when B has.
template <typename A, typename B>
concept HisaAdapterOf = HisaBackend<A> && HisaProvenanceSink<A> &&
                        BackendHasRotLeftMany<A> == BackendHasRotLeftMany<B>;

/// Forwarding base of the HISA adapters. See file comment.
template <typename Derived, HisaBackend B, typename CtT = typename B::Ct>
class HisaAdapter {
public:
  using Ct = CtT;
  using Pt = typename B::Pt;

  explicit HisaAdapter(B &InnerIn) : Inner(InnerIn) {}

  B &inner() const { return Inner; }

  /// Provenance hook (HisaProvenanceSink).
  void beginNode(int NodeId, const std::string &Label) {
    self().onBeginNode(NodeId, Label);
    if constexpr (HisaProvenanceSink<B>)
      Inner.beginNode(NodeId, Label);
  }

  void verifyCt(const Ct &C) const
    requires BackendHasVerifyCt<B>
  {
    Inner.verifyCt(raw(C));
  }

  size_t slotCount() const { return Inner.slotCount(); }
  double scaleOf(const Ct &C) const { return Inner.scaleOf(raw(C)); }

  Pt encode(const std::vector<double> &Values, double Scale) {
    return op<HisaOp::Encode>([&] { return Inner.encode(Values, Scale); },
                              Values, Scale);
  }
  std::vector<double> decode(const Pt &P) {
    return op<HisaOp::Decode>([&] { return Inner.decode(P); }, P);
  }
  Ct encrypt(const Pt &P) {
    return op<HisaOp::Encrypt>([&] { return wrap(Inner.encrypt(P)); }, P);
  }
  Pt decrypt(const Ct &C) {
    return op<HisaOp::Decrypt>([&] { return Inner.decrypt(raw(C)); }, C);
  }
  Ct copy(const Ct &C) {
    return op<HisaOp::Copy>([&] { return wrap(Inner.copy(raw(C))); }, C);
  }
  void freeCt(Ct &C) {
    op<HisaOp::FreeCt>([&] { Inner.freeCt(raw(C)); }, C);
  }
  void rotLeftAssign(Ct &C, int S) {
    op<HisaOp::RotLeft>([&] { Inner.rotLeftAssign(raw(C), S); }, C, S);
  }
  void rotRightAssign(Ct &C, int S) {
    op<HisaOp::RotRight>([&] { Inner.rotRightAssign(raw(C), S); }, C, S);
  }
  std::vector<Ct> rotLeftMany(const Ct &C, const std::vector<int> &Steps)
    requires BackendHasRotLeftMany<B>
  {
    return op<HisaOp::RotLeftMany>(
        [&] { return wrap(Inner.rotLeftMany(raw(C), Steps)); }, C, Steps);
  }
  void addAssign(Ct &C, const Ct &O) {
    op<HisaOp::Add>([&] { Inner.addAssign(raw(C), raw(O)); }, C, O);
  }
  void subAssign(Ct &C, const Ct &O) {
    op<HisaOp::Sub>([&] { Inner.subAssign(raw(C), raw(O)); }, C, O);
  }
  void addPlainAssign(Ct &C, const Pt &P) {
    op<HisaOp::AddPlain>([&] { Inner.addPlainAssign(raw(C), P); }, C, P);
  }
  void subPlainAssign(Ct &C, const Pt &P) {
    op<HisaOp::SubPlain>([&] { Inner.subPlainAssign(raw(C), P); }, C, P);
  }
  void addScalarAssign(Ct &C, double X) {
    op<HisaOp::AddScalar>([&] { Inner.addScalarAssign(raw(C), X); }, C, X);
  }
  void subScalarAssign(Ct &C, double X) {
    op<HisaOp::SubScalar>([&] { Inner.subScalarAssign(raw(C), X); }, C, X);
  }
  void mulAssign(Ct &C, const Ct &O) {
    op<HisaOp::Mul>([&] { Inner.mulAssign(raw(C), raw(O)); }, C, O);
  }
  void mulPlainAssign(Ct &C, const Pt &P) {
    op<HisaOp::MulPlain>([&] { Inner.mulPlainAssign(raw(C), P); }, C, P);
  }
  void mulScalarAssign(Ct &C, double X, uint64_t Scale) {
    op<HisaOp::MulScalar>(
        [&] { Inner.mulScalarAssign(raw(C), X, Scale); }, C, X, Scale);
  }
  uint64_t maxRescale(const Ct &C, uint64_t Bound) {
    return op<HisaOp::MaxRescale>(
        [&] { return Inner.maxRescale(raw(C), Bound); }, C, Bound);
  }
  void rescaleAssign(Ct &C, uint64_t D) {
    op<HisaOp::Rescale>([&] { Inner.rescaleAssign(raw(C), D); }, C, D);
  }

protected:
  // Default hooks; Derived shadows the ones it needs.
  template <HisaOp Op, typename F, typename... Args>
  decltype(auto) onOp(F &&Forward, Args &...) {
    return Forward();
  }
  void onBeginNode(int, const std::string &) {}
  static typename B::Ct &toInner(Ct &C) { return C; }
  static const typename B::Ct &toInner(const Ct &C) { return C; }
  static Ct fromInner(typename B::Ct &&Raw) { return std::move(Raw); }

private:
  Derived &self() { return static_cast<Derived &>(*this); }

  /// Runs instruction \p Op, whose call on the inner backend is \p Fn,
  /// through the op hook.
  template <HisaOp Op, typename F, typename... Args>
  decltype(auto) op(F &&Fn, Args &...Operands) {
    return self().template onOp<Op>(Fn, Operands...);
  }

  /// The ciphertext-mapping hook, both ways; wrap maps every ciphertext an
  /// instruction produces.
  template <typename T> static auto &raw(T &C) { return Derived::toInner(C); }
  static Ct wrap(typename B::Ct &&Raw) {
    return Derived::fromInner(std::move(Raw));
  }
  static std::vector<Ct> wrap(std::vector<typename B::Ct> &&Raw) {
    if constexpr (std::is_same_v<Ct, typename B::Ct>)
      return std::move(Raw);
    std::vector<Ct> Out;
    for (auto &R : Raw)
      Out.push_back(Derived::fromInner(std::move(R)));
    return Out;
  }

  B &Inner;
};

} // namespace chet

#endif // CHET_HISA_ADAPTER_H
