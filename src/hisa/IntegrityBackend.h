//===- IntegrityBackend.h - Ciphertext integrity checking ------*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A HISA adapter that attaches a cheap limb checksum to every ciphertext
/// and re-verifies it when the ciphertext is next read, so a bit flip that
/// strikes a stored value (memory fault, storage fault, injected BitFlip)
/// is caught at the layer where the value is consumed -- surfaced as a
/// typed DataCorruptionError (FaultClass::Corruption) naming the op and
/// the network layer -- instead of silently decrypting to garbage minutes
/// later.
///
/// The wrapped ciphertext type carries its checksum inline:
///
///   FaultInjectionBackend<IntegrityBackend<RnsCkksBackend>> Chaos(...);
///
/// is the chaos-soak stack: the integrity layer seals each op result as it
/// is produced, the fault layer above corrupts payload bits afterwards
/// (modeling faults between producer and consumer), and the next operand
/// read detects the mismatch. The checksum is one linear scan over the
/// payload (FNV-1a over limbs / coefficients / slots), far cheaper than
/// any NTT-based homomorphic op, so every ciphertext read is verified.
///
/// The adapter is a HisaAdapter (hisa/Adapter.h): its ciphertext-mapping
/// hook unwraps the checksummed ciphertext and its op hook verifies and
/// seals. Like the other diagnostic adapters, it keeps sequential kernel
/// order (BackendSupportsParallelKernels stays false): its provenance
/// cursor is not synchronized.
///
//===----------------------------------------------------------------------===//

#ifndef CHET_HISA_INTEGRITYBACKEND_H
#define CHET_HISA_INTEGRITYBACKEND_H

#include "hisa/Adapter.h"
#include "support/Error.h"

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace chet {

namespace detail {

inline void fnvMix(uint64_t &H, uint64_t V) {
  for (int I = 0; I < 8; ++I) {
    H ^= (V >> (8 * I)) & 0xff;
    H *= 1099511628211ull;
  }
}

inline uint64_t doubleBits(double V) {
  uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof(Bits));
  return Bits;
}

} // namespace detail

/// FNV-1a checksum of a ciphertext's payload and scale metadata, resolved
/// at compile time from the representation (the same probing
/// FaultInjectionBackend uses to corrupt): RNS word vectors, big-integer
/// coefficient limbs, or plain double slots. Metadata-only ciphertexts
/// (analysis backends) checksum their scalar fields, which is all the
/// payload they have.
template <typename Ct> uint64_t limbChecksum(const Ct &C) {
  uint64_t H = 1469598103934665603ull;
  if constexpr (requires(const Ct &X) { X.C0[0] & uint64_t(1); }) {
    // RNS-CKKS: word-packed polynomials plus level and scale.
    detail::fnvMix(H, static_cast<uint64_t>(C.Level));
    detail::fnvMix(H, detail::doubleBits(C.Scale));
    detail::fnvMix(H, C.C0.size());
    for (uint64_t W : C.C0)
      detail::fnvMix(H, W);
    for (uint64_t W : C.C1)
      detail::fnvMix(H, W);
  } else if constexpr (requires(const Ct &X) { X.C0[0].limbCount(); }) {
    // Big-integer CKKS: sign and limbs of every coefficient.
    detail::fnvMix(H, static_cast<uint64_t>(C.LogQ));
    detail::fnvMix(H, detail::doubleBits(C.Scale));
    auto MixPoly = [&H](const auto &Poly) {
      detail::fnvMix(H, Poly.size());
      for (const auto &Coeff : Poly) {
        detail::fnvMix(H, Coeff.isNegative() ? 1 : 0);
        int N = Coeff.limbCount();
        detail::fnvMix(H, static_cast<uint64_t>(N));
        for (int I = 0; I < N; ++I)
          detail::fnvMix(H, Coeff.limb(I));
      }
    };
    MixPoly(C.C0);
    MixPoly(C.C1);
  } else if constexpr (requires(const Ct &X) { X.Values[0] + 1.0; }) {
    // Plain reference: slot values by bit pattern.
    detail::fnvMix(H, detail::doubleBits(C.Scale));
    detail::fnvMix(H, C.Values.size());
    for (double V : C.Values)
      detail::fnvMix(H, detail::doubleBits(V));
  } else {
    detail::fnvMix(H, detail::doubleBits(C.Scale));
  }
  return H;
}

/// Ciphertext wrapper carrying its integrity checksum. A standalone
/// template (rather than a nested class) so serialization and checksum
/// helpers deduce the inner type: checkpointing an IntegrityCt stores the
/// inner bytes and re-seals on restore.
template <typename InnerCt> struct IntegrityCt {
  InnerCt Inner;
  uint64_t Sum = 0;
};

/// HISA adapter checksumming every ciphertext. See file comment.
template <HisaBackend B>
class IntegrityBackend
    : public HisaAdapter<IntegrityBackend<B>, B, IntegrityCt<typename B::Ct>> {
  using Base =
      HisaAdapter<IntegrityBackend<B>, B, IntegrityCt<typename B::Ct>>;
  friend Base;

public:
  using typename Base::Ct;

  explicit IntegrityBackend(B &InnerIn) : Base(InnerIn) {}

  /// Unconditionally verifies \p C's checksum; throws DataCorruptionError
  /// on mismatch. The session layer calls this before checkpointing a
  /// value and at its integrity-check intervals.
  void verifyCt(const Ct &C) const { verify(C, "verifyCt"); }

private:
  /// Provenance hook: failures name the layer.
  void onBeginNode(int NodeId, const std::string &Label) {
    CurNode = NodeId;
    CurLabel = Label;
  }

  /// Ciphertext-mapping hook: the inner backend computes on the payload.
  /// A wrapped result starts unsealed; onOp seals it.
  static typename B::Ct &toInner(Ct &C) { return C.Inner; }
  static const typename B::Ct &toInner(const Ct &C) { return C.Inner; }
  static Ct fromInner(typename B::Ct &&Raw) { return Ct{std::move(Raw), 0}; }

  /// Op hook. Every homomorphic op, copy and decrypt verifies each
  /// ciphertext operand it reads (decrypt is the last line of defense
  /// before results leave the backend). Every ciphertext an op writes is
  /// resealed; a copy inherits its source's checksum, and a freed
  /// ciphertext's checksum is cleared.
  template <HisaOp Op, typename F, typename... Args>
  decltype(auto) onOp(F &&Forward, Args &...Operands) {
    if constexpr (isHomomorphicOp(Op) || Op == HisaOp::Copy ||
                  Op == HisaOp::Decrypt)
      (verify(Operands, hisaOpName(Op)), ...);
    if constexpr (Op == HisaOp::Encrypt || Op == HisaOp::RotLeftMany) {
      auto Out = Forward();
      reseal(Out);
      return Out;
    } else if constexpr (Op == HisaOp::Copy) {
      Ct C = Forward();
      C.Sum = firstOperand(Operands...).Sum;
      return C;
    } else if constexpr (Op == HisaOp::FreeCt) {
      Forward();
      firstOperand(Operands...).Sum = 0;
    } else if constexpr (isHomomorphicOp(Op)) {
      Forward();
      reseal(firstOperand(Operands...));
    } else {
      return Forward();
    }
  }

  void reseal(Ct &C) { C.Sum = limbChecksum(C.Inner); }
  void reseal(std::vector<Ct> &Cts) {
    for (Ct &C : Cts)
      reseal(C);
  }

  /// Verifies a ciphertext operand; other operands need no check.
  template <typename T> void verify(const T &, const char *) const {}
  void verify(const Ct &C, const char *Op) const {
    if (limbChecksum(C.Inner) == C.Sum)
      return;
    throw DataCorruptionError(formatError(
        "ciphertext checksum mismatch read by ", Op, " (node ", CurNode,
        " '", CurLabel, "'): payload corrupted after production"));
  }

  int CurNode = -1;
  std::string CurLabel;
};

/// Serialized form of an IntegrityCt is the inner ciphertext's bytes: the
/// checksum is recomputable, and re-sealing on restore means a blob
/// corrupted in storage is caught by the store's own checksum (or by
/// structural validation), not laundered into a "valid" live value.
template <typename InnerCt>
auto serialize(const IntegrityCt<InnerCt> &C) {
  return serialize(C.Inner);
}

template <typename Bytes, typename InnerCt>
void deserializeOrThrow(const Bytes &Buffer, IntegrityCt<InnerCt> &C) {
  deserializeOrThrow(Buffer, C.Inner);
  C.Sum = limbChecksum(C.Inner);
}

} // namespace chet

#endif // CHET_HISA_INTEGRITYBACKEND_H
