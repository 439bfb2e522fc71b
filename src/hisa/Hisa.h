//===- Hisa.h - Homomorphic Instruction Set Architecture -------*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The HISA (Homomorphic Instruction Set Architecture) of CHET, Table 2 of
/// the paper: the low-level interface between the tensor-kernel runtime and
/// an FHE scheme. Following Section 5.1, the runtime's kernels are C++
/// templates over a backend type, so the *same kernel code* runs against:
///
///   - RnsCkksBackend  -- real RNS-CKKS encrypted evaluation (SEAL-like),
///   - BigCkksBackend  -- real CKKS with a big-integer power-of-two modulus
///                        (HEAAN-like),
///   - PlainBackend    -- unencrypted reference execution,
///   - the compiler's analysis backends (modulus tracking, cost estimation,
///     rotation-set collection), which interpret each instruction as a
///     data-flow equation over a metadata ciphertext type.
///
/// A backend provides the member types Ct and Pt and the member functions
/// enumerated in the HisaBackend concept below. Semantics:
///
///   - Ciphertexts logically hold a vector of slotCount() real numbers at a
///     fixed-point scale; plaintexts are encoded vectors.
///   - rotLeftAssign(c, x) maps slot j to slot j - x (i.e. slot j of the
///     result reads the old slot j + x), cyclically over slotCount() slots.
///   - mulScalarAssign(c, x, f) multiplies every slot by the scalar x
///     encoded at scale f; the ciphertext scale multiplies by f.
///   - maxRescale(c, ub) returns the largest divisor d <= ub by which c can
///     be rescaled (a power of two for CKKS; a product of the next moduli
///     in the chain for RNS-CKKS; ub itself for the plain backend).
///   - rescaleAssign(c, d) divides the ciphertext scale by d; d must come
///     from maxRescale.
///   - Backends align operand levels/moduli internally, so kernels never
///     issue explicit modulus switches; kernels are responsible for keeping
///     the *scales* of addition operands equal.
///
//===----------------------------------------------------------------------===//

#ifndef CHET_HISA_HISA_H
#define CHET_HISA_HISA_H

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace chet {

/// Compile-time interface every HISA implementation must satisfy.
/// See the file comment for the semantics of each instruction.
template <typename B>
concept HisaBackend = requires(B Backend, typename B::Ct C,
                               const typename B::Ct CC, typename B::Pt P,
                               const typename B::Pt CP,
                               const std::vector<double> &Values,
                               double Scalar, double Scale, int Steps,
                               uint64_t Divisor) {
  typename B::Ct;
  typename B::Pt;
  { Backend.slotCount() } -> std::convertible_to<size_t>;
  { Backend.encode(Values, Scale) } -> std::same_as<typename B::Pt>;
  { Backend.decode(CP) } -> std::same_as<std::vector<double>>;
  { Backend.encrypt(CP) } -> std::same_as<typename B::Ct>;
  { Backend.decrypt(CC) } -> std::same_as<typename B::Pt>;
  { Backend.copy(CC) } -> std::same_as<typename B::Ct>;
  Backend.freeCt(C);
  Backend.rotLeftAssign(C, Steps);
  Backend.rotRightAssign(C, Steps);
  Backend.addAssign(C, CC);
  Backend.subAssign(C, CC);
  Backend.addPlainAssign(C, CP);
  Backend.subPlainAssign(C, CP);
  Backend.addScalarAssign(C, Scalar);
  Backend.subScalarAssign(C, Scalar);
  Backend.mulAssign(C, CC);
  Backend.mulPlainAssign(C, CP);
  Backend.mulScalarAssign(C, Scalar, Divisor);
  { Backend.maxRescale(CC, Divisor) } -> std::convertible_to<uint64_t>;
  Backend.rescaleAssign(C, Divisor);
  { Backend.scaleOf(CC) } -> std::convertible_to<double>;
};

/// Optional backend extension: a provenance sink is told which tensor-
/// circuit node the subsequent HISA instructions belong to. The evaluator
/// calls beginNode(id, label) before emitting each node's kernel, letting
/// diagnostic backends (AuditBackend) attribute every instruction to a
/// network layer without the kernels knowing anything about provenance.
template <typename B>
concept HisaProvenanceSink =
    requires(B Backend, int NodeId, const std::string &Label) {
      Backend.beginNode(NodeId, Label);
    };

/// Optional HISA extension (a Table-2-style row): rotation fan-out.
/// rotLeftMany(c, steps) returns one ciphertext per step, each equal to
/// rotLeft(c, step) -- bit-identically so on the real schemes -- but a
/// backend implementing the member may amortize the key-switch
/// decomposition across all amounts (Halevi-Shoup hoisting). Backends
/// without the member are served by the free rotLeftMany() below, which
/// loops rotLeft.
template <typename B>
concept BackendHasRotLeftMany =
    requires(B Backend, const typename B::Ct CC,
             const std::vector<int> &Steps) {
      { Backend.rotLeftMany(CC, Steps) } ->
          std::same_as<std::vector<typename B::Ct>>;
    };

/// Optional HISA extension of integrity-checking backends: verifyCt(c)
/// throws DataCorruptionError when c's payload no longer matches its
/// checksum.
template <typename B>
concept BackendHasVerifyCt =
    requires(const B &Backend, const typename B::Ct &C) {
      Backend.verifyCt(C);
    };

/// Whether a backend's Pt representation depends only on the encoding
/// scale, never on the slot contents. True of the abstract interpreters
/// (analysis, verification), whose encode() ignores the value vector;
/// the plaintext-cache layer then skips materializing weight/mask slot
/// vectors entirely -- the dominant cost of an abstract evaluation pass.
/// Real schemes must leave this false.
template <typename B>
inline constexpr bool BackendEncodeIsValueAgnostic = false;

/// Whether a backend's HISA instructions may be issued concurrently from
/// the thread pool's workers (on distinct ciphertexts). Defaults to
/// false: analysis backends accumulate per-op statistics and the fault
/// injector must see ops in a deterministic order, so only backends that
/// opt in here (the two real CKKS schemes and the plain reference) get
/// op-level kernel parallelism. Only the kernel layer's forEachIndex and
/// parallelReduce (runtime/Kernels.h) read it: they decide whether a
/// loop's iterations run on the pool or in order, never which
/// instructions the kernel issues. The per-element loops *inside* a
/// backend op parallelize regardless.
template <typename B>
inline constexpr bool BackendSupportsParallelKernels = false;

/// Non-destructive convenience forms of the assign instructions (the
/// rotLeft/add/sub/mul/... rows of Table 2). Copies are explicit so that
/// kernels can see and minimize them.
template <typename B>
typename B::Ct rotLeft(B &Backend, const typename B::Ct &C, int Steps) {
  typename B::Ct R = Backend.copy(C);
  Backend.rotLeftAssign(R, Steps);
  return R;
}

template <typename B>
typename B::Ct rotRight(B &Backend, const typename B::Ct &C, int Steps) {
  typename B::Ct R = Backend.copy(C);
  Backend.rotRightAssign(R, Steps);
  return R;
}

/// Rotation fan-out: one result per step, in step order. Dispatches to
/// the backend's hoisted implementation when it has one; otherwise loops
/// rotLeft so every backend -- including the analysis interpreters that
/// only implement the member for bookkeeping -- sees the same semantics.
template <typename B>
std::vector<typename B::Ct> rotLeftMany(B &Backend, const typename B::Ct &C,
                                        const std::vector<int> &Steps) {
  if constexpr (BackendHasRotLeftMany<B>) {
    return Backend.rotLeftMany(C, Steps);
  } else {
    std::vector<typename B::Ct> Out;
    Out.reserve(Steps.size());
    for (int S : Steps)
      Out.push_back(rotLeft(Backend, C, S));
    return Out;
  }
}

template <typename B>
typename B::Ct add(B &Backend, const typename B::Ct &A,
                   const typename B::Ct &C) {
  typename B::Ct R = Backend.copy(A);
  Backend.addAssign(R, C);
  return R;
}

template <typename B>
typename B::Ct sub(B &Backend, const typename B::Ct &A,
                   const typename B::Ct &C) {
  typename B::Ct R = Backend.copy(A);
  Backend.subAssign(R, C);
  return R;
}

template <typename B>
typename B::Ct mul(B &Backend, const typename B::Ct &A,
                   const typename B::Ct &C) {
  typename B::Ct R = Backend.copy(A);
  Backend.mulAssign(R, C);
  return R;
}

template <typename B>
typename B::Ct mulPlain(B &Backend, const typename B::Ct &A,
                        const typename B::Pt &P) {
  typename B::Ct R = Backend.copy(A);
  Backend.mulPlainAssign(R, P);
  return R;
}

template <typename B>
typename B::Ct mulScalar(B &Backend, const typename B::Ct &A, double X,
                         uint64_t Scale) {
  typename B::Ct R = Backend.copy(A);
  Backend.mulScalarAssign(R, X, Scale);
  return R;
}

/// Rescales \p C as far as possible while keeping its scale at or above
/// \p FloorScale. This is the runtime's uniform rescaling policy: after
/// multiplications the scale has grown by a factor of the operand scale,
/// and we shed exactly as much modulus as the scheme permits (Section 2.2
/// and the maxRescale/rescale contract of Table 2).
template <typename B>
void rescaleToFloor(B &Backend, typename B::Ct &C, double FloorScale) {
  double Scale = Backend.scaleOf(C);
  if (Scale < 2 * FloorScale)
    return;
  double Want = Scale / FloorScale;
  uint64_t Bound = Want >= 18446744073709549568.0
                       ? UINT64_MAX
                       : static_cast<uint64_t>(Want);
  uint64_t Divisor = Backend.maxRescale(C, Bound);
  if (Divisor > 1)
    Backend.rescaleAssign(C, Divisor);
}

} // namespace chet

#endif // CHET_HISA_HISA_H
