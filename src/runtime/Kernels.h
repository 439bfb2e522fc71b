//===- Kernels.h - FHE tensor kernels --------------------------*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The CHET runtime's computational kernels (Section 4.2: "a set of
/// computational kernels that implement the common operations found in
/// CNNs", "designed to use the vectorization capabilities of modern FHE
/// schemes"). Every kernel is a template over the HISA backend, so the
/// identical code executes under real encryption, under the plain
/// reference backend, and under the compiler's analysis interpretations
/// (Section 5.1).
///
/// Kernels maintain two invariants:
///   - the margin invariant: physical slots outside a tensor's valid
///     logical positions hold zeros whenever a later padded convolution
///     could read them (re-established by masking, which costs a
///     multiplicative level -- Section 3.1's junk-entry discussion);
///   - the scale discipline: addition operands always carry identical
///     scales because every contribution to an accumulation goes through
///     the same multiply/rescale sequence.
///
/// Fixed-point scales follow the paper's four roles (Section 5.5): image
/// (Pc), plaintext-vector weights (Pw), scalar weights (Pu), masks (Pm).
///
/// Parallelism. Each kernel has one body for every backend. Op-level
/// parallelism enters only through detail::forEachIndex and
/// detail::parallelReduce, the only readers of
/// BackendSupportsParallelKernels: on backends that set it (the two real
/// CKKS schemes and the plain reference) independent per-ciphertext work
/// runs on the global thread pool and accumulations fold in a fixed index
/// order, so results are bit-identical for every thread count; the others
/// (analysis, fault injection) run the same loops in index order. Which
/// instructions a kernel issues -- every rotLeftMany batch included --
/// depends on layout and weights only, never on the thread count, so the
/// compiler's analysis prices the schedule that runs. Weight/mask/bias
/// encodings go through an optional EncodedPlaintextCache
/// (PlaintextCache.h) threaded in as a KernelCache handle.
///
//===----------------------------------------------------------------------===//

#ifndef CHET_RUNTIME_KERNELS_H
#define CHET_RUNTIME_KERNELS_H

#include "hisa/LevelScale.h"
#include "runtime/CipherTensor.h"
#include "runtime/PlaintextCache.h"
#include "runtime/ScaleConfig.h"
#include "support/Deadline.h"
#include "support/Error.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>

namespace chet {

namespace detail {

/// Accumulates Term into Acc, initializing Acc on first use.
template <HisaBackend B>
void accumulate(B &Backend, std::optional<typename B::Ct> &Acc,
                typename B::Ct &&Term) {
  if (!Acc)
    Acc = std::move(Term);
  else
    Backend.addAssign(*Acc, Term);
}

/// Runs Fn(I) for I in [0, Count): on the pool for backends that allow
/// op-level parallelism, as a plain ordered loop otherwise. Fn must only
/// touch index-I state when the backend is parallel-capable.
template <HisaBackend B, typename F> void forEachIndex(size_t Count, F &&Fn) {
  if constexpr (BackendSupportsParallelKernels<B>) {
    parallelFor(0, Count, 1, Fn);
  } else {
    for (size_t I = 0; I < Count; ++I)
      Fn(I);
  }
}

/// Number of map results parallelReduce materializes at once: enough to
/// keep every lane busy while bounding live ciphertexts.
inline size_t reduceWindow() {
  return std::max<size_t>(1, size_t(4) * globalThreadCount());
}

/// Parallel map + sequential fixed-order fold. Map(I) returns
/// std::optional<Ct> (nullopt contributes nothing); terms fold into Acc
/// strictly in ascending index order, so the accumulated ciphertext is
/// bit-identical to the sequential loop under any thread count. Terms are
/// produced in windows of reduceWindow() to bound peak memory. Backends
/// without kernel-level parallelism run the literal sequential loop
/// (preserving their op issue order).
///
/// Both paths probe the thread-local cooperative deadline (Deadline.h)
/// between fold steps, so an over-budget inference aborts inside a large
/// accumulation instead of waiting for the next node boundary. The probe
/// runs on the calling thread only -- pool workers never check -- and
/// either completes a fold window or throws before starting one, so the
/// fixed fold order (and hence bit-identical results) is preserved. With
/// no deadline installed the probe is a null-pointer load.
template <HisaBackend B, typename MapFn>
void parallelReduce(B &Backend, std::optional<typename B::Ct> &Acc,
                    size_t Count, MapFn &&Map) {
  if constexpr (!BackendSupportsParallelKernels<B>) {
    for (size_t I = 0; I < Count; ++I) {
      checkActiveDeadline("parallelReduce");
      std::optional<typename B::Ct> T = Map(I);
      if (T)
        accumulate(Backend, Acc, std::move(*T));
    }
  } else {
    size_t Window = reduceWindow();
    std::vector<std::optional<typename B::Ct>> Terms;
    for (size_t Base = 0; Base < Count; Base += Window) {
      checkActiveDeadline("parallelReduce");
      size_t Hi = std::min(Count, Base + Window);
      Terms.assign(Hi - Base, std::nullopt);
      parallelFor(Base, Hi, 1, [&](size_t I) { Terms[I - Base] = Map(I); });
      for (auto &T : Terms)
        if (T)
          accumulate(Backend, Acc, std::move(*T));
    }
  }
}

/// A rotation fan-out of \p Src that serves every amount of 0 (modulo the
/// slot count) with \p Src itself rather than a copy: one rotLeftMany
/// over the non-zero amounts, in order, and none when no non-zero amount
/// is left. The analysis prices zero amounts at nothing either way.
template <HisaBackend B> class RotationFan {
public:
  RotationFan(B &Backend, const typename B::Ct &Src,
              const std::vector<int> &Steps)
      : Src(&Src) {
    std::vector<int> NonZero;
    NonZero.reserve(Steps.size());
    Index.reserve(Steps.size());
    for (int Step : Steps) {
      bool Zero = normalizeRotation(Step, Backend.slotCount()) == 0;
      Index.push_back(Zero ? -1 : int(NonZero.size()));
      if (!Zero)
        NonZero.push_back(Step);
    }
    if (!NonZero.empty())
      Rotated = rotLeftMany(Backend, Src, NonZero);
  }

  /// The rotation by Steps[I].
  const typename B::Ct &operator[](size_t I) const {
    return Index[I] < 0 ? *Src : Rotated[Index[I]];
  }

private:
  const typename B::Ct *Src;
  std::vector<int> Index; ///< Position in Rotated, or -1 for Src.
  std::vector<typename B::Ct> Rotated;
};

/// Multiplies every ciphertext by its valid-position mask (scale Pm).
template <HisaBackend B>
void applyValidMask(B &Backend, CipherTensor<B> &T, const ScaleConfig &S,
                    const KernelCache<B> &KC = {}) {
  T.L.Support.clear();
  forEachIndex<B>(size_t(T.L.ctCount()), [&](size_t I) {
    auto Mask = cachedEncode(Backend, KC, kSubMask | I, T.L, S.Mask,
                             [&] { return buildValidMask(T.L, int(I)); });
    Backend.mulPlainAssign(T.Cts[I], *Mask);
  });
}

/// Rescales every ciphertext back toward the working (image) scale.
template <HisaBackend B>
void rescaleTensor(B &Backend, CipherTensor<B> &T, const ScaleConfig &S) {
  forEachIndex<B>(T.Cts.size(), [&](size_t I) {
    rescaleToFloor(Backend, T.Cts[I], S.Image);
  });
}

/// Adds the per-channel bias at exactly the tensor's current scale.
template <HisaBackend B>
void addBias(B &Backend, CipherTensor<B> &T, const std::vector<double> &Bias,
             const ScaleConfig &S, const KernelCache<B> &KC = {}) {
  bool AnyNonZero = false;
  for (double V : Bias)
    AnyNonZero |= V != 0.0;
  if (!AnyNonZero)
    return;
  forEachIndex<B>(size_t(T.L.ctCount()), [&](size_t I) {
    auto P =
        cachedEncode(Backend, KC, kSubBias | I, T.L, Backend.scaleOf(T.Cts[I]),
                     [&] { return buildBiasVector(T.L, int(I), Bias); });
    Backend.addPlainAssign(T.Cts[I], *P);
  });
}

} // namespace detail

//===----------------------------------------------------------------------===//
// Packing (encryptor side)
//===----------------------------------------------------------------------===//

/// Encrypts tensor \p T under layout \p L at the image scale. Stays
/// sequential under every backend: encryption consumes the backend's
/// deterministic randomness stream, whose draw order must not depend on
/// the thread count.
template <HisaBackend B>
CipherTensor<B> encryptTensor(B &Backend, const Tensor3 &T,
                              const TensorLayout &L, const ScaleConfig &S) {
  CHET_CHECK(L.Slots == Backend.slotCount(), LayoutMismatch,
             "layout/backend slot mismatch: layout has ", L.Slots,
             " slots, backend has ", Backend.slotCount());
  CipherTensor<B> Out;
  Out.L = L;
  if constexpr (BackendEncodeIsValueAgnostic<B>) {
    // Slot contents are never inspected: only the shape check of
    // packTensor applies.
    CHET_CHECK(T.C == L.C && T.H == L.H && T.W == L.W, LayoutMismatch,
               "tensor/layout shape mismatch: tensor ", T.C, " x ", T.H,
               " x ", T.W, " vs layout ", L.C, " x ", L.H, " x ", L.W);
    for (int I = 0; I < L.ctCount(); ++I)
      Out.Cts.push_back(Backend.encrypt(Backend.encode({}, S.Image)));
    return Out;
  }
  for (auto &Slots : packTensor(T, L))
    Out.Cts.push_back(Backend.encrypt(Backend.encode(Slots, S.Image)));
  return Out;
}

/// Decrypts a CipherTensor back to a plain tensor (decryptor side).
template <HisaBackend B>
Tensor3 decryptTensor(B &Backend, const CipherTensor<B> &T) {
  std::vector<std::vector<double>> Slots(T.Cts.size());
  detail::forEachIndex<B>(T.Cts.size(), [&](size_t I) {
    Slots[I] = Backend.decode(Backend.decrypt(T.Cts[I]));
  });
  return unpackTensor(Slots, T.L);
}

//===----------------------------------------------------------------------===//
// Convolution
//===----------------------------------------------------------------------===//

/// Shape of a convolution / pooling output.
inline void convOutputDims(int H, int W, int Kh, int Kw, int Stride, int Pad,
                           int &OutH, int &OutW) {
  OutH = (H + 2 * Pad - Kh) / Stride + 1;
  OutW = (W + 2 * Pad - Kw) / Stride + 1;
}

/// Derives the output layout of a stride-\p Stride spatial op: the output
/// lives on a sparser grid of the same physical image (no repacking).
/// When \p Steps is given the op leaves its output unmasked: each output
/// ciphertext is a sum of inputs rotated left by those amounts, and the
/// layout records that support. Otherwise the output is masked (or
/// zero off its valid positions by construction).
inline TensorLayout stridedOutputLayout(const TensorLayout &In, int OutC,
                                        int OutH, int OutW, int Stride,
                                        const std::vector<int> *Steps = nullptr) {
  TensorLayout L = In;
  L.C = OutC;
  L.H = OutH;
  L.W = OutW;
  L.SY = In.SY * Stride;
  L.SX = In.SX * Stride;
  L.Support.clear();
  if (Steps)
    setSupport(L, rotateSupport(slotSupport(In), *Steps, In.Slots));
  return L;
}

/// 2-D convolution, HW layout (Figure 4 of the paper): one rotation per
/// (input channel, filter tap), one scalar multiplication per
/// (output channel, input channel, tap), masking the junk entries of each
/// output ciphertext afterwards. Each input channel's rotations form one
/// hoisted batch, so the batching depends on the weights only; output
/// channels fold in parallel, each into its own accumulator.
template <HisaBackend B>
CipherTensor<B> conv2dHW(B &Backend, const CipherTensor<B> &In,
                         const ConvWeights &Wt, int Stride, int Pad,
                         const ScaleConfig &S, bool MaskOutput,
                         const KernelCache<B> &KC = {}) {
  CHET_CHECK(In.L.Kind == LayoutKind::HW, LayoutMismatch,
             "conv2dHW requires HW layout");
  CHET_CHECK(In.L.C == Wt.Cin, LayoutMismatch,
             "conv channel mismatch: input has ", In.L.C,
             " channels, weights expect ", Wt.Cin);
  CHET_CHECK(In.L.OffY >= Pad * In.L.SY && In.L.OffX >= Pad * In.L.SX,
             LayoutMismatch,
             "insufficient zero margin for the requested padding: offsets (",
             In.L.OffY, ", ", In.L.OffX, ") cannot absorb pad ", Pad);
  int OutH, OutW;
  convOutputDims(In.L.H, In.L.W, Wt.Kh, Wt.Kw, Stride, Pad, OutH, OutW);
  // Rotation of every tap some filter uses: an unmasked output is a sum of
  // the input rotated by these.
  std::vector<int> TapSteps;
  for (int Dy = 0; Dy < Wt.Kh && !MaskOutput; ++Dy)
    for (int Dx = 0; Dx < Wt.Kw; ++Dx) {
      bool AnyWeight = false;
      for (int Co = 0; Co < Wt.Cout && !AnyWeight; ++Co)
        for (int Ci = 0; Ci < Wt.Cin && !AnyWeight; ++Ci)
          AnyWeight = Wt.at(Co, Ci, Dy, Dx) != 0.0;
      if (AnyWeight)
        TapSteps.push_back(In.L.rotationFor(Dy - Pad, Dx - Pad));
    }
  CipherTensor<B> Out;
  Out.L = stridedOutputLayout(In.L, Wt.Cout, OutH, OutW, Stride,
                              MaskOutput ? nullptr : &TapSteps);

  // Per input channel: one rotLeftMany hoists the taps some filter uses,
  // then every output channel folds that channel's terms in tap order.
  std::vector<std::optional<typename B::Ct>> Acc(Wt.Cout);
  struct Tap {
    int Dy, Dx;
  };
  std::vector<Tap> Taps;
  std::vector<int> Steps;
  Taps.reserve(size_t(Wt.Kh) * Wt.Kw);
  Steps.reserve(size_t(Wt.Kh) * Wt.Kw);
  for (int Ci = 0; Ci < Wt.Cin; ++Ci) {
    Taps.clear();
    Steps.clear();
    for (int Dy = 0; Dy < Wt.Kh; ++Dy)
      for (int Dx = 0; Dx < Wt.Kw; ++Dx) {
        bool AnyWeight = false;
        for (int Co = 0; Co < Wt.Cout && !AnyWeight; ++Co)
          AnyWeight = Wt.at(Co, Ci, Dy, Dx) != 0.0;
        if (!AnyWeight)
          continue;
        Taps.push_back({Dy, Dx});
        Steps.push_back(In.L.rotationFor(Dy - Pad, Dx - Pad));
      }
    if (Taps.empty())
      continue;
    detail::RotationFan<B> Rotated(Backend, In.Cts[Ci], Steps);
    detail::forEachIndex<B>(size_t(Wt.Cout), [&](size_t Co) {
      for (size_t K = 0; K < Taps.size(); ++K) {
        double Weight = Wt.at(int(Co), Ci, Taps[K].Dy, Taps[K].Dx);
        if (Weight == 0.0)
          continue;
        detail::accumulate(Backend, Acc[Co],
                           mulScalar(Backend, Rotated[K], Weight,
                                     static_cast<uint64_t>(S.Scalar)));
      }
    });
  }
  for (int Co = 0; Co < Wt.Cout; ++Co) {
    if (!Acc[Co]) // all-zero filter: materialize an explicit zero
      Acc[Co] = mulScalar(Backend, In.Cts[0], 0.0,
                          static_cast<uint64_t>(S.Scalar));
    Out.Cts.push_back(std::move(*Acc[Co]));
  }
  if (MaskOutput)
    detail::applyValidMask(Backend, Out, S, KC);
  detail::rescaleTensor(Backend, Out, S);
  detail::addBias(Backend, Out, Wt.Bias, S, KC);
  return Out;
}

/// 2-D convolution, CHW layout: channel-diagonal rotations inside each
/// ciphertext plus one plaintext multiplication per useful
/// (output block, input block, diagonal, tap) -- the mulPlain-heavy
/// variant whose relative cost against mulScalar drives the HW-vs-CHW
/// tradeoff of Table 1 and Section 4.2.
///
/// Per input block, the Kh*Kw spatial tap rotations are hoisted in one
/// rotation fan-out; per tap, the diagonal weight vectors are built in
/// parallel, the needed channel diagonals come from a second hoisted
/// fan-out, and each output block folds its terms in diagonal order.
template <HisaBackend B>
CipherTensor<B> conv2dCHW(B &Backend, const CipherTensor<B> &In,
                          const ConvWeights &Wt, int Stride, int Pad,
                          const ScaleConfig &S, bool MaskOutput,
                          const KernelCache<B> &KC = {}) {
  CHET_CHECK(In.L.Kind == LayoutKind::CHW, LayoutMismatch,
             "conv2dCHW requires CHW layout");
  CHET_CHECK(In.L.C == Wt.Cin, LayoutMismatch,
             "conv channel mismatch: input has ", In.L.C,
             " channels, weights expect ", Wt.Cin);
  CHET_CHECK(In.L.OffY >= Pad * In.L.SY && In.L.OffX >= Pad * In.L.SX,
             LayoutMismatch,
             "insufficient zero margin for the requested padding: offsets (",
             In.L.OffY, ", ", In.L.OffX, ") cannot absorb pad ", Pad);
  CHET_CHECK(static_cast<size_t>(In.L.ChPerCt) * In.L.ChStride == In.L.Slots,
             LayoutMismatch,
             "CHW channel blocks must tile the ciphertext for cyclic "
             "diagonals");
  int OutH, OutW;
  convOutputDims(In.L.H, In.L.W, Wt.Kh, Wt.Kw, Stride, Pad, OutH, OutW);
  CipherTensor<B> Out;
  Out.L = stridedOutputLayout(In.L, Wt.Cout, OutH, OutW, Stride);

  int Block = In.L.ChPerCt;
  int InBlocks = In.L.ctCount();
  int OutBlocks = Out.L.ctCount();
  std::vector<std::optional<typename B::Ct>> Acc(OutBlocks);

  // Cache sub-key of the (Ob, Ib, D, Dy, Dx) weight plaintext.
  auto SubOf = [&](int Ob, int Ib, int D, int Dy, int Dx) {
    uint64_t Idx = uint64_t(Ob);
    Idx = Idx * InBlocks + Ib;
    Idx = Idx * Block + D;
    Idx = Idx * Wt.Kh + Dy;
    Idx = Idx * Wt.Kw + Dx;
    return kSubWeight | Idx;
  };

  std::vector<std::vector<double>> Plains(size_t(Block) * OutBlocks);
  std::vector<const typename B::Ct *> Diag(Block);
  for (int Ib = 0; Ib < InBlocks; ++Ib) {
    // All taps rotate the same input block: hoist the Kh*Kw spatial
    // rotations in one fan-out before walking the taps.
    std::vector<int> SpatialSteps;
    SpatialSteps.reserve(size_t(Wt.Kh) * Wt.Kw);
    for (int Dy = 0; Dy < Wt.Kh; ++Dy)
      for (int Dx = 0; Dx < Wt.Kw; ++Dx)
        SpatialSteps.push_back(In.L.rotationFor(Dy - Pad, Dx - Pad));
    detail::RotationFan<B> Spatials(Backend, In.Cts[Ib], SpatialSteps);
    for (int Dy = 0; Dy < Wt.Kh; ++Dy) {
      for (int Dx = 0; Dx < Wt.Kw; ++Dx) {
        detail::forEachIndex<B>(Plains.size(), [&](size_t Idx) {
          int D = int(Idx) / OutBlocks, Ob = int(Idx) % OutBlocks;
          Plains[Idx] =
              buildChwConvPlain(In.L, Out.L, Wt, Ob, Ib, D, Dy, Dx, Pad);
        });
        std::vector<size_t> NeededD;
        for (int D = 0; D < Block; ++D)
          for (int Ob = 0; Ob < OutBlocks; ++Ob)
            if (!Plains[size_t(D) * OutBlocks + Ob].empty()) {
              NeededD.push_back(size_t(D));
              break;
            }
        if (NeededD.empty())
          continue;
        const typename B::Ct &Spatial = Spatials[size_t(Dy) * Wt.Kw + Dx];
        std::fill(Diag.begin(), Diag.end(), nullptr);
        // One hoisted fan-out covers every needed channel diagonal of
        // this tap; diagonal 0 reads the tap's rotation itself.
        std::vector<int> DiagSteps;
        DiagSteps.reserve(NeededD.size());
        for (size_t D : NeededD)
          DiagSteps.push_back(int(D) * In.L.ChStride);
        detail::RotationFan<B> DiagR(Backend, Spatial, DiagSteps);
        for (size_t K = 0; K < NeededD.size(); ++K)
          Diag[NeededD[K]] = &DiagR[K];
        detail::forEachIndex<B>(size_t(OutBlocks), [&](size_t Ob) {
          for (int D = 0; D < Block; ++D) {
            std::vector<double> &Plain = Plains[size_t(D) * OutBlocks + Ob];
            if (Plain.empty())
              continue;
            auto P = cachedEncode(Backend, KC,
                                  SubOf(int(Ob), Ib, D, Dy, Dx), In.L,
                                  S.Weight, [&] { return std::move(Plain); });
            detail::accumulate(Backend, Acc[Ob],
                               mulPlain(Backend, *Diag[D], *P));
          }
        });
      }
    }
  }
  for (int Ob = 0; Ob < OutBlocks; ++Ob) {
    if (!Acc[Ob])
      Acc[Ob] = mulPlain(
          Backend, In.Cts[0],
          *cachedEncode(Backend, KC, kSubZero, In.L, S.Weight, [&] {
            return std::vector<double>(In.L.Slots, 0.0);
          }));
    Out.Cts.push_back(std::move(*Acc[Ob]));
  }
  // No masking required: the weight plaintexts are zero at every
  // non-valid output position, so margins and slack come out zero by
  // construction -- one of CHW's structural advantages.
  (void)MaskOutput;
  detail::rescaleTensor(Backend, Out, S);
  detail::addBias(Backend, Out, Wt.Bias, S, KC);
  return Out;
}

/// Layout-dispatching convolution.
template <HisaBackend B>
CipherTensor<B> conv2d(B &Backend, const CipherTensor<B> &In,
                       const ConvWeights &Wt, int Stride, int Pad,
                       const ScaleConfig &S, bool MaskOutput = true,
                       const KernelCache<B> &KC = {}) {
  return In.L.Kind == LayoutKind::HW
             ? conv2dHW(Backend, In, Wt, Stride, Pad, S, MaskOutput, KC)
             : conv2dCHW(Backend, In, Wt, Stride, Pad, S, MaskOutput, KC);
}

//===----------------------------------------------------------------------===//
// Pooling
//===----------------------------------------------------------------------===//

/// K x K average pooling with the given stride (the HE-compatible
/// replacement for max pooling; Section 6). Works identically for both
/// layouts since it never crosses channels. Each source ciphertext's
/// window sum is independent, so the per-ciphertext loop parallelizes.
template <HisaBackend B>
CipherTensor<B> averagePool(B &Backend, const CipherTensor<B> &In, int K,
                            int Stride, const ScaleConfig &S,
                            bool MaskOutput = true,
                            const KernelCache<B> &KC = {}) {
  CHET_CHECK(K >= 1 && Stride >= 1, InvalidArgument,
             "averagePool needs K >= 1 and Stride >= 1, got K = ", K,
             ", Stride = ", Stride);
  int OutH, OutW;
  convOutputDims(In.L.H, In.L.W, K, K, Stride, /*Pad=*/0, OutH, OutW);
  std::vector<int> WindowSteps;
  for (int J = 0; J < K; ++J)
    for (int I = 0; I < K; ++I)
      WindowSteps.push_back(In.L.rotationFor(J, I));
  CipherTensor<B> Out;
  Out.L = stridedOutputLayout(In.L, In.L.C, OutH, OutW, Stride,
                              MaskOutput ? nullptr : &WindowSteps);

  Out.Cts.resize(In.Cts.size());
  detail::forEachIndex<B>(In.Cts.size(), [&](size_t Idx) {
    const typename B::Ct &Src = In.Cts[Idx];
    // Separable window sum: rows first, then columns.
    typename B::Ct RowSum = Backend.copy(Src);
    for (int I = 1; I < K; ++I)
      Backend.addAssign(RowSum, rotLeft(Backend, Src, In.L.rotationFor(0, I)));
    typename B::Ct Sum = Backend.copy(RowSum);
    for (int J = 1; J < K; ++J)
      Backend.addAssign(Sum,
                        rotLeft(Backend, RowSum, In.L.rotationFor(J, 0)));
    Backend.mulScalarAssign(Sum, 1.0 / (K * K),
                            static_cast<uint64_t>(S.Scalar));
    Out.Cts[Idx] = std::move(Sum);
  });
  if (MaskOutput)
    detail::applyValidMask(Backend, Out, S, KC);
  detail::rescaleTensor(Backend, Out, S);
  return Out;
}

/// Global average pooling: one value per channel.
template <HisaBackend B>
CipherTensor<B> globalAveragePool(B &Backend, const CipherTensor<B> &In,
                                  const ScaleConfig &S,
                                  bool MaskOutput = true,
                                  const KernelCache<B> &KC = {}) {
  CHET_CHECK(In.L.H == In.L.W, LayoutMismatch,
             "global pool expects square maps, got ", In.L.H, " x ", In.L.W);
  return averagePool(Backend, In, In.L.H, In.L.H, S, MaskOutput, KC);
}

//===----------------------------------------------------------------------===//
// Activation
//===----------------------------------------------------------------------===//

/// The learnable degree-2 activation f(x) = A2 * x^2 + A1 * x of
/// Section 6, evaluated as x * (A2 * x + A1) -- one ciphertext
/// multiplication of depth 2 total. Preserves the margin invariant
/// without masking: margins hold x = 0 and 0 * (A2*0 + A1) = 0.
/// Per-ciphertext work is independent, so the loop parallelizes.
template <HisaBackend B>
CipherTensor<B> polyActivation(B &Backend, const CipherTensor<B> &In,
                               double A2, double A1, const ScaleConfig &S) {
  CipherTensor<B> Out;
  Out.L = In.L;
  Out.Cts.resize(In.Cts.size());
  detail::forEachIndex<B>(In.Cts.size(), [&](size_t Idx) {
    const typename B::Ct &Src = In.Cts[Idx];
    if (A2 == 0.0) {
      typename B::Ct Lin =
          mulScalar(Backend, Src, A1, static_cast<uint64_t>(S.Scalar));
      rescaleToFloor(Backend, Lin, S.Image);
      Out.Cts[Idx] = std::move(Lin);
      return;
    }
    typename B::Ct U =
        mulScalar(Backend, Src, A2, static_cast<uint64_t>(S.Scalar));
    rescaleToFloor(Backend, U, S.Image);
    Backend.addScalarAssign(U, A1);
    typename B::Ct Res = mul(Backend, Src, U);
    rescaleToFloor(Backend, Res, S.Image);
    Out.Cts[Idx] = std::move(Res);
  });
  return Out;
}

//===----------------------------------------------------------------------===//
// Fully connected
//===----------------------------------------------------------------------===//

/// Which fully-connected algorithm to run. Auto applies the cost
/// heuristic in fcAlgorithmFor (deterministic in the layout and weights,
/// so the compiler's analysis interpretation and the real execution make
/// the same choice).
enum class FcAlgorithm { Auto, Replicate, Bsgs };

/// Fully connected layer by replicate-and-sum on a shared rotation tree
/// (DESIGN.md §5l). planFcReplicate splits the slot index bits: each
/// input ciphertext becomes the sum of its rotated copies (one rotation
/// per copy bit), every output row reads its own copy through one packed
/// weight plaintext per group, one rotate-and-sum over the sum bits puts
/// every row's total at its own slot, and one mask keeps those slots --
/// about log2(slots) rotations for a layer instead of Out * log2(slots).
/// Where junk an unmasked producer left in the input would collide
/// across copies, the plan trades copy bits for groups of rows; when the
/// rows do not fit the copies of one ciphertext, it has no copies and one
/// row per group: the per-row kernel (full tree, mask at the row's slot).
/// Weights sit at the input's physical feature positions, so
/// strided/decimated layouts need no compaction.
///
/// \p OutKind selects the output layout, realizing the paper's layout
/// policies (Section 5.3): CHW packs all neurons into one ciphertext (the
/// "fully connected layers are typically faster when the output is in
/// CHW" case); HW keeps the literal HW discipline of one ciphertext per
/// channel, i.e. one per-row group per neuron, which makes everything
/// downstream pay per-neuron costs.
///
/// Copies are independent per input ciphertext and groups are
/// independent up to the final accumulation, so both map in parallel and
/// groups fold in group order.
///
/// fullyConnectedPlanned runs a given plan (benchmarks compare the
/// per-row plan against the chosen one); fullyConnectedReplicate plans.
template <HisaBackend B>
CipherTensor<B> fullyConnectedPlanned(B &Backend, const CipherTensor<B> &In,
                                      const FcWeights &Wt,
                                      const ScaleConfig &S, const FcPlan &Plan,
                                      const KernelCache<B> &KC = {}) {
  CHET_CHECK(Wt.In == In.L.C * In.L.H * In.L.W, LayoutMismatch,
             "FC feature count mismatch: weights expect ", Wt.In,
             " features, input provides ", In.L.C * In.L.H * In.L.W);
  size_t Slots = In.L.Slots;
  CHET_CHECK(static_cast<size_t>(Wt.Out) <= Slots, LayoutMismatch,
             "too many outputs: ", Wt.Out, " > ", Slots, " slots");
  CipherTensor<B> Out;
  Out.L = Plan.Out;
  size_t Cts = size_t(In.L.ctCount());

  // Copy tree: x += rotLeft(x, 2^b) per copy bit. All amounts are powers
  // of two (covered by the stock key set).
  std::vector<typename B::Ct> Copies;
  if (!Plan.CopySteps.empty()) {
    Copies.resize(Cts);
    detail::forEachIndex<B>(Cts, [&](size_t I) {
      typename B::Ct X = Backend.copy(In.Cts[I]);
      for (int Step : Plan.CopySteps)
        Backend.addAssign(X, rotLeft(Backend, X, Step));
      Copies[I] = std::move(X);
    });
    checkActiveDeadline("fullyConnected");
  }
  const std::vector<typename B::Ct> &Src =
      Plan.CopySteps.empty() ? In.Cts : Copies;

  // One group: packed dot products, sum tree, target-slot mask.
  auto GroupDot = [&](size_t G) -> typename B::Ct {
    const std::vector<FcPlan::Row> &Rows = Plan.Groups[G];
    std::optional<typename B::Ct> Dot;
    for (size_t CtIdx = 0; CtIdx < Cts; ++CtIdx) {
      if (!fcGroupBlockHasWeight(In.L, Wt, Rows, int(CtIdx)))
        continue;
      auto P = cachedEncode(Backend, KC, kSubWeight | (G * Cts + CtIdx), In.L,
                            S.Weight, [&] {
                              return buildFcGroupPlain(In.L, Wt, Rows,
                                                       int(CtIdx));
                            });
      detail::accumulate(Backend, Dot, mulPlain(Backend, Src[CtIdx], *P));
    }
    if (!Dot)
      Dot = mulPlain(Backend, In.Cts[0],
                     *cachedEncode(Backend, KC, kSubZero, In.L, S.Weight,
                                   [&] {
                       return std::vector<double>(Slots, 0.0);
                     }));
    for (int Step : Plan.SumSteps)
      Backend.addAssign(*Dot, rotLeft(Backend, *Dot, Step));
    Backend.mulPlainAssign(
        *Dot, *cachedEncode(Backend, KC, kSubSlotMask | uint64_t(G), In.L,
                            S.Mask,
                            [&] { return buildFcGroupMask(Slots, Rows); }));
    rescaleToFloor(Backend, *Dot, S.Image);
    return std::move(*Dot);
  };

  if (Plan.Out.Kind == LayoutKind::CHW) {
    std::optional<typename B::Ct> Acc;
    detail::parallelReduce(Backend, Acc, Plan.Groups.size(),
                           [&](size_t G) -> std::optional<typename B::Ct> {
                             return GroupDot(G);
                           });
    Out.Cts.push_back(std::move(*Acc));
  } else {
    Out.Cts.resize(Plan.Groups.size());
    detail::forEachIndex<B>(Plan.Groups.size(),
                            [&](size_t G) { Out.Cts[G] = GroupDot(G); });
  }
  detail::addBias(Backend, Out, Wt.Bias, S, KC);
  return Out;
}

template <HisaBackend B>
CipherTensor<B> fullyConnectedReplicate(B &Backend, const CipherTensor<B> &In,
                                        const FcWeights &Wt,
                                        const ScaleConfig &S,
                                        LayoutKind OutKind = LayoutKind::CHW,
                                        const KernelCache<B> &KC = {}) {
  return fullyConnectedPlanned(Backend, In, Wt, S,
                               planFcReplicate(In.L, Wt, OutKind), KC);
}

/// Giant step for a baby-step/giant-step sweep over \p Slots diagonals:
/// the power of two nearest sqrt(Slots), balancing baby and giant
/// rotations.
inline int fcGiantStep(size_t Slots) {
  int G = 1;
  while (static_cast<size_t>(G) * G < Slots)
    G <<= 1;
  return G;
}

/// Fully connected layer by the Halevi-Shoup baby-step/giant-step
/// diagonal method over the slot domain: out = sum_d diag_d (x) rot_d(in)
/// with d = k*G + b, sharing the G baby rotations across all giants --
/// O(sqrt(slots)) rotations total instead of Out * log(slots). Works on
/// strided inputs via generalized diagonals (the matrix is indexed by
/// physical slot), produces the dense CHW vector directly, and needs no
/// masking: rows >= Out are identically zero in every diagonal. The
/// needed baby rotations form one hoisted batch; each giant's
/// per-diagonal terms map in parallel and fold in diagonal order (giants
/// stay in K order).
template <HisaBackend B>
CipherTensor<B> fullyConnectedBsgs(B &Backend, const CipherTensor<B> &In,
                                   const FcWeights &Wt,
                                   const ScaleConfig &S,
                                   const KernelCache<B> &KC = {}) {
  CHET_CHECK(In.L.ctCount() == 1, LayoutMismatch,
             "BSGS FC requires a single-ciphertext input, got ",
             In.L.ctCount(), " ciphertexts");
  size_t Slots = In.L.Slots;
  CHET_CHECK(static_cast<size_t>(Wt.Out) <= Slots, LayoutMismatch,
             "too many outputs: ", Wt.Out, " > ", Slots, " slots");
  int G = fcGiantStep(Slots);
  auto Plains = buildFcBsgsPlains(In.L, Wt, G);

  auto DiagSub = [&](int K, int Step) {
    return kSubWeight | (uint64_t(K) * uint64_t(G) + uint64_t(Step));
  };

  // One hoisted fan-out produces every needed baby rotation; baby step 0
  // reads the input itself.
  std::vector<int> BabySteps;
  {
    std::vector<bool> Used(G, false);
    for (const auto &E : Plains)
      Used[E.first.second] = true;
    for (int Step = 0; Step < G; ++Step)
      if (Used[Step])
        BabySteps.push_back(Step);
  }
  detail::RotationFan<B> BabyR(Backend, In.Cts[0], BabySteps);
  std::vector<const typename B::Ct *> Baby(G);
  for (size_t I = 0; I < BabySteps.size(); ++I)
    Baby[BabySteps[I]] = &BabyR[I];
  std::optional<typename B::Ct> Acc;
  auto It = Plains.begin();
  while (It != Plains.end()) {
    int K = It->first.first;
    std::vector<decltype(It)> Group;
    for (; It != Plains.end() && It->first.first == K; ++It)
      Group.push_back(It);
    std::optional<typename B::Ct> Giant;
    detail::parallelReduce(
        Backend, Giant, Group.size(),
        [&](size_t I) -> std::optional<typename B::Ct> {
          auto GIt = Group[I];
          auto P = cachedEncode(Backend, KC, DiagSub(K, GIt->first.second),
                                In.L, S.Weight, [&] { return GIt->second; });
          return mulPlain(Backend, *Baby[GIt->first.second], *P);
        });
    if (K != 0)
      Backend.rotLeftAssign(*Giant, K * G);
    detail::accumulate(Backend, Acc, std::move(*Giant));
  }
  if (!Acc)
    Acc = mulPlain(Backend, In.Cts[0],
                   *cachedEncode(Backend, KC, kSubZero, In.L, S.Weight, [&] {
                     return std::vector<double>(Slots, 0.0);
                   }));
  CipherTensor<B> Out;
  Out.L = makeDenseVectorLayout(Wt.Out, Slots);
  rescaleToFloor(Backend, *Acc, S.Image);
  Out.Cts.push_back(std::move(*Acc));
  detail::addBias(Backend, Out, Wt.Bias, S, KC);
  return Out;
}

/// Deterministic algorithm choice (both the compiler's analysis
/// interpretation and the real execution evaluate this on identical
/// inputs, so they agree). Rough per-op weights: one rotation costs about
/// six plaintext multiplications. Replicate is priced as the per-row
/// kernel even where the shared tree packs the rows: the benchmark's
/// decision table pins these choices (ROADMAP open item).
inline FcAlgorithm fcAlgorithmFor(const TensorLayout &In,
                                  const FcWeights &Wt, LayoutKind OutKind) {
  if (OutKind == LayoutKind::HW || In.ctCount() > 1)
    return FcAlgorithm::Replicate;
  constexpr double RotWeight = 6.0;
  double LogSlots = 0;
  for (size_t S = 1; S < In.Slots; S <<= 1)
    ++LogSlots;
  double Replicate = Wt.Out * (LogSlots * RotWeight + 2.0);
  int G = fcGiantStep(In.Slots);
  double Bsgs = (G + static_cast<double>(In.Slots) / G) * RotWeight +
                static_cast<double>(countFcDiagonals(In, Wt));
  return Bsgs < Replicate ? FcAlgorithm::Bsgs : FcAlgorithm::Replicate;
}

/// Layout- and algorithm-dispatching fully connected layer.
template <HisaBackend B>
CipherTensor<B> fullyConnected(B &Backend, const CipherTensor<B> &In,
                               const FcWeights &Wt, const ScaleConfig &S,
                               LayoutKind OutKind = LayoutKind::CHW,
                               FcAlgorithm Alg = FcAlgorithm::Auto,
                               const KernelCache<B> &KC = {}) {
  if (Alg == FcAlgorithm::Auto)
    Alg = fcAlgorithmFor(In.L, Wt, OutKind);
  if (Alg == FcAlgorithm::Bsgs)
    return fullyConnectedBsgs(Backend, In, Wt, S, KC);
  return fullyConnectedReplicate(Backend, In, Wt, S, OutKind, KC);
}

//===----------------------------------------------------------------------===//
// Channel concatenation
//===----------------------------------------------------------------------===//

/// Concatenates two tensors along the channel dimension (SqueezeNet Fire
/// modules). HW layout is free (ciphertext lists concatenate); CHW is
/// free when the first tensor fills whole ciphertexts, and otherwise
/// extracts channels by rotation + masking (one extra level). The general
/// path parallelizes per output block: channels within a block fold in
/// channel order.
template <HisaBackend B>
CipherTensor<B> concatChannels(B &Backend, const CipherTensor<B> &A,
                               const CipherTensor<B> &Bt,
                               const ScaleConfig &S,
                               const KernelCache<B> &KC = {}) {
  CHET_CHECK(A.L.Kind == Bt.L.Kind && A.L.PhysH == Bt.L.PhysH &&
                 A.L.PhysW == Bt.L.PhysW && A.L.OffY == Bt.L.OffY &&
                 A.L.OffX == Bt.L.OffX && A.L.SY == Bt.L.SY &&
                 A.L.SX == Bt.L.SX && A.L.H == Bt.L.H && A.L.W == Bt.L.W,
             LayoutMismatch, "concat requires identical geometry");
  CipherTensor<B> Out;
  Out.L = A.L;
  Out.L.C = A.L.C + Bt.L.C;

  auto copyAll = [&](const CipherTensor<B> &T) {
    for (const auto &Ct : T.Cts)
      Out.Cts.push_back(Backend.copy(Ct));
  };

  if (A.L.Kind == LayoutKind::HW ||
      (A.L.C % A.L.ChPerCt == 0 && A.L.ChStride == Bt.L.ChStride)) {
    copyAll(A);
    copyAll(Bt);
    std::vector<uint64_t> Both = slotSupport(A.L);
    std::vector<uint64_t> FromB = slotSupport(Bt.L);
    for (size_t W = 0; W < Both.size(); ++W)
      Both[W] |= FromB[W];
    setSupport(Out.L, std::move(Both));
    return Out;
  }
  Out.L.Support.clear(); // every channel is masked below

  // General CHW path: assemble each output ciphertext channel by channel
  // with rotations and single-block masks (everything masked so all
  // contributions share one scale).
  CHET_CHECK(A.L.ChStride == Bt.L.ChStride && A.L.ChPerCt == Bt.L.ChPerCt,
             LayoutMismatch, "concat requires matching channel blocking");
  int Block = Out.L.ChPerCt;
  auto ChannelTerm = [&](int C) {
    const CipherTensor<B> &Src = C < A.L.C ? A : Bt;
    int SrcC = C < A.L.C ? C : C - A.L.C;
    int Delta = (SrcC % Block - C % Block) * Out.L.ChStride;
    typename B::Ct T = rotLeft(Backend, Src.Cts[Src.L.ctOf(SrcC)], Delta);
    // Mask just this channel's block (its valid positions).
    auto Mask = cachedEncode(Backend, KC, kSubConcatMask | uint64_t(C),
                             Out.L, S.Mask, [&] {
                               std::vector<double> M(Out.L.Slots, 0.0);
                               for (int Y = 0; Y < Out.L.H; ++Y)
                                 for (int X = 0; X < Out.L.W; ++X)
                                   M[Out.L.slotOf(C, Y, X)] = 1.0;
                               return M;
                             });
    Backend.mulPlainAssign(T, *Mask);
    return T;
  };
  std::vector<std::optional<typename B::Ct>> Acc(Out.L.ctCount());
  detail::forEachIndex<B>(Acc.size(), [&](size_t Blk) {
    int Hi = std::min(Out.L.C, int(Blk + 1) * Block);
    for (int C = int(Blk) * Block; C < Hi; ++C)
      detail::accumulate(Backend, Acc[Blk], ChannelTerm(C));
  });
  for (auto &AccCt : Acc) {
    rescaleToFloor(Backend, *AccCt, S.Image);
    Out.Cts.push_back(std::move(*AccCt));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Layout conversion
//===----------------------------------------------------------------------===//

/// Converts between HW and CHW (Section 5.3's layout policies switch
/// layouts between operations). HW -> CHW is rotations and additions
/// only; CHW -> HW additionally masks each extracted channel (one more
/// multiplicative level).
template <HisaBackend B>
CipherTensor<B> convertLayout(B &Backend, const CipherTensor<B> &In,
                              LayoutKind Target, const ScaleConfig &S,
                              const KernelCache<B> &KC = {}) {
  if (In.L.Kind == Target) {
    CipherTensor<B> Out;
    Out.L = In.L;
    for (const auto &Ct : In.Cts)
      Out.Cts.push_back(Backend.copy(Ct));
    return Out;
  }

  CipherTensor<B> Out;
  if (Target == LayoutKind::CHW) {
    // HW -> CHW: slide each channel into its block; the HW ciphertexts
    // are zero outside the physical image, so plain additions compose.
    TensorLayout L = In.L;
    size_t Image = static_cast<size_t>(L.PhysH) * L.PhysW;
    int ChStride = 1;
    while (static_cast<size_t>(ChStride) < Image)
      ChStride <<= 1;
    L.Kind = LayoutKind::CHW;
    L.ChStride = ChStride;
    L.ChPerCt = static_cast<int>(L.Slots / ChStride);
    std::vector<int> BlockSteps;
    for (int Block = 0; Block < std::min(L.C, L.ChPerCt); ++Block)
      BlockSteps.push_back(-Block * ChStride);
    setSupport(L, rotateSupport(slotSupport(In.L), BlockSteps, L.Slots));
    Out.L = L;
    std::vector<std::optional<typename B::Ct>> Acc(L.ctCount());
    detail::forEachIndex<B>(Acc.size(), [&](size_t Blk) {
      int Hi = std::min(L.C, int(Blk + 1) * L.ChPerCt);
      for (int C = int(Blk) * L.ChPerCt; C < Hi; ++C) {
        int Block = C % L.ChPerCt;
        detail::accumulate(
            Backend, Acc[Blk],
            Block == 0 ? Backend.copy(In.Cts[C])
                       : rotRight(Backend, In.Cts[C], Block * ChStride));
      }
    });
    for (auto &A : Acc)
      Out.Cts.push_back(std::move(*A));
    return Out;
  }

  // CHW -> HW: extract each channel block and mask away the neighbors.
  TensorLayout L = In.L;
  L.Kind = LayoutKind::HW;
  int ChStride = L.ChStride;
  L.ChStride = 0;
  L.ChPerCt = 1;
  L.Support.clear(); // every channel is masked below
  Out.L = L;
  Out.Cts.resize(size_t(L.C));
  detail::forEachIndex<B>(size_t(L.C), [&](size_t CIdx) {
    int C = int(CIdx);
    int Block = C % In.L.ChPerCt;
    typename B::Ct T =
        Block == 0 ? Backend.copy(In.Cts[In.L.ctOf(C)])
                   : rotLeft(Backend, In.Cts[In.L.ctOf(C)],
                             Block * ChStride);
    Backend.mulPlainAssign(
        T, *cachedEncode(Backend, KC, kSubMask | uint64_t(C), L, S.Mask,
                         [&] { return buildValidMask(L, C); }));
    rescaleToFloor(Backend, T, S.Image);
    Out.Cts[CIdx] = std::move(T);
  });
  return Out;
}

} // namespace chet

#endif // CHET_RUNTIME_KERNELS_H
