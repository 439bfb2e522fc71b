//===- Layout.h - CipherTensor data layouts --------------------*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The layout metadata of HTC's CipherTensor (Section 4.2 of the paper):
/// how a logical C x H x W tensor maps onto a vector of FHE ciphertexts,
/// "with each ciphertext encrypting a vector". The metadata is kept in the
/// clear -- it only depends on tensor dimensions, which the compiler and
/// server already know.
///
/// Two layout families are supported, as in the paper:
///   - HW:  each ciphertext holds one channel's (padded) H x W image;
///          C ciphertexts per tensor.
///   - CHW: each ciphertext blocks several channels, each occupying a
///          power-of-two-sized region (ChStride) so channel rotations wrap
///          cyclically inside the ciphertext.
///
/// Strides (SY, SX) implement strided convolution and pooling without
/// repacking: downsampled tensors simply live on a sparser grid of the
/// same physical image, and subsequent kernels rotate by stride multiples.
/// The offsets (OffY, OffX) reserve zero margins so that padded ('same')
/// convolutions read zeros instead of wrapped garbage; the runtime
/// maintains the invariant that every physical slot outside the valid
/// logical positions is zero (re-established by masking where required --
/// the multiplicative-depth cost the paper discusses in Section 3.1);
/// where it skips the mask, the layout's Support records which slots may
/// still hold junk.
///
//===----------------------------------------------------------------------===//

#ifndef CHET_RUNTIME_LAYOUT_H
#define CHET_RUNTIME_LAYOUT_H

#include "runtime/PlainTensor.h"

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace chet {

/// Which layout family a CipherTensor uses (Section 4.2).
enum class LayoutKind { HW, CHW };

/// Physical placement of a logical C x H x W tensor in ciphertext slots.
struct TensorLayout {
  LayoutKind Kind = LayoutKind::HW;
  int C = 0, H = 0, W = 0; ///< Logical dimensions.
  int PhysH = 0, PhysW = 0; ///< Physical image grid (includes margins).
  int OffY = 0, OffX = 0;   ///< Physical coordinates of logical (0, 0).
  int SY = 1, SX = 1;       ///< Physical steps per logical unit.
  int ChStride = 0;         ///< CHW: slots per channel block (power of 2).
  int ChPerCt = 1;          ///< Channels per ciphertext.
  size_t Slots = 0;         ///< Slot count of the backing ciphertexts.
  /// Slots of any one ciphertext that may hold a nonzero value, one bit
  /// per slot. Empty means only the valid positions (the margin
  /// invariant). Kernels that skip their output mask record the wider
  /// support their rotations leave behind (setSupport), so a kernel that
  /// adds rotated copies of its input before multiplying (the shared-tree
  /// FC) can tell zero slots from junk.
  std::vector<uint64_t> Support;

  /// Number of ciphertexts the tensor occupies.
  int ctCount() const { return (C + ChPerCt - 1) / ChPerCt; }

  /// Ciphertext index holding channel \p Ch.
  int ctOf(int Ch) const { return Ch / ChPerCt; }

  /// Slot of logical element (Ch, Y, X) inside its ciphertext. Y and X may
  /// address margin positions (negative or beyond H/W) as long as the
  /// physical coordinates stay on the grid; use isOnGrid to check.
  long slotOf(int Ch, int Y, int X) const {
    long Row = OffY + static_cast<long>(Y) * SY;
    long Col = OffX + static_cast<long>(X) * SX;
    return static_cast<long>(Ch % ChPerCt) * ChStride + Row * PhysW + Col;
  }

  /// True if logical position (Y, X) maps inside the physical grid.
  bool isOnGrid(int Y, int X) const {
    long Row = OffY + static_cast<long>(Y) * SY;
    long Col = OffX + static_cast<long>(X) * SX;
    return Row >= 0 && Row < PhysH && Col >= 0 && Col < PhysW;
  }

  /// Rotation amount aligning input offset (Dy, Dx) with the output grid:
  /// rotating left by this amount brings in(y + Dy, x + Dx) to the slot of
  /// (y, x).
  int rotationFor(int Dy, int Dx) const {
    return Dy * SY * PhysW + Dx * SX;
  }

  bool operator==(const TensorLayout &O) const = default;
};

/// Bitset of the slots that may be nonzero in some ciphertext of \p L:
/// L.Support, or the valid positions when none is recorded.
std::vector<uint64_t> slotSupport(const TensorLayout &L);

/// Union of \p Bits rotated left by each of \p Steps (slot j + s moves to
/// slot j): the support of a sum of rotated copies.
std::vector<uint64_t> rotateSupport(const std::vector<uint64_t> &Bits,
                                    const std::vector<int> &Steps,
                                    size_t Slots);

/// Records \p Bits as the support of \p L, or clears the record when
/// \p Bits stays inside L's valid positions.
void setSupport(TensorLayout &L, std::vector<uint64_t> Bits);

/// Builds the layout for freshly packed input of shape C x H x W with a
/// zero margin of \p PadPhys physical cells on every side.
/// For CHW, ChPerCt is slots / ChStride (channel rotations wrap
/// cyclically); the tensor may still need multiple ciphertexts.
TensorLayout makeInputLayout(LayoutKind Kind, int C, int H, int W,
                             int PadPhys, size_t Slots);

/// Layout of a dense length-C vector at slots 0..C-1 of one ciphertext
/// (the natural output of a fully connected layer).
TensorLayout makeDenseVectorLayout(int C, size_t Slots);

//===----------------------------------------------------------------------===//
// Plain-side packing and mask/weight builders (backend-independent).
//===----------------------------------------------------------------------===//

/// Scatters tensor \p T into per-ciphertext slot vectors per \p L.
std::vector<std::vector<double>> packTensor(const Tensor3 &T,
                                            const TensorLayout &L);

/// Gathers a tensor back from per-ciphertext slot vectors.
Tensor3 unpackTensor(const std::vector<std::vector<double>> &Slots,
                     const TensorLayout &L);

/// 0/1 mask of the valid logical positions of ciphertext \p CtIndex.
std::vector<double> buildValidMask(const TensorLayout &L, int CtIndex);

/// Per-slot bias vector: Bias[c] at every valid position of channel c in
/// ciphertext \p CtIndex.
std::vector<double> buildBiasVector(const TensorLayout &L, int CtIndex,
                                    const std::vector<double> &Bias);

/// The CHW-convolution weight vector for (output ct \p Ob, input ct \p Ib,
/// channel diagonal \p D, filter tap (\p Dy, \p Dx)): at each valid output
/// position of block channel c it holds W[Ob*B + c][Ib*B + (c+D) mod B],
/// and zero wherever the rotated input would read garbage. Returns an
/// empty vector when identically zero (the caller skips the rotation).
std::vector<double> buildChwConvPlain(const TensorLayout &In,
                                      const TensorLayout &Out,
                                      const ConvWeights &Wt, int Ob, int Ib,
                                      int D, int Dy, int Dx, int Pad);

/// How the replicate-and-sum FC kernel packs its output rows (DESIGN.md
/// §5l). Each input ciphertext first becomes the sum of its copies
/// x += rotLeft(x, s) for s in CopySteps; each group then multiplies
/// those copies by one packed weight plaintext, rotate-and-sums over
/// SumSteps, and masks its rows' target slots. The per-row kernel is the
/// case with no copy steps, the full log2(slots) tree and one row per
/// group.
struct FcPlan {
  struct Row {
    int Index;   ///< Output neuron.
    long Shift;  ///< Copy the row reads: its features sit Shift slots lower.
    long Target; ///< Slot the row's total lands in.
  };
  std::vector<int> CopySteps;
  std::vector<int> SumSteps;
  std::vector<std::vector<Row>> Groups;
  TensorLayout Out; ///< Layout of the (masked) output.
};

/// The per-row plan: no copies, the full log2(slots) tree, each row its
/// own group landing at slot r of a dense vector (CHW) or at slot 0 of
/// its own ciphertext (HW).
FcPlan perRowFcPlan(const TensorLayout &In, const FcWeights &Wt,
                    LayoutKind OutKind);

/// Chooses the bit split for an FC layer from \p In to \p Wt.Out rows.
/// A pure function of the layout (support included), the weights'
/// shape and \p OutKind, so analysis and execution agree.
FcPlan planFcReplicate(const TensorLayout &In, const FcWeights &Wt,
                       LayoutKind OutKind);

/// The packed weight plaintext of one plan group for input ciphertext
/// \p CtIndex: each row's weights at its features' slots minus its copy
/// shift.
std::vector<double> buildFcGroupPlain(const TensorLayout &In,
                                      const FcWeights &Wt,
                                      const std::vector<FcPlan::Row> &Group,
                                      int CtIndex);

/// Whether buildFcGroupPlain would be nonzero, decided by scanning the
/// group's weights (feature count) instead of materializing the slot
/// vector (slot count, typically 20x larger).
bool fcGroupBlockHasWeight(const TensorLayout &In, const FcWeights &Wt,
                           const std::vector<FcPlan::Row> &Group,
                           int CtIndex);

/// 0/1 mask of a group's target slots.
std::vector<double> buildFcGroupMask(size_t Slots,
                                     const std::vector<FcPlan::Row> &Group);

//===----------------------------------------------------------------------===//
// Baby-step/giant-step FC support (Halevi-Shoup diagonals).
//===----------------------------------------------------------------------===//

/// The generalized-diagonal plaintexts of the FC matrix over the slot
/// domain, grouped for a baby-step/giant-step evaluation with giant step
/// \p GiantStep: entry (k, b) holds P[i] = M[(i - k*G) mod L][(i + b) mod
/// L], where M[r][p] is row r's weight for the input feature at physical
/// slot p (zero elsewhere). Only nonzero plaintexts are returned. The
/// input tensor must occupy a single ciphertext.
std::map<std::pair<int, int>, std::vector<double>>
buildFcBsgsPlains(const TensorLayout &In, const FcWeights &Wt,
                  int GiantStep);

/// Number of distinct nonzero diagonals (= mulPlain count of the BSGS
/// evaluation); used by the algorithm-selection heuristic without
/// materializing the plaintexts.
size_t countFcDiagonals(const TensorLayout &In, const FcWeights &Wt);

} // namespace chet

#endif // CHET_RUNTIME_LAYOUT_H
