//===- Layout.cpp - CipherTensor data layouts ------------------------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Layout.h"

#include "support/Error.h"

#include <algorithm>
#include <cassert>

using namespace chet;

static int pow2Ceil(int X) {
  int P = 1;
  while (P < X)
    P <<= 1;
  return P;
}

TensorLayout chet::makeInputLayout(LayoutKind Kind, int C, int H, int W,
                                   int PadPhys, size_t Slots) {
  CHET_CHECK(C > 0 && H > 0 && W > 0 && PadPhys >= 0, InvalidArgument,
             "invalid tensor shape ", C, " x ", H, " x ", W,
             " with physical pad ", PadPhys);
  TensorLayout L;
  L.Kind = Kind;
  L.C = C;
  L.H = H;
  L.W = W;
  L.PhysH = H + 2 * PadPhys;
  L.PhysW = W + 2 * PadPhys;
  L.OffY = PadPhys;
  L.OffX = PadPhys;
  L.SY = 1;
  L.SX = 1;
  L.Slots = Slots;
  size_t Image = static_cast<size_t>(L.PhysH) * L.PhysW;
  CHET_CHECK(Image <= Slots, LayoutMismatch,
             "padded image does not fit in one ciphertext: ", L.PhysH, " x ",
             L.PhysW, " = ", Image, " > ", Slots, " slots");
  if (Kind == LayoutKind::HW) {
    L.ChPerCt = 1;
    L.ChStride = 0;
  } else {
    // Power-of-two channel regions so block rotations wrap cyclically
    // (ChPerCt * ChStride == Slots).
    L.ChStride = pow2Ceil(static_cast<int>(Image));
    assert(static_cast<size_t>(L.ChStride) <= Slots);
    L.ChPerCt = static_cast<int>(Slots / L.ChStride);
  }
  return L;
}

TensorLayout chet::makeDenseVectorLayout(int C, size_t Slots) {
  CHET_CHECK(C > 0 && static_cast<size_t>(C) <= Slots, LayoutMismatch,
             "dense vector exceeds slot count: ", C, " > ", Slots);
  TensorLayout L;
  L.Kind = LayoutKind::CHW;
  L.C = C;
  L.H = 1;
  L.W = 1;
  L.PhysH = 1;
  L.PhysW = 1;
  L.OffY = 0;
  L.OffX = 0;
  L.SY = 1;
  L.SX = 1;
  L.ChStride = 1;
  L.ChPerCt = static_cast<int>(Slots);
  L.Slots = Slots;
  return L;
}

std::vector<std::vector<double>> chet::packTensor(const Tensor3 &T,
                                                  const TensorLayout &L) {
  CHET_CHECK(T.C == L.C && T.H == L.H && T.W == L.W, LayoutMismatch,
             "tensor/layout shape mismatch: tensor ", T.C, " x ", T.H, " x ",
             T.W, " vs layout ", L.C, " x ", L.H, " x ", L.W);
  std::vector<std::vector<double>> Out(L.ctCount(),
                                       std::vector<double>(L.Slots, 0.0));
  for (int C = 0; C < L.C; ++C)
    for (int Y = 0; Y < L.H; ++Y)
      for (int X = 0; X < L.W; ++X) {
        assert(L.isOnGrid(Y, X) && "valid position off the physical grid");
        Out[L.ctOf(C)][L.slotOf(C, Y, X)] = T.at(C, Y, X);
      }
  return Out;
}

Tensor3 chet::unpackTensor(const std::vector<std::vector<double>> &Slots,
                           const TensorLayout &L) {
  CHET_CHECK(static_cast<int>(Slots.size()) == L.ctCount(), LayoutMismatch,
             "ciphertext count mismatch: got ", Slots.size(), ", layout needs ",
             L.ctCount());
  Tensor3 T(L.C, L.H, L.W);
  for (int C = 0; C < L.C; ++C)
    for (int Y = 0; Y < L.H; ++Y)
      for (int X = 0; X < L.W; ++X)
        T.at(C, Y, X) = Slots[L.ctOf(C)][L.slotOf(C, Y, X)];
  return T;
}

std::vector<double> chet::buildValidMask(const TensorLayout &L,
                                         int CtIndex) {
  std::vector<double> Mask(L.Slots, 0.0);
  for (int C = CtIndex * L.ChPerCt;
       C < (CtIndex + 1) * L.ChPerCt && C < L.C; ++C)
    for (int Y = 0; Y < L.H; ++Y)
      for (int X = 0; X < L.W; ++X)
        Mask[L.slotOf(C, Y, X)] = 1.0;
  return Mask;
}

std::vector<double> chet::buildBiasVector(const TensorLayout &L, int CtIndex,
                                          const std::vector<double> &Bias) {
  CHET_CHECK(static_cast<int>(Bias.size()) == L.C, LayoutMismatch,
             "bias size mismatch: ", Bias.size(), " biases for ", L.C,
             " channels");
  std::vector<double> Out(L.Slots, 0.0);
  for (int C = CtIndex * L.ChPerCt;
       C < (CtIndex + 1) * L.ChPerCt && C < L.C; ++C)
    for (int Y = 0; Y < L.H; ++Y)
      for (int X = 0; X < L.W; ++X)
        Out[L.slotOf(C, Y, X)] = Bias[C];
  return Out;
}

std::vector<double> chet::buildChwConvPlain(const TensorLayout &In,
                                            const TensorLayout &Out,
                                            const ConvWeights &Wt, int Ob,
                                            int Ib, int D, int Dy, int Dx,
                                            int Pad) {
  assert(In.Kind == LayoutKind::CHW && Out.Kind == LayoutKind::CHW);
  assert(In.ChPerCt == Out.ChPerCt && In.ChStride == Out.ChStride &&
         "CHW convolution requires matching channel blocking");
  int B = In.ChPerCt;
  int Stride = Out.SY / In.SY;
  std::vector<double> Vec(In.Slots, 0.0);
  bool Any = false;
  for (int C = 0; C < B; ++C) {
    int Co = Ob * B + C;
    if (Co >= Wt.Cout)
      continue;
    int CiLocal = (C + D) % B;
    int Ci = Ib * B + CiLocal;
    if (Ci >= Wt.Cin)
      continue;
    double Weight = Wt.at(Co, Ci, Dy, Dx);
    if (Weight == 0.0)
      continue;
    for (int Y = 0; Y < Out.H; ++Y) {
      int InY = Y * Stride + Dy - Pad;
      for (int X = 0; X < Out.W; ++X) {
        int InX = X * Stride + Dx - Pad;
        // The rotated ciphertext reads in(Ci, InY, InX); keep the weight
        // only where that position is on the physical grid (margins are
        // zero by the runtime invariant; off-grid would be wrapped
        // garbage).
        if (!In.isOnGrid(InY, InX))
          continue;
        Vec[Out.slotOf(Co, Y, X)] = Weight;
        Any = true;
      }
    }
  }
  if (!Any)
    Vec.clear();
  return Vec;
}

namespace {

using Bits = std::vector<uint64_t>;

Bits emptyBits(size_t Slots) { return Bits((Slots + 63) / 64, 0); }


void setBit(Bits &B, size_t I) { B[I / 64] |= uint64_t(1) << (I % 64); }

/// Calls Fn(I) for every set bit I.
template <typename FnT> void forEachBit(const Bits &B, FnT Fn) {
  for (size_t W = 0; W < B.size(); ++W)
    for (uint64_t V = B[W]; V; V &= V - 1)
      Fn(W * 64 + static_cast<size_t>(__builtin_ctzll(V)));
}

Bits validBits(const TensorLayout &L) {
  Bits B = emptyBits(L.Slots);
  for (int C = 0; C < L.C; ++C)
    for (int Y = 0; Y < L.H; ++Y)
      for (int X = 0; X < L.W; ++X)
        setBit(B, static_cast<size_t>(L.slotOf(C, Y, X)));
  return B;
}

int log2Exact(size_t V) {
  int L = 0;
  while ((size_t(1) << L) < V)
    ++L;
  return L;
}

/// ORs into \p Out the bits of \p In rotated left by \p K (bit j + K
/// moves to bit j), word by word when the (power-of-two) slot count fills
/// whole words.
void orRotated(Bits &Out, const Bits &In, long K, size_t Slots) {
  long N = static_cast<long>(Slots);
  K = (K % N + N) % N;
  if (Slots < 64) {
    forEachBit(In, [&](size_t S) {
      setBit(Out, static_cast<size_t>((long(S) - K + N) % N));
    });
    return;
  }
  // Word J of In lands in words J - W (low part) and J - W - 1.
  size_t Mask = In.size() - 1, W = size_t(K) / 64, B = size_t(K) % 64;
  for (size_t J = 0; J <= Mask; ++J) {
    if (!In[J])
      continue;
    Out[(J - W) & Mask] |= In[J] >> B;
    if (B)
      Out[(J - W - 1) & Mask] |= In[J] << (64 - B);
  }
}

/// Whether two of the copies x + rotLeft(x, D) for D in \p Shifts could
/// put nonzero values in one slot: some supported slot S has S + D
/// supported too.
bool copiesCollide(const Bits &Support, const std::vector<long> &Shifts,
                   size_t Slots) {
  for (long D : Shifts) {
    Bits Moved = emptyBits(Slots);
    orRotated(Moved, Support, D, Slots);
    for (size_t W = 0; W < Moved.size(); ++W)
      if (Moved[W] & Support[W])
        return true;
  }
  return false;
}

std::vector<int> powersOf(int Lo, int Hi) {
  std::vector<int> Steps;
  for (int B = Lo; B < Hi; ++B)
    Steps.push_back(1 << B);
  return Steps;
}

} // namespace

std::vector<uint64_t> chet::slotSupport(const TensorLayout &L) {
  return L.Support.empty() ? validBits(L) : L.Support;
}

std::vector<uint64_t> chet::rotateSupport(const std::vector<uint64_t> &In,
                                          const std::vector<int> &Steps,
                                          size_t Slots) {
  Bits Out = emptyBits(Slots);
  for (int Step : Steps)
    orRotated(Out, In, Step, Slots);
  return Out;
}

void chet::setSupport(TensorLayout &L, std::vector<uint64_t> B) {
  Bits Valid = validBits(L);
  bool Inside = true;
  for (size_t W = 0; W < B.size(); ++W)
    Inside = Inside && (B[W] & ~Valid[W]) == 0;
  if (Inside)
    B.clear();
  L.Support = std::move(B);
}

FcPlan chet::perRowFcPlan(const TensorLayout &In, const FcWeights &Wt,
                          LayoutKind OutKind) {
  FcPlan Plan;
  Plan.SumSteps = powersOf(0, log2Exact(In.Slots));
  for (int R = 0; R < Wt.Out; ++R)
    Plan.Groups.push_back({{R, 0, OutKind == LayoutKind::CHW ? R : 0}});
  Plan.Out = OutKind == LayoutKind::CHW
                 ? makeDenseVectorLayout(Wt.Out, In.Slots)
                 : makeInputLayout(LayoutKind::HW, Wt.Out, 1, 1, 0, In.Slots);
  return Plan;
}

FcPlan chet::planFcReplicate(const TensorLayout &In, const FcWeights &Wt,
                             LayoutKind OutKind) {
  size_t Slots = In.Slots;
  int LogSlots = log2Exact(Slots);
  int Out = Wt.Out;
  if (OutKind == LayoutKind::HW)
    return perRowFcPlan(In, Wt, OutKind);

  // Sum bits: every bit some feature offset p - P0 uses.
  long P0 = static_cast<long>(Slots), Used = 0;
  for (int C = 0; C < In.C; ++C)
    P0 = std::min(P0, In.slotOf(C, 0, 0));
  for (int C = 0; C < In.C; ++C)
    for (int Y = 0; Y < In.H; ++Y)
      for (int X = 0; X < In.W; ++X)
        Used |= In.slotOf(C, Y, X) - P0;
  int SumBits = __builtin_popcountl(static_cast<unsigned long>(Used));
  int K = log2Exact(static_cast<size_t>(Out)); // copy bits one group needs
  int Cts = In.ctCount();
  Bits Support = slotSupport(In);

  // Rotation counts of the candidate splits; per-row is the baseline.
  long BestCost = long(Out) * LogSlots;
  enum { Rows, Low, Top } Best = Rows;
  int TopExtra = 0;

  // Low: copy bits [0, K) under every sum bit; row r reads copy
  // Out-1-r and lands at P0-Out+1+r, a dense run below P0.
  if ((Used & ((long(1) << K) - 1)) == 0 && P0 >= Out - 1) {
    std::vector<long> Shifts;
    for (long D = 1; D < (long(1) << K); ++D)
      Shifts.push_back(D);
    long Cost = long(Cts) * K + SumBits;
    if (Cost < BestCost && !copiesCollide(Support, Shifts, Slots)) {
      BestCost = Cost;
      Best = Low;
    }
  }
  // Top: the input fits below bit LogSlots-K; copy bits [A, LogSlots)
  // with A = LogSlots-K+E, where the 2^E groups extend the tree by bits
  // [LogSlots-K, A) so that group g lands g windows lower. Fewer copies
  // keep a dirty input's junk from colliding: once one E is
  // collision-free all larger ones are too; among those take the
  // cheapest.
  if ((Used >> (LogSlots - K)) == 0) {
    bool Free = false;
    for (int E = 0; E <= K; ++E) {
      int A = LogSlots - K + E;
      if (!Free) {
        std::vector<long> Shifts;
        for (long D = long(1) << A; D < long(Slots); D += long(1) << A)
          Shifts.push_back(D);
        Free = !copiesCollide(Support, Shifts, Slots);
        if (!Free)
          continue;
      }
      long Groups = std::min<long>(long(1) << E, Out);
      long Cost = long(Cts) * (K - E) + Groups * (SumBits + E);
      if (Cost < BestCost) {
        BestCost = Cost;
        Best = Top;
        TopExtra = E;
      }
    }
  }
  if (Best == Rows)
    return perRowFcPlan(In, Wt, OutKind);

  FcPlan Plan;
  std::vector<int> Sum;
  for (int B = 0; B < LogSlots; ++B)
    if ((Used >> B) & 1)
      Sum.push_back(1 << B);
  Plan.Out = makeDenseVectorLayout(Out, Slots);
  if (Best == Low) {
    Plan.CopySteps = powersOf(0, K);
    Plan.SumSteps = Sum;
    long T0 = P0 - (Out - 1);
    Plan.Groups.emplace_back();
    for (int R = 0; R < Out; ++R)
      Plan.Groups[0].push_back({R, long(Out - 1 - R), T0 + R});
    Plan.Out.OffX = static_cast<int>(T0);
    Plan.Out.PhysW = static_cast<int>(T0) + 1;
    return Plan;
  }
  int E = TopExtra, A = LogSlots - K + E;
  long Stride = long(1) << (LogSlots - K);
  Plan.CopySteps = powersOf(A, LogSlots);
  Plan.SumSteps = Sum;
  for (int B = LogSlots - K; B < A; ++B)
    Plan.SumSteps.push_back(1 << B);
  std::sort(Plan.SumSteps.begin(), Plan.SumSteps.end());
  // Row s lands at (P0 mod Stride) + s*Stride, n_s = (P0 - target) /
  // Stride windows below P0: group n_s mod 2^E, copy (n_s >> E) << A.
  std::vector<std::vector<FcPlan::Row>> ByGroup(size_t(1) << E);
  long Q = P0 / Stride, Windows = long(1) << K;
  for (int R = 0; R < Out; ++R) {
    long N = ((Q - R) % Windows + Windows) % Windows;
    long G = N & ((long(1) << E) - 1);
    ByGroup[size_t(G)].push_back({R, (N >> E) << A, P0 % Stride + R * Stride});
  }
  for (auto &G : ByGroup)
    if (!G.empty())
      Plan.Groups.push_back(std::move(G));
  Plan.Out.OffX = static_cast<int>(P0 % Stride);
  Plan.Out.PhysW = static_cast<int>(Stride);
  Plan.Out.ChStride = static_cast<int>(Stride);
  Plan.Out.ChPerCt = static_cast<int>(Windows);
  return Plan;
}

std::vector<double>
chet::buildFcGroupPlain(const TensorLayout &In, const FcWeights &Wt,
                        const std::vector<FcPlan::Row> &Group, int CtIndex) {
  assert(Wt.In == In.C * In.H * In.W && "FC input features mismatch");
  long N = static_cast<long>(In.Slots);
  std::vector<double> Vec(In.Slots, 0.0);
  for (int F = 0; F < Wt.In; ++F) {
    int C = F / (In.H * In.W);
    int Rem = F % (In.H * In.W);
    if (In.ctOf(C) != CtIndex)
      continue;
    long Slot = In.slotOf(C, Rem / In.W, Rem % In.W);
    for (const FcPlan::Row &R : Group)
      Vec[size_t(((Slot - R.Shift) % N + N) % N)] = Wt.at(R.Index, F);
  }
  return Vec;
}

bool chet::fcGroupBlockHasWeight(const TensorLayout &In, const FcWeights &Wt,
                                 const std::vector<FcPlan::Row> &Group,
                                 int CtIndex) {
  assert(Wt.In == In.C * In.H * In.W && "FC input features mismatch");
  for (int F = 0; F < Wt.In; ++F) {
    if (In.ctOf(F / (In.H * In.W)) != CtIndex)
      continue;
    for (const FcPlan::Row &R : Group)
      if (Wt.at(R.Index, F) != 0.0)
        return true;
  }
  return false;
}

std::vector<double>
chet::buildFcGroupMask(size_t Slots, const std::vector<FcPlan::Row> &Group) {
  std::vector<double> Mask(Slots, 0.0);
  for (const FcPlan::Row &R : Group) {
    CHET_CHECK(R.Target >= 0 && size_t(R.Target) < Slots, InvalidArgument,
               "selector slot out of range: ", R.Target, " >= ", Slots);
    Mask[size_t(R.Target)] = 1.0;
  }
  return Mask;
}

namespace {

/// Invokes Fn(Row, PhysSlot, Weight) for every nonzero FC matrix entry.
template <typename FnT>
void forEachFcEntry(const TensorLayout &In, const FcWeights &Wt, FnT Fn) {
  assert(In.ctCount() == 1 && "BSGS FC requires a single-ciphertext input");
  assert(Wt.In == In.C * In.H * In.W && "FC feature count mismatch");
  for (int F = 0; F < Wt.In; ++F) {
    int C = F / (In.H * In.W);
    int Rem = F % (In.H * In.W);
    long Phys = In.slotOf(C, Rem / In.W, Rem % In.W);
    for (int Row = 0; Row < Wt.Out; ++Row) {
      double W = Wt.at(Row, F);
      if (W != 0.0)
        Fn(Row, Phys, W);
    }
  }
}

} // namespace

std::map<std::pair<int, int>, std::vector<double>>
chet::buildFcBsgsPlains(const TensorLayout &In, const FcWeights &Wt,
                        int GiantStep) {
  long L = static_cast<long>(In.Slots);
  std::map<std::pair<int, int>, std::vector<double>> Plains;
  forEachFcEntry(In, Wt, [&](int Row, long Phys, double W) {
    long D = ((Phys - Row) % L + L) % L;
    int K = static_cast<int>(D / GiantStep);
    int B = static_cast<int>(D % GiantStep);
    long I = (Row + static_cast<long>(K) * GiantStep) % L;
    auto &Vec = Plains[{K, B}];
    if (Vec.empty())
      Vec.assign(In.Slots, 0.0);
    Vec[I] = W;
  });
  return Plains;
}

size_t chet::countFcDiagonals(const TensorLayout &In, const FcWeights &Wt) {
  long L = static_cast<long>(In.Slots);
  std::vector<bool> Seen(In.Slots, false);
  size_t Count = 0;
  forEachFcEntry(In, Wt, [&](int Row, long Phys, double W) {
    long D = ((Phys - Row) % L + L) % L;
    if (!Seen[D]) {
      Seen[D] = true;
      ++Count;
    }
  });
  return Count;
}
