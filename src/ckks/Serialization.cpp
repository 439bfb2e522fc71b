//===- Serialization.cpp - Ciphertext and parameter serialization --------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ckks/Serialization.h"

#include "support/Error.h"

#include <cmath>
#include <cstring>

using namespace chet;

namespace {

constexpr uint32_t kRnsParamsTag = 0x43503252; // "R2PC": special-prime list
constexpr uint32_t kRnsCtTag = 0x43543152;     // "R1TC"
constexpr uint32_t kBigParamsTag = 0x43503142;  // "B1PC"
constexpr uint32_t kBigCtTag = 0x43543142;      // "B1TC"

class Writer {
public:
  void u32(uint32_t V) { raw(&V, sizeof V); }
  void u64(uint64_t V) { raw(&V, sizeof V); }
  void i32(int32_t V) { raw(&V, sizeof V); }
  void f64(double V) { raw(&V, sizeof V); }
  void u64s(const std::vector<uint64_t> &V) {
    u64(V.size());
    raw(V.data(), V.size() * sizeof(uint64_t));
  }
  ByteBuffer take() { return std::move(Bytes); }

private:
  void raw(const void *Data, size_t Len) {
    if (Len == 0)
      return;
    size_t At = Bytes.size();
    Bytes.resize(At + Len);
    std::memcpy(Bytes.data() + At, Data, Len);
  }
  ByteBuffer Bytes;
};

class Reader {
public:
  explicit Reader(const ByteBuffer &Bytes) : Bytes(Bytes) {}

  bool u32(uint32_t &V) { return raw(&V, sizeof V); }
  bool u64(uint64_t &V) { return raw(&V, sizeof V); }
  bool i32(int32_t &V) { return raw(&V, sizeof V); }
  bool f64(double &V) { return raw(&V, sizeof V); }
  bool u64s(std::vector<uint64_t> &V, uint64_t MaxCount) {
    uint64_t Count = 0;
    if (!u64(Count) || Count > MaxCount)
      return false;
    // Check the payload actually exists before allocating: a forged size
    // field on a truncated buffer must not trigger a huge allocation.
    if (Count * sizeof(uint64_t) > remaining())
      return false;
    V.resize(Count);
    return raw(V.data(), Count * sizeof(uint64_t));
  }
  size_t remaining() const { return Bytes.size() - Pos; }
  bool done() const { return Pos == Bytes.size(); }

private:
  bool raw(void *Data, size_t Len) {
    // Overflow-safe: Pos <= Bytes.size() is an invariant, so comparing
    // against the remaining byte count cannot wrap.
    if (Len > Bytes.size() - Pos)
      return false;
    std::memcpy(Data, Bytes.data() + Pos, Len);
    Pos += Len;
    return true;
  }
  const ByteBuffer &Bytes;
  size_t Pos = 0;
};

} // namespace

//===----------------------------------------------------------------------===//
// RNS-CKKS
//===----------------------------------------------------------------------===//

ByteBuffer chet::serialize(const RnsCkksParams &Params) {
  Writer W;
  W.u32(kRnsParamsTag);
  W.i32(Params.LogN);
  W.u64s(Params.ChainPrimes);
  W.u64s(Params.SpecialPrimes);
  W.i32(static_cast<int32_t>(Params.Security));
  W.u64(Params.Seed);
  W.i32(Params.StockPow2Keys);
  return W.take();
}

bool chet::deserialize(const ByteBuffer &Bytes, RnsCkksParams &Params) {
  Reader R(Bytes);
  uint32_t Tag = 0;
  int32_t Security = 0, Stock = 0;
  if (!R.u32(Tag) || Tag != kRnsParamsTag)
    return false;
  if (!R.i32(Params.LogN) || Params.LogN < 2 || Params.LogN > 17)
    return false;
  if (!R.u64s(Params.ChainPrimes, /*MaxCount=*/256) ||
      !R.u64s(Params.SpecialPrimes, /*MaxCount=*/256) ||
      Params.SpecialPrimes.empty() || !Params.primesDistinct())
    return false;
  if (!R.i32(Security) || !R.u64(Params.Seed) || !R.i32(Stock) || !R.done())
    return false;
  Params.Security = static_cast<SecurityLevel>(Security);
  Params.StockPow2Keys = Stock != 0;
  return true;
}

ByteBuffer chet::serialize(const RnsCkksBackend::Ct &Ct) {
  Writer W;
  W.u32(kRnsCtTag);
  W.i32(Ct.Level);
  W.f64(Ct.Scale);
  W.u64s(Ct.C0);
  W.u64s(Ct.C1);
  return W.take();
}

bool chet::deserialize(const ByteBuffer &Bytes, RnsCkksBackend::Ct &Ct) {
  Reader R(Bytes);
  uint32_t Tag = 0;
  if (!R.u32(Tag) || Tag != kRnsCtTag)
    return false;
  if (!R.i32(Ct.Level) || Ct.Level < 0 || Ct.Level > 255)
    return false;
  if (!R.f64(Ct.Scale) || !std::isfinite(Ct.Scale) || !(Ct.Scale > 0))
    return false;
  constexpr uint64_t MaxWords = uint64_t(256) << 17;
  if (!R.u64s(Ct.C0, MaxWords) || !R.u64s(Ct.C1, MaxWords) || !R.done())
    return false;
  return Ct.C0.size() == Ct.C1.size() &&
         Ct.C0.size() % (Ct.Level + 1) == 0;
}

//===----------------------------------------------------------------------===//
// Big-CKKS
//===----------------------------------------------------------------------===//

ByteBuffer chet::serialize(const BigCkksParams &Params) {
  Writer W;
  W.u32(kBigParamsTag);
  W.i32(Params.LogN);
  W.i32(Params.LogQ);
  W.i32(Params.LogSpecial);
  W.i32(static_cast<int32_t>(Params.Security));
  W.u64(Params.Seed);
  W.i32(Params.StockPow2Keys);
  return W.take();
}

bool chet::deserialize(const ByteBuffer &Bytes, BigCkksParams &Params) {
  Reader R(Bytes);
  uint32_t Tag = 0;
  int32_t Security = 0, Stock = 0;
  if (!R.u32(Tag) || Tag != kBigParamsTag)
    return false;
  if (!R.i32(Params.LogN) || Params.LogN < 2 || Params.LogN > 17)
    return false;
  if (!R.i32(Params.LogQ) || !R.i32(Params.LogSpecial) ||
      !R.i32(Security) || !R.u64(Params.Seed) || !R.i32(Stock) ||
      !R.done())
    return false;
  Params.Security = static_cast<SecurityLevel>(Security);
  Params.StockPow2Keys = Stock != 0;
  return Params.LogQ >= 30 && Params.LogSpecial >= 0;
}

static void writeBigPoly(Writer &W, const std::vector<BigInt> &Poly) {
  W.u64(Poly.size());
  for (const BigInt &V : Poly) {
    int Count = V.limbCount();
    W.i32(V.isNegative() ? -Count : Count);
    for (int I = 0; I < Count; ++I)
      W.u64(V.limb(I));
  }
}

static bool readBigPoly(Reader &R, std::vector<BigInt> &Poly) {
  uint64_t Size = 0;
  if (!R.u64(Size) || Size > (uint64_t(1) << 17))
    return false;
  // Each coefficient occupies at least its 4-byte limb count; reject
  // size fields the buffer cannot possibly back before allocating.
  if (Size * sizeof(int32_t) > R.remaining())
    return false;
  Poly.resize(Size);
  uint64_t Limbs[BigInt::MaxLimbs];
  for (uint64_t K = 0; K < Size; ++K) {
    int32_t Signed = 0;
    if (!R.i32(Signed))
      return false;
    int Count = Signed < 0 ? -Signed : Signed;
    if (Count > BigInt::MaxLimbs)
      return false;
    for (int I = 0; I < Count; ++I)
      if (!R.u64(Limbs[I]))
        return false;
    Poly[K] = BigInt::fromLimbs(Limbs, Count, Signed < 0);
  }
  return true;
}

ByteBuffer chet::serialize(const BigCkksBackend::Ct &Ct) {
  Writer W;
  W.u32(kBigCtTag);
  W.i32(Ct.LogQ);
  W.f64(Ct.Scale);
  writeBigPoly(W, Ct.C0);
  writeBigPoly(W, Ct.C1);
  return W.take();
}

bool chet::deserialize(const ByteBuffer &Bytes, BigCkksBackend::Ct &Ct) {
  Reader R(Bytes);
  uint32_t Tag = 0;
  if (!R.u32(Tag) || Tag != kBigCtTag)
    return false;
  if (!R.i32(Ct.LogQ) || Ct.LogQ <= 0 || Ct.LogQ > 64 * BigInt::MaxLimbs)
    return false;
  if (!R.f64(Ct.Scale) || !std::isfinite(Ct.Scale) || !(Ct.Scale > 0))
    return false;
  if (!readBigPoly(R, Ct.C0) || !readBigPoly(R, Ct.C1) || !R.done())
    return false;
  return Ct.C0.size() == Ct.C1.size();
}

//===----------------------------------------------------------------------===//
// Throwing forms
//===----------------------------------------------------------------------===//

namespace {

template <typename T>
void deserializeChecked(const ByteBuffer &Bytes, T &Out, const char *What) {
  CHET_CHECK(deserialize(Bytes, Out), MalformedCiphertext,
             "malformed or truncated ", What, " (", Bytes.size(), " bytes)");
}

} // namespace

void chet::deserializeOrThrow(const ByteBuffer &Bytes, RnsCkksParams &Params) {
  deserializeChecked(Bytes, Params, "RNS-CKKS parameter blob");
}

void chet::deserializeOrThrow(const ByteBuffer &Bytes,
                              RnsCkksBackend::Ct &Ct) {
  deserializeChecked(Bytes, Ct, "RNS-CKKS ciphertext");
}

void chet::deserializeOrThrow(const ByteBuffer &Bytes, BigCkksParams &Params) {
  deserializeChecked(Bytes, Params, "CKKS parameter blob");
}

void chet::deserializeOrThrow(const ByteBuffer &Bytes,
                              BigCkksBackend::Ct &Ct) {
  deserializeChecked(Bytes, Ct, "CKKS ciphertext");
}
