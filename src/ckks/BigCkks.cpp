//===- BigCkks.cpp - CKKS with a power-of-two big-integer modulus --------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ckks/BigCkks.h"
#include "hisa/LevelScale.h"

#include "math/PrimeGen.h"
#include "support/Error.h"
#include "support/LimbPool.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace chet;

//===----------------------------------------------------------------------===//
// BigPolyRing
//===----------------------------------------------------------------------===//

BigPolyRing::BigPolyRing(int LogNIn)
    : LogN(LogNIn), N(size_t(1) << LogNIn) {
  // Upper bound on the basis size: products are capped by BigInt capacity
  // (multiply asserts ProductBits fits), so reserving here guarantees the
  // lazy growth in ensurePrimes never reallocates Mods/Tables while a
  // parallel region holds references into them.
  size_t MaxCount = size_t(primesForBits(64 * BigInt::MaxLimbs)) + 2;
  PrimeValues.reserve(MaxCount);
  Mods.reserve(MaxCount);
  Tables.reserve(MaxCount);
}

void BigPolyRing::ensurePrimes(int Count) {
  std::lock_guard<std::mutex> Lock(*RingMu);
  if (static_cast<int>(PrimeValues.size()) >= Count)
    return;
  PrimeValues = generateNttPrimes(59, LogN, Count);
  for (size_t I = Mods.size(); I < PrimeValues.size(); ++I) {
    Mods.emplace_back(PrimeValues[I]);
    Tables.push_back(std::make_unique<NttTables>(LogN, Mods.back()));
  }
}

const CrtBasis &BigPolyRing::basisFor(int Count) {
  ensurePrimes(Count);
  std::lock_guard<std::mutex> Lock(*RingMu);
  auto It = BasisByCount.find(Count);
  if (It != BasisByCount.end())
    return *It->second;
  std::vector<uint64_t> Primes(PrimeValues.begin(),
                               PrimeValues.begin() + Count);
  auto Inserted =
      BasisByCount.emplace(Count, std::make_unique<CrtBasis>(Primes));
  return *Inserted.first->second;
}

void BigPolyRing::decomposeNtt(const BigInt *Poly, int Count,
                               std::vector<std::vector<uint64_t>> &Out) {
  ensurePrimes(Count);
  Out.resize(Count);
  parallelFor(0, size_t(Count), 1, [&](size_t I) {
    Out[I].resize(N);
    const Modulus &Q = Mods[I];
    for (size_t K = 0; K < N; ++K)
      Out[I][K] = Poly[K].modPrime(Q);
    Tables[I]->forward(Out[I].data());
  });
}

void BigPolyRing::decomposeNttFlat(const BigInt *Poly, int Count,
                                   uint64_t *Out) {
  ensurePrimes(Count);
  parallelFor(0, size_t(Count), 1, [&](size_t I) {
    uint64_t *Dst = Out + I * N;
    const Modulus &Q = Mods[I];
    for (size_t K = 0; K < N; ++K)
      Dst[K] = Poly[K].modPrime(Q);
    Tables[I]->forward(Dst);
  });
}

void BigPolyRing::reconstruct(std::vector<std::vector<uint64_t>> &Rns,
                              int Count, BigInt *Out) {
  const CrtBasis &Basis = basisFor(Count);
  parallelFor(0, size_t(Count), 1,
              [&](size_t I) { Tables[I]->inverse(Rns[I].data()); });
  globalThreadPool().parallelForBlocks(0, N, 128, [&](size_t Lo, size_t Hi) {
    LimbBuffer PerCoeff{size_t(Count)};
    for (size_t K = Lo; K < Hi; ++K) {
      for (int I = 0; I < Count; ++I)
        PerCoeff[I] = Rns[I][K];
      Out[K] = Basis.reconstructCentered(PerCoeff.data());
    }
  });
}

void BigPolyRing::reconstructFlat(uint64_t *Rns, int Count, BigInt *Out) {
  const CrtBasis &Basis = basisFor(Count);
  parallelFor(0, size_t(Count), 1,
              [&](size_t I) { Tables[I]->inverse(Rns + I * N); });
  globalThreadPool().parallelForBlocks(0, N, 128, [&](size_t Lo, size_t Hi) {
    LimbBuffer PerCoeff{size_t(Count)};
    for (size_t K = Lo; K < Hi; ++K) {
      for (int I = 0; I < Count; ++I)
        PerCoeff[I] = Rns[I * N + K];
      Out[K] = Basis.reconstructCentered(PerCoeff.data());
    }
  });
}

void BigPolyRing::multiply(const BigInt *A, const BigInt *B, BigInt *Out,
                           int ProductBits) {
  int Count = primesForBits(ProductBits);
  LimbBuffer ARns(size_t(Count) * N), BRns(size_t(Count) * N);
  decomposeNttFlat(A, Count, ARns.data());
  decomposeNttFlat(B, Count, BRns.data());
  parallelFor(0, size_t(Count), 1, [&](size_t I) {
    const Modulus &Q = Mods[I];
    uint64_t *AR = ARns.data() + I * N;
    const uint64_t *BR = BRns.data() + I * N;
    for (size_t K = 0; K < N; ++K)
      AR[K] = Q.mulMod(AR[K], BR[K]);
  });
  reconstructFlat(ARns.data(), Count, Out);
}

void BigPolyRing::mulAcc(const std::vector<std::vector<uint64_t>> &X,
                         const std::vector<std::vector<uint64_t>> &Y,
                         int Count,
                         std::vector<std::vector<uint64_t>> &Acc) {
  if (Acc.empty())
    Acc.assign(Count, std::vector<uint64_t>(N, 0));
  parallelFor(0, size_t(Count), 1, [&](size_t I) {
    const Modulus &Q = Mods[I];
    for (size_t K = 0; K < N; ++K)
      Acc[I][K] = Q.addMod(Acc[I][K], Q.mulMod(X[I][K], Y[I][K]));
  });
}

//===----------------------------------------------------------------------===//
// Construction and key generation
//===----------------------------------------------------------------------===//

void chet::applyAutomorphismBig(const BigInt *In, BigInt *Out, size_t N,
                                uint64_t Elt) {
  assert((Elt & 1) != 0 && "Galois element must be odd");
  uint64_t TwoN = 2 * N;
  uint64_t Mask = TwoN - 1;
  for (size_t J = 0; J < N; ++J) {
    uint64_t Index = (J * Elt) & Mask;
    BigInt V = In[J];
    if (Index >= N) {
      Index -= N;
      V.negate();
    }
    Out[Index] = V;
  }
}

BigCkksBackend::BigCkksBackend(const BigCkksParams &ParamsIn)
    : Params(ParamsIn), LogN(ParamsIn.LogN),
      Degree(size_t(1) << ParamsIn.LogN), Encoder(ParamsIn.LogN),
      Ring(ParamsIn.LogN), Rng(ParamsIn.Seed) {
  CHET_CHECK(Params.LogQ >= 30, InvalidArgument,
             "CKKS modulus too small: LogQ = ", Params.LogQ, " < 30");
  CHET_CHECK(Params.logQP() + LogN + 4 < 64 * BigInt::MaxLimbs,
             InvalidArgument, "CKKS modulus exceeds BigInt capacity: logQP = ",
             Params.logQP(), " at LogN = ", LogN);
  CHET_CHECK(Params.logQP() <= maxLogQForSecurity(LogN, Params.Security),
             SecurityBudgetExceeded,
             "parameters violate the requested security level: logQP = ",
             Params.logQP(), " bits exceeds the ",
             maxLogQForSecurity(LogN, Params.Security),
             "-bit budget at LogN = ", LogN);

  Secret = sampleTernary();

  // Public key modulo 2^LogQ.
  PkA = sampleUniform(Params.LogQ);
  {
    std::vector<BigInt> E = sampleError();
    PkB.resize(Degree);
    Ring.multiply(PkA.data(), Secret.data(), PkB.data(),
                  Params.LogQ + LogN + 3);
    parallelFor(0, Degree, 256, [&](size_t K) {
      PkB[K].negate();
      PkB[K] += E[K];
      PkB[K].centerMod2k(Params.LogQ);
    });
  }

  // Relinearization key for target s^2, serving the full modulus 2^LogQ
  // (the key itself lives modulo 2^(LogQ + LogP)).
  {
    std::vector<BigInt> S2(Degree);
    Ring.multiply(Secret.data(), Secret.data(), S2.data(), LogN + 4);
    RelinKey = makeEvalKey(S2, Params.LogQ);
  }

  // Stock power-of-two rotation keys (Section 2.4).
  if (Params.StockPow2Keys) {
    std::vector<int> Pow2Steps;
    for (size_t Step = 1; Step < slotCount(); Step <<= 1) {
      Pow2Steps.push_back(static_cast<int>(Step));
      Pow2Steps.push_back(-static_cast<int>(Step));
    }
    generateRotationKeys(Pow2Steps);
  }
}

std::vector<BigInt> BigCkksBackend::sampleUniform(int Bits) {
  std::vector<BigInt> Out(Degree);
  const size_t Words = (size_t(Bits) + 31) / 32;
  // Every coefficient takes Words draws, so the stream position of each
  // fixed-length chunk of coefficients is known up front: chunk C is
  // drawn on its own lane from a copy of Rng advanced C * Chunk * Words
  // steps, and the values and Rng's final state are a serial draw's.
  const size_t Chunk = std::min<size_t>(256, Degree);
  const size_t Chunks = Degree / Chunk;
  std::vector<Prng> Start(Chunks + 1, Rng);
  for (size_t C = 1; C <= Chunks; ++C) {
    Start[C] = Start[C - 1];
    Start[C].discard(Chunk * Words);
  }
  parallelFor(0, Chunks, 1, [&](size_t C) {
    Prng Stream = Start[C];
    for (size_t K = C * Chunk; K < (C + 1) * Chunk; ++K) {
      BigInt &V = Out[K];
      for (size_t W = 0; W < Words; ++W) {
        V.shiftLeft(32);
        V += BigInt(static_cast<int64_t>(Stream.next() & 0xffffffffULL));
      }
      V.centerMod2k(Bits);
    }
  });
  Rng = Start[Chunks];
  return Out;
}

std::vector<BigInt> BigCkksBackend::sampleTernary() {
  std::vector<BigInt> Out(Degree);
  for (auto &V : Out)
    V = BigInt(Rng.nextTernary());
  return Out;
}

std::vector<BigInt> BigCkksBackend::sampleError() {
  std::vector<BigInt> Out(Degree);
  for (auto &V : Out)
    V = BigInt(Rng.nextCenteredGaussian());
  return Out;
}

BigCkksBackend::EvalKey
BigCkksBackend::makeEvalKey(const std::vector<BigInt> &Target, int LogQ) {
  int LogP = Params.effectiveLogSpecial();
  // The key is read only mod 2^Width (DESIGN.md section 5m). A is drawn
  // at full width so the RNG stream does not depend on the level; the
  // product A * s is then formed from A's residue, which agrees with the
  // full product mod 2^Width.
  int Width = LogQ + LogP;
  std::vector<BigInt> A = sampleUniform(Params.logQP());
  parallelFor(0, Degree, 256, [&](size_t K) { A[K].centerMod2k(Width); });
  std::vector<BigInt> B(Degree);
  Ring.multiply(A.data(), Secret.data(), B.data(), Width + LogN + 3);
  std::vector<BigInt> E = sampleError();
  parallelFor(0, Degree, 256, [&](size_t K) {
    B[K].negate();
    B[K] += E[K];
    // + P * target
    BigInt T = Target[K];
    T.shiftLeft(LogP);
    B[K] += T;
    B[K].centerMod2k(Width);
  });
  EvalKey Key;
  Key.LogQ = LogQ;
  // Worst-case key-switch product: |d| < 2^LogQ/2, |key| < 2^Width/2,
  // times N terms.
  Key.PrimeCount = keySwitchPrimes(LogQ, Key);
  Ring.decomposeNtt(B.data(), Key.PrimeCount, Key.B);
  Ring.decomposeNtt(A.data(), Key.PrimeCount, Key.A);
  return Key;
}

int BigCkksBackend::keySwitchPrimes(int CtLogQ, const EvalKey &Key) const {
  return BigPolyRing::primesForBits(CtLogQ + Key.LogQ +
                                    Params.effectiveLogSpecial() + LogN + 2);
}

void BigCkksBackend::requireKeyLevel(const EvalKey &Key, int Steps,
                                     int CtLogQ) const {
  CHET_CHECK(CtLogQ <= Key.LogQ, MissingRotationKey,
             "the Galois key for rotation by ", Steps,
             " was generated for LogQ ", Key.LogQ,
             " but the ciphertext is at LogQ ", CtLogQ);
}

void BigCkksBackend::generateRotationKeys(const std::vector<int> &Steps) {
  for (int Step : Steps)
    generateRotationKey(Step, Params.LogQ);
}

void BigCkksBackend::generateRotationKey(int Steps, int LogQ) {
  CHET_CHECK(LogQ >= 1 && LogQ <= Params.LogQ, InvalidArgument,
             "Galois key LogQ ", LogQ, " is outside 1..", Params.LogQ);
  int Norm = normalizeRotation(Steps, slotCount());
  if (Norm == 0)
    return;
  RotationSteps.insert(Norm);
  uint64_t Elt = Encoder.galoisElement(Norm);
  auto It = GaloisKeys.find(Elt);
  if (It != GaloisKeys.end() && It->second.LogQ >= LogQ)
    return;
  std::vector<BigInt> Rotated(Degree);
  applyAutomorphismBig(Secret.data(), Rotated.data(), Degree, Elt);
  EvalKey Key = makeEvalKey(Rotated, LogQ);
  if (It != GaloisKeys.end())
    It->second = std::move(Key);
  else
    GaloisKeys.emplace(Elt, std::move(Key));
  GaloisPerms.emplace(Elt, galoisNttPermutation(LogN, Elt));
}

uint64_t BigCkksBackend::keyBytes() const {
  uint64_t Bytes = (PkB.size() + PkA.size()) * sizeof(BigInt);
  auto Count = [&](const EvalKey &Key) {
    for (const auto &P : Key.B)
      Bytes += P.size() * sizeof(uint64_t);
    for (const auto &P : Key.A)
      Bytes += P.size() * sizeof(uint64_t);
  };
  Count(RelinKey);
  for (const auto &[Elt, Key] : GaloisKeys)
    Count(Key);
  return Bytes;
}

void BigCkksBackend::clearRotationKeys() {
  GaloisKeys.clear();
  GaloisPerms.clear();
  RotationSteps.clear();
}

bool BigCkksBackend::hasRotationKey(int Steps) const {
  return GaloisKeys.count(Encoder.galoisElement(Steps)) != 0;
}

//===----------------------------------------------------------------------===//
// Encoding, encryption, decryption
//===----------------------------------------------------------------------===//

BigCkksBackend::Pt BigCkksBackend::encode(const std::vector<double> &Values,
                                          double Scale) const {
  Pt P;
  P.Coeffs = Encoder.encodeCoeffs(Values, Scale);
  P.Scale = Scale;
  P.C = std::make_shared<Pt::Cache>();
  return P;
}

std::vector<double> BigCkksBackend::decode(const Pt &P) const {
  return Encoder.decodeValues(P.Coeffs, P.Scale);
}

const std::vector<BigInt> &BigCkksBackend::plainBig(const Pt &P) const {
  assert(P.C && "plaintext was not produced by encode()");
  Pt::Cache &Cache = *P.C;
  // Double-checked publication, mirroring the RNS backend's plainNtt.
  if (Cache.BigReady.load(std::memory_order_acquire))
    return Cache.Big;
  std::lock_guard<std::mutex> Lock(Cache.FillMu);
  if (Cache.BigReady.load(std::memory_order_relaxed))
    return Cache.Big;
  Cache.Big.resize(Degree);
  int MaxBits = 1;
  for (size_t K = 0; K < Degree; ++K) {
    Cache.Big[K] = BigInt::fromDouble(P.Coeffs[K]);
    MaxBits = std::max(MaxBits, Cache.Big[K].bitLength());
  }
  Cache.MaxCoeffBits = MaxBits;
  Cache.BigReady.store(true, std::memory_order_release);
  return Cache.Big;
}

const std::vector<std::vector<uint64_t>> &
BigCkksBackend::plainRns(const Pt &P, int Count) {
  plainBig(P); // ensure Big is filled
  Pt::Cache &Cache = *P.C;
  // Map nodes are stable, so the returned reference outlives the lock;
  // entries are immutable once inserted.
  std::lock_guard<std::mutex> Lock(Cache.FillMu);
  auto It = Cache.RnsByCount.find(Count);
  if (It != Cache.RnsByCount.end())
    return It->second;
  std::vector<std::vector<uint64_t>> Rns;
  Ring.decomposeNtt(Cache.Big.data(), Count, Rns);
  auto Inserted = Cache.RnsByCount.emplace(Count, std::move(Rns));
  return Inserted.first->second;
}

BigCkksBackend::Ct BigCkksBackend::encrypt(const Pt &P) {
  Ct C;
  C.LogQ = Params.LogQ;
  C.Scale = P.Scale;
  std::vector<BigInt> V = sampleTernary();
  std::vector<BigInt> E0 = sampleError();
  std::vector<BigInt> E1 = sampleError();
  const std::vector<BigInt> &M = plainBig(P);

  C.C0.resize(Degree);
  C.C1.resize(Degree);
  int Bits = Params.LogQ + LogN + 3;
  Ring.multiply(PkB.data(), V.data(), C.C0.data(), Bits);
  Ring.multiply(PkA.data(), V.data(), C.C1.data(), Bits);
  parallelFor(0, Degree, 256, [&](size_t K) {
    C.C0[K] += E0[K];
    C.C0[K] += M[K];
    C.C0[K].centerMod2k(C.LogQ);
    C.C1[K] += E1[K];
    C.C1[K].centerMod2k(C.LogQ);
  });
  return C;
}

BigCkksBackend::Pt BigCkksBackend::decrypt(const Ct &C) {
  CHET_CHECK(C.C0.size() == Degree && C.C1.size() == Degree &&
                 C.LogQ >= 1 && C.LogQ <= Params.LogQ && C.Scale > 0,
             MalformedCiphertext,
             "ciphertext structure does not match the parameters: ",
             C.C0.size(), "/", C.C1.size(), " coefficients, LogQ ", C.LogQ,
             ", scale ", C.Scale);
  std::vector<BigInt> T(Degree);
  Ring.multiply(C.C1.data(), Secret.data(), T.data(), C.LogQ + LogN + 3);
  Pt P;
  P.Scale = C.Scale;
  P.Coeffs.resize(Degree);
  parallelFor(0, Degree, 256, [&](size_t K) {
    T[K] += C.C0[K];
    T[K].centerMod2k(C.LogQ);
    P.Coeffs[K] = T[K].toDouble();
  });
  return P;
}

void BigCkksBackend::freeCt(Ct &C) const {
  C.C0.clear();
  C.C0.shrink_to_fit();
  C.C1.clear();
  C.C1.shrink_to_fit();
}

//===----------------------------------------------------------------------===//
// Linear HISA instructions
//===----------------------------------------------------------------------===//

void BigCkksBackend::reduceTo(Ct &C, int LogQ) const {
  assert(LogQ <= C.LogQ && "cannot raise a ciphertext's modulus");
  if (LogQ == C.LogQ)
    return;
  parallelFor(0, Degree, 256, [&](size_t K) {
    C.C0[K].centerMod2k(LogQ);
    C.C1[K].centerMod2k(LogQ);
  });
  C.LogQ = LogQ;
}

static bool scalesMatchBig(double A, double B) {
  double Ratio = A / B;
  return Ratio > 1.0 - 1e-6 && Ratio < 1.0 + 1e-6;
}

void BigCkksBackend::addAssign(Ct &C, const Ct &Other) const {
  CHET_CHECK(scalesMatchBig(C.Scale, Other.Scale), ScaleMismatch,
             "addition scale mismatch: ", C.Scale, " vs ", Other.Scale);
  int LogQ = C.LogQ < Other.LogQ ? C.LogQ : Other.LogQ;
  parallelFor(0, Degree, 256, [&](size_t K) {
    C.C0[K] += Other.C0[K];
    C.C0[K].centerMod2k(LogQ);
    C.C1[K] += Other.C1[K];
    C.C1[K].centerMod2k(LogQ);
  });
  C.LogQ = LogQ;
}

void BigCkksBackend::subAssign(Ct &C, const Ct &Other) const {
  CHET_CHECK(scalesMatchBig(C.Scale, Other.Scale), ScaleMismatch,
             "subtraction scale mismatch: ", C.Scale, " vs ", Other.Scale);
  int LogQ = C.LogQ < Other.LogQ ? C.LogQ : Other.LogQ;
  parallelFor(0, Degree, 256, [&](size_t K) {
    C.C0[K] -= Other.C0[K];
    C.C0[K].centerMod2k(LogQ);
    C.C1[K] -= Other.C1[K];
    C.C1[K].centerMod2k(LogQ);
  });
  C.LogQ = LogQ;
}

void BigCkksBackend::addPlainAssign(Ct &C, const Pt &P) const {
  CHET_CHECK(scalesMatchBig(C.Scale, P.Scale), ScaleMismatch,
             "addPlain scale mismatch: ", C.Scale, " vs ", P.Scale);
  const std::vector<BigInt> &M = plainBig(P);
  parallelFor(0, Degree, 256, [&](size_t K) {
    C.C0[K] += M[K];
    C.C0[K].centerMod2k(C.LogQ);
  });
}

void BigCkksBackend::subPlainAssign(Ct &C, const Pt &P) const {
  CHET_CHECK(scalesMatchBig(C.Scale, P.Scale), ScaleMismatch,
             "subPlain scale mismatch: ", C.Scale, " vs ", P.Scale);
  const std::vector<BigInt> &M = plainBig(P);
  parallelFor(0, Degree, 256, [&](size_t K) {
    C.C0[K] -= M[K];
    C.C0[K].centerMod2k(C.LogQ);
  });
}

void BigCkksBackend::addScalarAssign(Ct &C, double X) const {
  // The constant vector (x, ..., x) encodes as the constant polynomial.
  C.C0[0] += BigInt::fromDouble(X * C.Scale);
  C.C0[0].centerMod2k(C.LogQ);
}

void BigCkksBackend::mulScalarAssign(Ct &C, double X, uint64_t Scale) const {
  double Rounded = std::nearbyint(X * static_cast<double>(Scale));
  CHET_CHECK(std::fabs(Rounded) < 9.2e18, EncodingOverflow,
             "scalar exceeds word range: ", X, " at scale ", Scale);
  bool Negative = Rounded < 0;
  uint64_t Mag = static_cast<uint64_t>(std::fabs(Rounded));
  for (std::vector<BigInt> *Poly : {&C.C0, &C.C1}) {
    parallelFor(0, Degree, 256, [&](size_t K) {
      BigInt &V = (*Poly)[K];
      V.mulU64(Mag);
      if (Negative)
        V.negate();
      V.centerMod2k(C.LogQ);
    });
  }
  C.Scale *= static_cast<double>(Scale);
}

//===----------------------------------------------------------------------===//
// Multiplication, relinearization, rotation
//===----------------------------------------------------------------------===//

void BigCkksBackend::keySwitch(const std::vector<BigInt> &D, int CtLogQ,
                               const EvalKey &Key, std::vector<BigInt> &OutB,
                               std::vector<BigInt> &OutA) {
  int LogP = Params.effectiveLogSpecial();
  int Count = keySwitchPrimes(CtLogQ, Key);
  CHET_CHECK(CtLogQ <= Key.LogQ, MissingRotationKey, "key switch at LogQ ",
             CtLogQ, " reads a key generated for LogQ ", Key.LogQ);

  LimbBuffer DRns(size_t(Count) * Degree);
  Ring.decomposeNttFlat(D.data(), Count, DRns.data());
  KsStats->ForwardNtts.fetch_add(Count, std::memory_order_relaxed);
  KsStats->InverseNtts.fetch_add(2 * size_t(Count),
                                 std::memory_order_relaxed);
  LimbBuffer AccB(size_t(Count) * Degree), AccA(size_t(Count) * Degree);
  parallelFor(0, size_t(Count), 1, [&](size_t I) {
    const Modulus &Q = Ring.prime(I);
    const uint64_t *DR = DRns.data() + I * Degree;
    uint64_t *AB = AccB.data() + I * Degree;
    uint64_t *AA = AccA.data() + I * Degree;
    for (size_t K = 0; K < Degree; ++K) {
      AB[K] = Q.mulMod(DR[K], Key.B[I][K]);
      AA[K] = Q.mulMod(DR[K], Key.A[I][K]);
    }
  });
  OutB.resize(Degree);
  OutA.resize(Degree);
  Ring.reconstructFlat(AccB.data(), Count, OutB.data());
  Ring.reconstructFlat(AccA.data(), Count, OutA.data());
  parallelFor(0, Degree, 256, [&](size_t K) {
    OutB[K].shiftRightRound(LogP);
    OutB[K].centerMod2k(CtLogQ);
    OutA[K].shiftRightRound(LogP);
    OutA[K].centerMod2k(CtLogQ);
  });
}

void BigCkksBackend::mulAssign(Ct &C, const Ct &Other) {
  int LogQ = C.LogQ < Other.LogQ ? C.LogQ : Other.LogQ;
  reduceTo(C, LogQ);

  int Bits = 2 * LogQ + LogN + 2;
  int Count = Ring.primesForBits(Bits);
  size_t Words = size_t(Count) * Degree;
  LimbBuffer A0(Words), A1(Words), B0Buf, B1Buf;
  Ring.decomposeNttFlat(C.C0.data(), Count, A0.data());
  Ring.decomposeNttFlat(C.C1.data(), Count, A1.data());
  // Squaring reads the same decomposition twice instead of copying it
  // (the old vector code duplicated Count * N words here).
  const uint64_t *B0 = A0.data();
  const uint64_t *B1 = A1.data();
  if (&C != &Other) {
    B0Buf.resizeUninit(Words);
    B1Buf.resizeUninit(Words);
    // Other may sit at a higher modulus; its residues are still correct
    // modulo the product basis only if we reduce first, so copy-reduce.
    if (Other.LogQ != LogQ) {
      Ct Tmp = Other;
      reduceTo(Tmp, LogQ);
      Ring.decomposeNttFlat(Tmp.C0.data(), Count, B0Buf.data());
      Ring.decomposeNttFlat(Tmp.C1.data(), Count, B1Buf.data());
    } else {
      Ring.decomposeNttFlat(Other.C0.data(), Count, B0Buf.data());
      Ring.decomposeNttFlat(Other.C1.data(), Count, B1Buf.data());
    }
    B0 = B0Buf.data();
    B1 = B1Buf.data();
  }

  LimbBuffer D0Rns(Words), D1Rns(Words), D2Rns(Words);
  parallelFor(0, size_t(Count), 1, [&](size_t I) {
    const Modulus &Q = Ring.prime(I);
    const uint64_t *A0R = A0.data() + I * Degree;
    const uint64_t *A1R = A1.data() + I * Degree;
    const uint64_t *B0R = B0 + I * Degree;
    const uint64_t *B1R = B1 + I * Degree;
    uint64_t *D0R = D0Rns.data() + I * Degree;
    uint64_t *D1R = D1Rns.data() + I * Degree;
    uint64_t *D2R = D2Rns.data() + I * Degree;
    for (size_t K = 0; K < Degree; ++K) {
      D0R[K] = Q.mulMod(A0R[K], B0R[K]);
      D1R[K] = Q.addMod(Q.mulMod(A0R[K], B1R[K]),
                        Q.mulMod(A1R[K], B0R[K]));
      D2R[K] = Q.mulMod(A1R[K], B1R[K]);
    }
  });
  std::vector<BigInt> D0(Degree), D1(Degree), D2(Degree);
  Ring.reconstructFlat(D0Rns.data(), Count, D0.data());
  Ring.reconstructFlat(D1Rns.data(), Count, D1.data());
  Ring.reconstructFlat(D2Rns.data(), Count, D2.data());
  parallelFor(0, Degree, 256, [&](size_t K) {
    D0[K].centerMod2k(LogQ);
    D1[K].centerMod2k(LogQ);
    D2[K].centerMod2k(LogQ);
  });

  std::vector<BigInt> KB, KA;
  keySwitch(D2, LogQ, RelinKey, KB, KA);
  parallelFor(0, Degree, 256, [&](size_t K) {
    C.C0[K] = D0[K];
    C.C0[K] += KB[K];
    C.C0[K].centerMod2k(LogQ);
    C.C1[K] = D1[K];
    C.C1[K] += KA[K];
    C.C1[K].centerMod2k(LogQ);
  });
  C.Scale *= Other.Scale;
}

void BigCkksBackend::mulPlainAssign(Ct &C, const Pt &P) {
  plainBig(P); // fills P.C->MaxCoeffBits
  int PtBits = P.C->MaxCoeffBits;
  int Bits = C.LogQ + PtBits + LogN + 2;
  int Count = Ring.primesForBits(Bits);
  const std::vector<std::vector<uint64_t>> &MRns = plainRns(P, Count);

  LimbBuffer CRns(size_t(Count) * Degree);
  for (std::vector<BigInt> *Poly : {&C.C0, &C.C1}) {
    Ring.decomposeNttFlat(Poly->data(), Count, CRns.data());
    parallelFor(0, size_t(Count), 1, [&](size_t I) {
      const Modulus &Q = Ring.prime(I);
      uint64_t *CR = CRns.data() + I * Degree;
      for (size_t K = 0; K < Degree; ++K)
        CR[K] = Q.mulMod(CR[K], MRns[I][K]);
    });
    Ring.reconstructFlat(CRns.data(), Count, Poly->data());
    parallelFor(0, Degree, 256,
                [&](size_t K) { (*Poly)[K].centerMod2k(C.LogQ); });
  }
  C.Scale *= P.Scale;
}

void BigCkksBackend::rotateByElement(Ct &C, uint64_t Elt,
                                     const EvalKey &Key) {
  KsStats->Rotations.fetch_add(1, std::memory_order_relaxed);
  std::vector<BigInt> Sigma0(Degree), Sigma1(Degree);
  applyAutomorphismBig(C.C0.data(), Sigma0.data(), Degree, Elt);
  applyAutomorphismBig(C.C1.data(), Sigma1.data(), Degree, Elt);
  std::vector<BigInt> KB, KA;
  keySwitch(Sigma1, C.LogQ, Key, KB, KA);
  parallelFor(0, Degree, 256, [&](size_t K) {
    C.C0[K] = Sigma0[K];
    C.C0[K] += KB[K];
    C.C0[K].centerMod2k(C.LogQ);
    C.C1[K] = KA[K];
  });
}

void BigCkksBackend::rotLeftAssign(Ct &C, int Steps) {
  size_t Slots = slotCount();
  int S = normalizeRotation(Steps, Slots);
  if (S == 0)
    return;

  uint64_t Elt = Encoder.galoisElement(S);
  auto It = GaloisKeys.find(Elt);
  if (It != GaloisKeys.end()) {
    requireKeyLevel(It->second, S, C.LogQ);
    rotateByElement(C, Elt, It->second);
    return;
  }
  forEachRotationHop(S, Slots, [&](int Step) {
    uint64_t E = Encoder.galoisElement(Step);
    auto KeyIt = GaloisKeys.find(E);
    if (KeyIt == GaloisKeys.end())
      throw MissingRotationKeyError(formatError(
          "no Galois key for rotation by ", Steps,
          " (power-of-two decomposition needs step ", Step,
          "); available rotation steps: ",
          describeRotationSteps(RotationSteps)));
    requireKeyLevel(KeyIt->second, Step, C.LogQ);
    rotateByElement(C, E, KeyIt->second);
  });
}

std::vector<BigCkksBackend::Ct>
BigCkksBackend::rotLeftMany(const Ct &C, const std::vector<int> &Steps) {
  std::vector<Ct> Out(Steps.size());
  const int64_t Slots = static_cast<int64_t>(slotCount());

  struct HoistAmount {
    size_t Idx;
    uint64_t Elt;
    const EvalKey *Key;
    const std::vector<uint32_t> *Perm;
  };
  std::vector<HoistAmount> Hoist;
  for (size_t I = 0; I < Steps.size(); ++I) {
    int64_t S = Steps[I] % Slots;
    if (S < 0)
      S += Slots;
    if (S == 0) {
      Out[I] = C;
      continue;
    }
    uint64_t Elt = Encoder.galoisElement(static_cast<int>(S));
    auto KeyIt = GaloisKeys.find(Elt);
    auto PermIt = GaloisPerms.find(Elt);
    if (Hoisting && KeyIt != GaloisKeys.end() &&
        PermIt != GaloisPerms.end()) {
      requireKeyLevel(KeyIt->second, static_cast<int>(S), C.LogQ);
      Hoist.push_back({I, Elt, &KeyIt->second, &PermIt->second});
    } else {
      Out[I] = C;
      rotLeftAssign(Out[I], static_cast<int>(S));
    }
  }
  if (Hoist.empty())
    return Out;

  // Shared half of the key switch: one RNS/NTT decomposition of c1 over
  // the widest basis any amount's key needs. Each amount reads the prefix
  // keySwitch would decompose over for its key.
  int LogP = Params.effectiveLogSpecial();
  int MaxCount = 0;
  for (const HoistAmount &H : Hoist)
    MaxCount = std::max(MaxCount, keySwitchPrimes(C.LogQ, *H.Key));
  LimbBuffer DRns(size_t(MaxCount) * Degree);
  Ring.decomposeNttFlat(C.C1.data(), MaxCount, DRns.data());
  KsStats->ForwardNtts.fetch_add(MaxCount, std::memory_order_relaxed);

  LimbBuffer AccB(size_t(MaxCount) * Degree),
      AccA(size_t(MaxCount) * Degree);
  for (const HoistAmount &H : Hoist) {
    const EvalKey &Key = *H.Key;
    // requireKeyLevel above guarantees Count <= Key.PrimeCount.
    const int Count = keySwitchPrimes(C.LogQ, Key);
    const std::vector<uint32_t> &Perm = *H.Perm;
    // Permute the shared decomposition in the NTT domain, fused with the
    // per-key pointwise product.
    parallelFor(0, size_t(Count), 1, [&](size_t I) {
      const Modulus &Q = Ring.prime(I);
      const uint64_t *Src = DRns.data() + I * Degree;
      uint64_t *AB = AccB.data() + I * Degree;
      uint64_t *AA = AccA.data() + I * Degree;
      for (size_t K = 0; K < Degree; ++K) {
        uint64_t V = Src[Perm[K]];
        AB[K] = Q.mulMod(V, Key.B[I][K]);
        AA[K] = Q.mulMod(V, Key.A[I][K]);
      }
    });
    std::vector<BigInt> KB(Degree), KA(Degree);
    Ring.reconstructFlat(AccB.data(), Count, KB.data());
    Ring.reconstructFlat(AccA.data(), Count, KA.data());
    KsStats->InverseNtts.fetch_add(2 * size_t(Count),
                                   std::memory_order_relaxed);

    Ct &O = Out[H.Idx];
    O.LogQ = C.LogQ;
    O.Scale = C.Scale;
    O.C0.resize(Degree);
    O.C1.resize(Degree);
    // sigma(c0) costs only BigInt moves; the key-switch contribution is
    // divided by P with rounding exactly as keySwitch does.
    applyAutomorphismBig(C.C0.data(), O.C0.data(), Degree, H.Elt);
    parallelFor(0, Degree, 256, [&](size_t K) {
      KB[K].shiftRightRound(LogP);
      KB[K].centerMod2k(C.LogQ);
      KA[K].shiftRightRound(LogP);
      KA[K].centerMod2k(C.LogQ);
      O.C0[K] += KB[K];
      O.C0[K].centerMod2k(C.LogQ);
      O.C1[K] = KA[K];
    });
  }
  KsStats->Rotations.fetch_add(Hoist.size(), std::memory_order_relaxed);
  KsStats->HoistedBatches.fetch_add(1, std::memory_order_relaxed);
  KsStats->HoistedAmounts.fetch_add(Hoist.size(),
                                    std::memory_order_relaxed);
  return Out;
}

BigCkksBackend::KeySwitchNttStats BigCkksBackend::keySwitchNttStats() const {
  KeySwitchNttStats S;
  S.ForwardNtts = KsStats->ForwardNtts.load(std::memory_order_relaxed);
  S.InverseNtts = KsStats->InverseNtts.load(std::memory_order_relaxed);
  S.Rotations = KsStats->Rotations.load(std::memory_order_relaxed);
  S.HoistedBatches =
      KsStats->HoistedBatches.load(std::memory_order_relaxed);
  S.HoistedAmounts =
      KsStats->HoistedAmounts.load(std::memory_order_relaxed);
  return S;
}

void BigCkksBackend::resetKeySwitchNttStats() {
  KsStats->ForwardNtts.store(0, std::memory_order_relaxed);
  KsStats->InverseNtts.store(0, std::memory_order_relaxed);
  KsStats->Rotations.store(0, std::memory_order_relaxed);
  KsStats->HoistedBatches.store(0, std::memory_order_relaxed);
  KsStats->HoistedAmounts.store(0, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Rescaling
//===----------------------------------------------------------------------===//

uint64_t BigCkksBackend::maxRescale(const Ct &C, uint64_t UpperBound) const {
  // Any power of two is a valid divisor (Section 5.2, CKKS semantics), as
  // long as the modulus stays meaningful.
  if (UpperBound < 2)
    return 1;
  int Bits = 63 - __builtin_clzll(UpperBound);
  int Budget = C.LogQ - 2;
  if (Bits > Budget)
    Bits = Budget;
  if (Bits <= 0)
    return 1;
  return uint64_t(1) << Bits;
}

void BigCkksBackend::rescaleAssign(Ct &C, uint64_t Divisor) const {
  CHET_CHECK(Divisor != 0 && (Divisor & (Divisor - 1)) == 0, InvalidArgument,
             "CKKS rescale divisor must be a power of two, got ", Divisor);
  if (Divisor == 1)
    return;
  int Bits = __builtin_ctzll(Divisor);
  CHET_CHECK(Bits < C.LogQ, LevelExhausted,
             "rescale by 2^", Bits, " would eliminate the 2^", C.LogQ,
             " ciphertext modulus");
  parallelFor(0, Degree, 256, [&](size_t K) {
    C.C0[K].shiftRightRound(Bits);
    C.C1[K].shiftRightRound(Bits);
  });
  C.LogQ -= Bits;
  C.Scale /= static_cast<double>(Divisor);
}
