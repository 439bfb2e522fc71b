//===- RnsCkks.cpp - RNS-CKKS (SEAL-style) HISA backend ------------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ckks/RnsCkks.h"
#include "hisa/LevelScale.h"

#include "math/PrimeGen.h"
#include "support/Error.h"
#include "support/LimbPool.h"
#include "support/ThreadPool.h"

#include <cassert>
#include <cmath>
#include <cstring>

using namespace chet;

//===----------------------------------------------------------------------===//
// Parameters
//===----------------------------------------------------------------------===//

std::vector<uint64_t> RnsCkksParams::candidateChain(int Count, int FirstBits,
                                                    int ScaleBits) {
  // Generated with the LogN = 16 congruence so the same chain is valid at
  // every smaller ring dimension; mirrors the "global list of pre-generated
  // candidate moduli" of Section 5.2.
  std::vector<uint64_t> Exclude = {candidateSpecial(FirstBits)};
  std::vector<uint64_t> Chain =
      generateNttPrimes(FirstBits, /*LogN=*/16, 1, Exclude);
  if (Count > 1) {
    if (ScaleBits == FirstBits) {
      Exclude.push_back(Chain[0]);
      auto Rest = generateNttPrimes(ScaleBits, 16, Count - 1, Exclude);
      Chain.insert(Chain.end(), Rest.begin(), Rest.end());
    } else {
      auto Rest = generateNttPrimes(ScaleBits, 16, Count - 1);
      Chain.insert(Chain.end(), Rest.begin(), Rest.end());
    }
  }
  return Chain;
}

uint64_t RnsCkksParams::candidateSpecial(int Bits) {
  return generateNttPrimes(Bits, /*LogN=*/16, 1)[0];
}

RnsCkksParams RnsCkksParams::create(int LogN, int Levels, int FirstBits,
                                    int ScaleBits, SecurityLevel Security) {
  RnsCkksParams P;
  P.LogN = LogN;
  P.ChainPrimes = candidateChain(Levels + 1, FirstBits, ScaleBits);
  P.SpecialPrime = candidateSpecial(FirstBits);
  P.Security = Security;
  return P;
}

double RnsCkksParams::logQ() const {
  double Bits = 0;
  for (uint64_t Q : ChainPrimes)
    Bits += std::log2(static_cast<double>(Q));
  return Bits;
}

double RnsCkksParams::logQP() const {
  return logQ() + std::log2(static_cast<double>(SpecialPrime));
}

//===----------------------------------------------------------------------===//
// Construction and key generation
//===----------------------------------------------------------------------===//

RnsCkksBackend::RnsCkksBackend(const RnsCkksParams &ParamsIn)
    : Params(ParamsIn), LogN(ParamsIn.LogN), Degree(size_t(1) << ParamsIn.LogN),
      ChainLen(ParamsIn.ChainPrimes.size()), Encoder(ParamsIn.LogN),
      Rng(ParamsIn.Seed) {
  CHET_CHECK(ChainLen >= 1, InvalidArgument,
             "RNS-CKKS parameters need at least one chain prime");
  CHET_CHECK(Params.SpecialPrime != 0, InvalidArgument,
             "RNS-CKKS parameters are missing the special prime");
  CHET_CHECK(Params.logQP() <= maxLogQForSecurity(LogN, Params.Security),
             SecurityBudgetExceeded,
             "parameters violate the requested security level: logQP = ",
             Params.logQP(), " bits exceeds the ", maxLogQForSecurity(
                 LogN, Params.Security),
             "-bit budget at LogN = ", LogN);

  for (uint64_t Q : Params.ChainPrimes) {
    ChainMods.emplace_back(Q);
    ChainNtt.push_back(std::make_unique<NttTables>(LogN, ChainMods.back()));
  }
  SpecialMod = Modulus(Params.SpecialPrime);
  SpecialNtt = std::make_unique<NttTables>(LogN, SpecialMod);

  SpecialModChain.resize(ChainLen);
  SpecialInvModChain.resize(ChainLen);
  for (size_t J = 0; J < ChainLen; ++J) {
    SpecialModChain[J] = ChainMods[J].reduce(Params.SpecialPrime);
    SpecialInvModChain[J] = invMod(SpecialModChain[J], ChainMods[J]);
  }
  CrtByLevel.resize(ChainLen);

  // Secret key.
  SecretTernary = sampleTernaryCoeffs();
  SecretNtt.resize(ChainLen + 1);
  {
    std::vector<int64_t> Wide(SecretTernary.begin(), SecretTernary.end());
    parallelFor(0, ChainLen + 1, 1,
                [&](size_t J) { SecretNtt[J] = smallToNtt(Wide, J); });
  }

  // Public key (b, a) = (-(a s) + e, a) over the chain primes only;
  // fresh ciphertexts never touch the special prime. All Rng draws happen
  // sequentially (in the original order) before the parallel compute so
  // the key material is identical at every thread count.
  PkB.resize(ChainLen);
  PkA.resize(ChainLen);
  std::vector<int64_t> E = sampleErrorCoeffs();
  for (size_t J = 0; J < ChainLen; ++J)
    PkA[J] = uniformNtt(J);
  parallelFor(0, ChainLen, 1, [&](size_t J) {
    std::vector<uint64_t> ENtt = smallToNtt(E, J);
    const Modulus &Q = ChainMods[J];
    PkB[J].resize(Degree);
    for (size_t K = 0; K < Degree; ++K)
      PkB[J][K] =
          Q.addMod(Q.negMod(Q.mulMod(PkA[J][K], SecretNtt[J][K])), ENtt[K]);
  });

  // Relinearization key: target s^2 over every modulus.
  std::vector<std::vector<uint64_t>> SquareTarget(ChainLen + 1);
  parallelFor(0, ChainLen + 1, 1, [&](size_t J) {
    const Modulus &Q = modAt(J);
    SquareTarget[J].resize(Degree);
    for (size_t K = 0; K < Degree; ++K)
      SquareTarget[J][K] = Q.mulMod(SecretNtt[J][K], SecretNtt[J][K]);
  });
  RelinKey = makeKSwitchKey(SquareTarget);

  // Stock rotation keys for the power-of-two steps, left and right
  // (2 log N - 2 keys; Section 2.4): the default CHET's rotation-key
  // selection improves on.
  if (Params.StockPow2Keys) {
    std::vector<int> Pow2Steps;
    for (size_t Step = 1; Step < slotCount(); Step <<= 1) {
      Pow2Steps.push_back(static_cast<int>(Step));
      Pow2Steps.push_back(-static_cast<int>(Step));
    }
    generateRotationKeys(Pow2Steps);
  }
}

std::vector<int8_t> RnsCkksBackend::sampleTernaryCoeffs() {
  std::vector<int8_t> Coeffs(Degree);
  for (auto &C : Coeffs)
    C = static_cast<int8_t>(Rng.nextTernary());
  return Coeffs;
}

std::vector<int64_t> RnsCkksBackend::sampleErrorCoeffs() {
  std::vector<int64_t> Coeffs(Degree);
  for (auto &C : Coeffs)
    C = Rng.nextCenteredGaussian();
  return Coeffs;
}

void RnsCkksBackend::smallToNttInto(const int64_t *Coeffs, size_t J,
                                    uint64_t *Out) const {
  const Modulus &Q = modAt(J);
  for (size_t K = 0; K < Degree; ++K) {
    int64_t V = Coeffs[K];
    Out[K] = V >= 0 ? Q.reduce(static_cast<uint64_t>(V))
                    : Q.negMod(Q.reduce(static_cast<uint64_t>(-V)));
  }
  nttAt(J).forward(Out);
}

std::vector<uint64_t>
RnsCkksBackend::smallToNtt(const std::vector<int64_t> &Coeffs,
                           size_t J) const {
  std::vector<uint64_t> Out(Degree);
  smallToNttInto(Coeffs.data(), J, Out.data());
  return Out;
}

std::vector<uint64_t> RnsCkksBackend::uniformNtt(size_t J) {
  // Independent uniform residues per CRT component are exactly uniform
  // modulo the full product; sampling directly in NTT form is equivalent
  // because the NTT is a bijection.
  const Modulus &Q = modAt(J);
  std::vector<uint64_t> Out(Degree);
  for (auto &V : Out)
    V = Rng.nextBounded(Q.value());
  return Out;
}

RnsCkksBackend::KSwitchKey RnsCkksBackend::makeKSwitchKey(
    const std::vector<std::vector<uint64_t>> &Target) {
  assert(Target.size() == ChainLen + 1 && "target must cover all moduli");
  KSwitchKey Key;
  Key.B.resize(ChainLen);
  Key.A.resize(ChainLen);
  // Draw every random sample first, in the exact order the sequential
  // code consumed them (per digit i: E_i, then A_{i,0..ChainLen}), so the
  // generated key is identical at every thread count; the NTT/arithmetic
  // work then fans out over (digit, modulus) pairs.
  std::vector<std::vector<int64_t>> E(ChainLen);
  std::vector<std::vector<std::vector<uint64_t>>> A(ChainLen);
  for (size_t I = 0; I < ChainLen; ++I) {
    Key.B[I].resize((ChainLen + 1) * Degree);
    Key.A[I].resize((ChainLen + 1) * Degree);
    E[I] = sampleErrorCoeffs();
    A[I].resize(ChainLen + 1);
    for (size_t J = 0; J <= ChainLen; ++J)
      A[I][J] = uniformNtt(J);
  }
  parallelFor(0, ChainLen * (ChainLen + 1), 1, [&](size_t Flat) {
    size_t I = Flat / (ChainLen + 1);
    size_t J = Flat % (ChainLen + 1);
    const Modulus &Q = modAt(J);
    std::vector<uint64_t> ENtt = smallToNtt(E[I], J);
    const std::vector<uint64_t> &AIJ = A[I][J];
    uint64_t *BOut = Key.B[I].data() + J * Degree;
    uint64_t *AOut = Key.A[I].data() + J * Degree;
    for (size_t K = 0; K < Degree; ++K) {
      uint64_t V = Q.addMod(
          Q.negMod(Q.mulMod(AIJ[K], SecretNtt[J][K])), ENtt[K]);
      if (J == I) {
        // Add p * T_i * target; T_i is 1 mod q_i and 0 elsewhere, and
        // p * T_i vanishes modulo the special prime itself.
        V = Q.addMod(V, Q.mulMod(SpecialModChain[J], Target[J][K]));
      }
      BOut[K] = V;
      AOut[K] = AIJ[K];
    }
  });
  return Key;
}

void RnsCkksBackend::generateRotationKeys(const std::vector<int> &Steps) {
  int Slots = static_cast<int>(slotCount());
  for (int Step : Steps) {
    int Norm = ((Step % Slots) + Slots) % Slots;
    if (Norm == 0)
      continue;
    RotationSteps.insert(Norm);
    uint64_t Elt = Encoder.galoisElement(Step);
    if (GaloisKeys.count(Elt))
      continue;
    // Target sigma_elt(s) over every modulus.
    size_t TwoN = 2 * Degree;
    std::vector<int64_t> Rotated(Degree);
    for (size_t K = 0; K < Degree; ++K) {
      size_t Index = (K * Elt) & (TwoN - 1);
      int64_t V = SecretTernary[K];
      if (Index >= Degree) {
        Index -= Degree;
        V = -V;
      }
      Rotated[Index] = V;
    }
    std::vector<std::vector<uint64_t>> Target(ChainLen + 1);
    parallelFor(0, ChainLen + 1, 1,
                [&](size_t J) { Target[J] = smallToNtt(Rotated, J); });
    GaloisKeys.emplace(Elt, makeKSwitchKey(Target));
    GaloisPerms.emplace(Elt, galoisNttPermutation(LogN, Elt));
  }
}

void RnsCkksBackend::clearRotationKeys() {
  GaloisKeys.clear();
  GaloisPerms.clear();
  RotationSteps.clear();
}

bool RnsCkksBackend::hasRotationKey(int Steps) const {
  return GaloisKeys.count(Encoder.galoisElement(Steps)) != 0;
}

//===----------------------------------------------------------------------===//
// Encoding, encryption, decryption
//===----------------------------------------------------------------------===//

RnsCkksBackend::Pt RnsCkksBackend::encode(const std::vector<double> &Values,
                                          double Scale) const {
  Pt P;
  P.Coeffs = Encoder.encodeCoeffs(Values, Scale);
  P.Scale = Scale;
  P.NttCache = std::make_shared<Pt::Cache>();
  P.NttCache->PerPrime.resize(ChainLen);
  P.NttCache->Ready = std::make_unique<std::atomic<bool>[]>(ChainLen);
  for (size_t J = 0; J < ChainLen; ++J)
    P.NttCache->Ready[J].store(false, std::memory_order_relaxed);
  return P;
}

std::vector<double> RnsCkksBackend::decode(const Pt &P) const {
  std::vector<double> Values = Encoder.decodeValues(P.Coeffs, P.Scale);
  return Values;
}

const std::vector<uint64_t> &RnsCkksBackend::plainNtt(const Pt &P,
                                                      size_t J) const {
  assert(P.NttCache && "plaintext was not produced by encode()");
  Pt::Cache &Cache = *P.NttCache;
  std::vector<uint64_t> &Slot = Cache.PerPrime[J];
  // Double-checked publication: ops sharing one Pt may race to fill the
  // same prime's slot when kernels run on the pool.
  if (Cache.Ready[J].load(std::memory_order_acquire))
    return Slot;
  std::lock_guard<std::mutex> Lock(Cache.FillMu);
  if (Cache.Ready[J].load(std::memory_order_relaxed))
    return Slot;
  const Modulus &Q = ChainMods[J];
  Slot.resize(Degree);
  for (size_t K = 0; K < Degree; ++K) {
    double C = P.Coeffs[K];
    uint64_t Mag = static_cast<uint64_t>(std::fabs(C));
    Slot[K] = C >= 0 ? Q.reduce(Mag) : Q.negMod(Q.reduce(Mag));
  }
  ChainNtt[J]->forward(Slot.data());
  Cache.Ready[J].store(true, std::memory_order_release);
  return Slot;
}

RnsCkksBackend::Ct RnsCkksBackend::encrypt(const Pt &P) {
  Ct C;
  C.Level = static_cast<int>(ChainLen) - 1;
  C.Scale = P.Scale;
  C.C0.resize(ChainLen * Degree);
  C.C1.resize(ChainLen * Degree);

  std::vector<int64_t> U(Degree);
  for (auto &V : U)
    V = Rng.nextTernary();
  std::vector<int64_t> E0 = sampleErrorCoeffs();
  std::vector<int64_t> E1 = sampleErrorCoeffs();

  // All Rng draws (U, E0, E1) happened above; the per-prime work is pure
  // compute and fans out over the chain.
  parallelFor(0, ChainLen, 1, [&](size_t J) {
    const Modulus &Q = ChainMods[J];
    LimbBuffer UNtt(Degree), E0Ntt(Degree), E1Ntt(Degree);
    smallToNttInto(U.data(), J, UNtt.data());
    smallToNttInto(E0.data(), J, E0Ntt.data());
    smallToNttInto(E1.data(), J, E1Ntt.data());
    const std::vector<uint64_t> &M = plainNtt(P, J);
    uint64_t *C0 = C.C0.data() + J * Degree;
    uint64_t *C1 = C.C1.data() + J * Degree;
    for (size_t K = 0; K < Degree; ++K) {
      C0[K] = Q.addMod(Q.addMod(Q.mulMod(PkB[J][K], UNtt[K]), E0Ntt[K]),
                       M[K]);
      C1[K] = Q.addMod(Q.mulMod(PkA[J][K], UNtt[K]), E1Ntt[K]);
    }
  });
  return C;
}

const CrtBasis &RnsCkksBackend::crtForLevel(int Level) const {
  assert(Level >= 0 && Level < static_cast<int>(ChainLen));
  std::lock_guard<std::mutex> Lock(*CrtMu);
  if (!CrtByLevel[Level]) {
    std::vector<uint64_t> Primes(Params.ChainPrimes.begin(),
                                 Params.ChainPrimes.begin() + Level + 1);
    CrtByLevel[Level] = std::make_unique<CrtBasis>(Primes);
  }
  return *CrtByLevel[Level];
}

RnsCkksBackend::Pt RnsCkksBackend::decrypt(const Ct &C) const {
  int L = C.Level;
  CHET_CHECK(L >= 0 && L < static_cast<int>(ChainLen) &&
                 C.C0.size() == (L + 1) * Degree &&
                 C.C1.size() == (L + 1) * Degree && C.Scale > 0,
             MalformedCiphertext,
             "ciphertext structure does not match the parameters: level ", L,
             ", ", C.C0.size(), "/", C.C1.size(), " words, scale ", C.Scale);
  LimbBuffer Residues((size_t(L) + 1) * Degree);
  parallelFor(0, size_t(L) + 1, 1, [&](size_t J) {
    const Modulus &Q = ChainMods[J];
    uint64_t *R = Residues.data() + J * Degree;
    const uint64_t *C0 = C.C0.data() + J * Degree;
    const uint64_t *C1 = C.C1.data() + J * Degree;
    for (size_t K = 0; K < Degree; ++K)
      R[K] = Q.addMod(C0[K], Q.mulMod(C1[K], SecretNtt[J][K]));
    ChainNtt[J]->inverse(R);
  });

  Pt P;
  P.Scale = C.Scale;
  P.Coeffs.resize(Degree);
  if (L == 0) {
    uint64_t Q = ChainMods[0].value();
    for (size_t K = 0; K < Degree; ++K) {
      uint64_t V = Residues[K];
      P.Coeffs[K] = V > Q / 2 ? -static_cast<double>(Q - V)
                              : static_cast<double>(V);
    }
  } else {
    const CrtBasis &Basis = crtForLevel(L);
    globalThreadPool().parallelForBlocks(
        0, Degree, 256, [&](size_t Lo, size_t Hi) {
          LimbBuffer PerCoeff(size_t(L) + 1);
          for (size_t K = Lo; K < Hi; ++K) {
            for (int J = 0; J <= L; ++J)
              PerCoeff[J] = Residues[J * Degree + K];
            P.Coeffs[K] =
                Basis.reconstructCentered(PerCoeff.data()).toDouble();
          }
        });
  }
  return P;
}

void RnsCkksBackend::freeCt(Ct &C) const {
  C.C0.clear();
  C.C0.shrink_to_fit();
  C.C1.clear();
  C.C1.shrink_to_fit();
}

//===----------------------------------------------------------------------===//
// Linear HISA instructions
//===----------------------------------------------------------------------===//

void RnsCkksBackend::modSwitchTo(Ct &C, int Level) const {
  assert(Level <= C.Level && "cannot raise a ciphertext's level");
  if (Level == C.Level)
    return;
  // Q' divides Q, so dropping RNS components is exact modulus reduction.
  C.C0.resize((Level + 1) * Degree);
  C.C1.resize((Level + 1) * Degree);
  C.Level = Level;
}

static bool scalesMatch(double A, double B) {
  double Ratio = A / B;
  return Ratio > 1.0 - 1e-6 && Ratio < 1.0 + 1e-6;
}

void RnsCkksBackend::addAssign(Ct &C, const Ct &Other) const {
  CHET_CHECK(scalesMatch(C.Scale, Other.Scale), ScaleMismatch,
             "addition scale mismatch: ", C.Scale, " vs ", Other.Scale);
  int L = C.Level < Other.Level ? C.Level : Other.Level;
  modSwitchTo(C, L);
  parallelFor(0, size_t(L) + 1, 1, [&](size_t J) {
    const Modulus &Q = ChainMods[J];
    uint64_t *Dst0 = C.C0.data() + J * Degree;
    uint64_t *Dst1 = C.C1.data() + J * Degree;
    const uint64_t *Src0 = Other.C0.data() + J * Degree;
    const uint64_t *Src1 = Other.C1.data() + J * Degree;
    for (size_t K = 0; K < Degree; ++K) {
      Dst0[K] = Q.addMod(Dst0[K], Src0[K]);
      Dst1[K] = Q.addMod(Dst1[K], Src1[K]);
    }
  });
}

void RnsCkksBackend::subAssign(Ct &C, const Ct &Other) const {
  CHET_CHECK(scalesMatch(C.Scale, Other.Scale), ScaleMismatch,
             "subtraction scale mismatch: ", C.Scale, " vs ", Other.Scale);
  int L = C.Level < Other.Level ? C.Level : Other.Level;
  modSwitchTo(C, L);
  parallelFor(0, size_t(L) + 1, 1, [&](size_t J) {
    const Modulus &Q = ChainMods[J];
    uint64_t *Dst0 = C.C0.data() + J * Degree;
    uint64_t *Dst1 = C.C1.data() + J * Degree;
    const uint64_t *Src0 = Other.C0.data() + J * Degree;
    const uint64_t *Src1 = Other.C1.data() + J * Degree;
    for (size_t K = 0; K < Degree; ++K) {
      Dst0[K] = Q.subMod(Dst0[K], Src0[K]);
      Dst1[K] = Q.subMod(Dst1[K], Src1[K]);
    }
  });
}

void RnsCkksBackend::addPlainAssign(Ct &C, const Pt &P) const {
  CHET_CHECK(scalesMatch(C.Scale, P.Scale), ScaleMismatch,
             "addPlain scale mismatch: ", C.Scale, " vs ", P.Scale);
  parallelFor(0, size_t(C.Level) + 1, 1, [&](size_t J) {
    const Modulus &Q = ChainMods[J];
    const std::vector<uint64_t> &M = plainNtt(P, J);
    uint64_t *Dst = C.C0.data() + J * Degree;
    for (size_t K = 0; K < Degree; ++K)
      Dst[K] = Q.addMod(Dst[K], M[K]);
  });
}

void RnsCkksBackend::subPlainAssign(Ct &C, const Pt &P) const {
  CHET_CHECK(scalesMatch(C.Scale, P.Scale), ScaleMismatch,
             "subPlain scale mismatch: ", C.Scale, " vs ", P.Scale);
  parallelFor(0, size_t(C.Level) + 1, 1, [&](size_t J) {
    const Modulus &Q = ChainMods[J];
    const std::vector<uint64_t> &M = plainNtt(P, J);
    uint64_t *Dst = C.C0.data() + J * Degree;
    for (size_t K = 0; K < Degree; ++K)
      Dst[K] = Q.subMod(Dst[K], M[K]);
  });
}

void RnsCkksBackend::addScalarAssign(Ct &C, double X) const {
  // The encoding of the constant vector (x, ..., x) is the constant
  // polynomial round(x * scale), whose NTT form is that constant in every
  // slot.
  double Rounded = std::nearbyint(X * C.Scale);
  CHET_CHECK(std::fabs(Rounded) < 4.6e18, EncodingOverflow,
             "scalar exceeds embedding range: ", X, " at scale ", C.Scale);
  bool Negative = Rounded < 0;
  uint64_t Mag = static_cast<uint64_t>(std::fabs(Rounded));
  parallelFor(0, size_t(C.Level) + 1, 1, [&](size_t J) {
    const Modulus &Q = ChainMods[J];
    uint64_t V = Q.reduce(Mag);
    if (Negative)
      V = Q.negMod(V);
    uint64_t *Dst = C.C0.data() + J * Degree;
    for (size_t K = 0; K < Degree; ++K)
      Dst[K] = Q.addMod(Dst[K], V);
  });
}

void RnsCkksBackend::mulScalarAssign(Ct &C, double X, uint64_t Scale) const {
  double Rounded = std::nearbyint(X * static_cast<double>(Scale));
  CHET_CHECK(std::fabs(Rounded) < 4.6e18, EncodingOverflow,
             "scalar exceeds embedding range: ", X, " at scale ", Scale);
  bool Negative = Rounded < 0;
  uint64_t Mag = static_cast<uint64_t>(std::fabs(Rounded));
  parallelFor(0, size_t(C.Level) + 1, 1, [&](size_t J) {
    const Modulus &Q = ChainMods[J];
    uint64_t V = Q.reduce(Mag);
    if (Negative)
      V = Q.negMod(V);
    uint64_t VShoup = shoupPrecompute(V, Q.value());
    uint64_t *Dst0 = C.C0.data() + J * Degree;
    uint64_t *Dst1 = C.C1.data() + J * Degree;
    for (size_t K = 0; K < Degree; ++K) {
      Dst0[K] = shoupMulMod(Dst0[K], V, VShoup, Q.value());
      Dst1[K] = shoupMulMod(Dst1[K], V, VShoup, Q.value());
    }
  });
  C.Scale *= static_cast<double>(Scale);
}

void RnsCkksBackend::mulPlainAssign(Ct &C, const Pt &P) const {
  parallelFor(0, size_t(C.Level) + 1, 1, [&](size_t J) {
    const Modulus &Q = ChainMods[J];
    const std::vector<uint64_t> &M = plainNtt(P, J);
    uint64_t *Dst0 = C.C0.data() + J * Degree;
    uint64_t *Dst1 = C.C1.data() + J * Degree;
    for (size_t K = 0; K < Degree; ++K) {
      Dst0[K] = Q.mulMod(Dst0[K], M[K]);
      Dst1[K] = Q.mulMod(Dst1[K], M[K]);
    }
  });
  C.Scale *= P.Scale;
}

//===----------------------------------------------------------------------===//
// Multiplication, relinearization, rotation
//===----------------------------------------------------------------------===//

/// Whether the key-switch inner products may sum raw 128-bit products and
/// Barrett-reduce once per element instead of reducing every term. Primes
/// are <= 61 bits, so a term is < 2^122 and 32 terms leave 2x headroom in
/// the accumulator. Both folds produce the canonical representative of
/// the same residue, so the result is bit-identical either way; the lazy
/// path rides the limb pool's escape hatch so CHET_LIMB_POOL=off selects
/// the simple reference kernels end to end.
static bool lazyInnerProduct(size_t Terms) {
  return Terms <= 32 && LimbPool::instance().enabled();
}

void RnsCkksBackend::keySwitch(const uint64_t *Digits, int Level,
                               const KSwitchKey &Key, LimbBuffer &OutB,
                               LimbBuffer &OutA) const {
  size_t Components = Level + 1;
  const bool Lazy = lazyInnerProduct(Components);
  if (Lazy) {
    // Every output element is overwritten by the final reduction.
    OutB.resizeUninit(Components * Degree);
    OutA.resizeUninit(Components * Degree);
  } else {
    OutB.assignZero(Components * Degree);
    OutA.assignZero(Components * Degree);
  }
  LimbBuffer AccBSp(Degree), AccASp(Degree);
  if (!Lazy) {
    AccBSp.assignZero(Degree);
    AccASp.assignZero(Degree);
  }

  // Loop interchange vs. the textbook order: the outer (parallel) loop
  // walks the output moduli, each of which owns a disjoint accumulator;
  // the inner loop walks the digits sequentially in the original order,
  // so every output element sees the same addition order as a sequential
  // run and results stay bit-identical.
  parallelFor(0, Components + 1, 1, [&](size_t J) {
    size_t ModIndex = J < Components ? J : ChainLen; // special last
    const Modulus &Q = modAt(ModIndex);
    LimbBuffer Tmp(Degree);
    PooledScratch<unsigned __int128> LzB, LzA;
    if (Lazy) {
      LzB = PooledScratch<unsigned __int128>::zeroed(Degree);
      LzA = PooledScratch<unsigned __int128>::zeroed(Degree);
    }
    uint64_t *DstB =
        ModIndex == ChainLen ? AccBSp.data() : OutB.data() + J * Degree;
    uint64_t *DstA =
        ModIndex == ChainLen ? AccASp.data() : OutA.data() + J * Degree;
    for (size_t I = 0; I < Components; ++I) {
      const uint64_t *Digit = Digits + I * Degree;
      if (ModIndex == I) {
        std::memcpy(Tmp.data(), Digit, Degree * sizeof(uint64_t));
      } else {
        for (size_t K = 0; K < Degree; ++K)
          Tmp[K] = Q.reduce(Digit[K]);
      }
      nttAt(ModIndex).forward(Tmp.data());
      const uint64_t *KeyB = Key.B[I].data() + ModIndex * Degree;
      const uint64_t *KeyA = Key.A[I].data() + ModIndex * Degree;
      if (Lazy) {
        for (size_t K = 0; K < Degree; ++K) {
          LzB[K] += static_cast<unsigned __int128>(Tmp[K]) * KeyB[K];
          LzA[K] += static_cast<unsigned __int128>(Tmp[K]) * KeyA[K];
        }
      } else {
        for (size_t K = 0; K < Degree; ++K) {
          DstB[K] = Q.addMod(DstB[K], Q.mulMod(Tmp[K], KeyB[K]));
          DstA[K] = Q.addMod(DstA[K], Q.mulMod(Tmp[K], KeyA[K]));
        }
      }
    }
    if (Lazy)
      for (size_t K = 0; K < Degree; ++K) {
        DstB[K] = Q.reduce128(LzB[K]);
        DstA[K] = Q.reduce128(LzA[K]);
      }
  });
  KsStats->ForwardNtts.fetch_add(Components * (Components + 1),
                                 std::memory_order_relaxed);
  divideBySpecialPair(OutB.data(), AccBSp.data(), OutA.data(),
                      AccASp.data(), Level);
}

void RnsCkksBackend::keySwitchGalois(const uint64_t *Digits, int Level,
                                     uint64_t Elt, const KSwitchKey &Key,
                                     LimbBuffer &OutB,
                                     LimbBuffer &OutA) const {
  size_t Components = Level + 1;
  const bool Lazy = lazyInnerProduct(Components);
  if (Lazy) {
    OutB.resizeUninit(Components * Degree);
    OutA.resizeUninit(Components * Degree);
  } else {
    OutB.assignZero(Components * Degree);
    OutA.assignZero(Components * Degree);
  }
  LimbBuffer AccBSp(Degree), AccASp(Degree);
  if (!Lazy) {
    AccBSp.assignZero(Degree);
    AccASp.assignZero(Degree);
  }

  // Same loop interchange as keySwitch: the parallel loop owns disjoint
  // per-modulus accumulators, the sequential digit loop fixes the fold
  // order, so results are bit-identical at any thread count.
  parallelFor(0, Components + 1, 1, [&](size_t J) {
    size_t ModIndex = J < Components ? J : ChainLen; // special last
    const Modulus &Q = modAt(ModIndex);
    LimbBuffer Tmp(Degree), Sigma(Degree);
    PooledScratch<unsigned __int128> LzB, LzA;
    if (Lazy) {
      LzB = PooledScratch<unsigned __int128>::zeroed(Degree);
      LzA = PooledScratch<unsigned __int128>::zeroed(Degree);
    }
    uint64_t *DstB =
        ModIndex == ChainLen ? AccBSp.data() : OutB.data() + J * Degree;
    uint64_t *DstA =
        ModIndex == ChainLen ? AccASp.data() : OutA.data() + J * Degree;
    for (size_t I = 0; I < Components; ++I) {
      const uint64_t *Digit = Digits + I * Degree;
      if (ModIndex == I) {
        std::memcpy(Tmp.data(), Digit, Degree * sizeof(uint64_t));
      } else {
        for (size_t K = 0; K < Degree; ++K)
          Tmp[K] = Q.reduce(Digit[K]);
      }
      applyAutomorphismRns(Tmp.data(), Sigma.data(), Degree, Elt,
                           Q.value());
      nttAt(ModIndex).forward(Sigma.data());
      const uint64_t *KeyB = Key.B[I].data() + ModIndex * Degree;
      const uint64_t *KeyA = Key.A[I].data() + ModIndex * Degree;
      if (Lazy) {
        for (size_t K = 0; K < Degree; ++K) {
          LzB[K] += static_cast<unsigned __int128>(Sigma[K]) * KeyB[K];
          LzA[K] += static_cast<unsigned __int128>(Sigma[K]) * KeyA[K];
        }
      } else {
        for (size_t K = 0; K < Degree; ++K) {
          DstB[K] = Q.addMod(DstB[K], Q.mulMod(Sigma[K], KeyB[K]));
          DstA[K] = Q.addMod(DstA[K], Q.mulMod(Sigma[K], KeyA[K]));
        }
      }
    }
    if (Lazy)
      for (size_t K = 0; K < Degree; ++K) {
        DstB[K] = Q.reduce128(LzB[K]);
        DstA[K] = Q.reduce128(LzA[K]);
      }
  });
  KsStats->ForwardNtts.fetch_add(Components * (Components + 1),
                                 std::memory_order_relaxed);
  divideBySpecialPair(OutB.data(), AccBSp.data(), OutA.data(),
                      AccASp.data(), Level);
}

void RnsCkksBackend::divideBySpecialPair(uint64_t *BChain,
                                         uint64_t *BSpecial,
                                         uint64_t *AChain,
                                         uint64_t *ASpecial,
                                         int Level) const {
  // Counter totals match the two single-polynomial divisions this pass
  // replaces (profiling asserts the hoisting amortization ratios).
  KsStats->ForwardNtts.fetch_add(2 * (size_t(Level) + 1),
                                 std::memory_order_relaxed);
  KsStats->InverseNtts.fetch_add(2, std::memory_order_relaxed);
  SpecialNtt->inverse(BSpecial);
  SpecialNtt->inverse(ASpecial);
  uint64_t P = SpecialMod.value();
  uint64_t HalfP = P >> 1;
  parallelFor(0, size_t(Level) + 1, 1, [&](size_t J) {
    const Modulus &Q = ChainMods[J];
    LimbBuffer CorrB(Degree), CorrA(Degree);
    for (size_t K = 0; K < Degree; ++K) {
      uint64_t TB = BSpecial[K];
      uint64_t TA = ASpecial[K];
      // Centered representative of T mod p, reduced into Z_q.
      CorrB[K] = TB > HalfP ? Q.negMod(Q.reduce(P - TB)) : Q.reduce(TB);
      CorrA[K] = TA > HalfP ? Q.negMod(Q.reduce(P - TA)) : Q.reduce(TA);
    }
    ChainNtt[J]->forward(CorrB.data());
    ChainNtt[J]->forward(CorrA.data());
    uint64_t Inv = SpecialInvModChain[J];
    uint64_t InvShoup = shoupPrecompute(Inv, Q.value());
    uint64_t *DstB = BChain + J * Degree;
    uint64_t *DstA = AChain + J * Degree;
    for (size_t K = 0; K < Degree; ++K) {
      DstB[K] = shoupMulMod(Q.subMod(DstB[K], CorrB[K]), Inv, InvShoup,
                            Q.value());
      DstA[K] = shoupMulMod(Q.subMod(DstA[K], CorrA[K]), Inv, InvShoup,
                            Q.value());
    }
  });
}

void RnsCkksBackend::mulAssign(Ct &C, const Ct &Other) {
  int L = C.Level < Other.Level ? C.Level : Other.Level;
  modSwitchTo(C, L);

  LimbBuffer D0((size_t(L) + 1) * Degree), D1((size_t(L) + 1) * Degree);
  LimbBuffer D2((size_t(L) + 1) * Degree);
  parallelFor(0, size_t(L) + 1, 1, [&](size_t J) {
    const Modulus &Q = ChainMods[J];
    const uint64_t *A0 = C.C0.data() + J * Degree;
    const uint64_t *A1 = C.C1.data() + J * Degree;
    const uint64_t *B0 = Other.C0.data() + J * Degree;
    const uint64_t *B1 = Other.C1.data() + J * Degree;
    uint64_t *O0 = D0.data() + J * Degree;
    uint64_t *O1 = D1.data() + J * Degree;
    uint64_t *O2 = D2.data() + J * Degree;
    for (size_t K = 0; K < Degree; ++K) {
      O0[K] = Q.mulMod(A0[K], B0[K]);
      O1[K] = Q.addMod(Q.mulMod(A0[K], B1[K]), Q.mulMod(A1[K], B0[K]));
    }
    // Digits must be coefficient form; the fused kernel folds the c1*c1
    // product into the inverse transform's first stage, saving one full
    // pass over the limb.
    ChainNtt[J]->pointwiseMulInverse(O2, A1, B1);
  });

  KsStats->InverseNtts.fetch_add(size_t(L) + 1, std::memory_order_relaxed);
  LimbBuffer KB, KA;
  keySwitch(D2.data(), L, RelinKey, KB, KA);
  parallelFor(0, size_t(L) + 1, 1, [&](size_t J) {
    const Modulus &Q = ChainMods[J];
    uint64_t *Dst0 = C.C0.data() + J * Degree;
    uint64_t *Dst1 = C.C1.data() + J * Degree;
    const uint64_t *S0 = D0.data() + J * Degree;
    const uint64_t *S1 = D1.data() + J * Degree;
    const uint64_t *K0 = KB.data() + J * Degree;
    const uint64_t *K1 = KA.data() + J * Degree;
    for (size_t K = 0; K < Degree; ++K) {
      Dst0[K] = Q.addMod(S0[K], K0[K]);
      Dst1[K] = Q.addMod(S1[K], K1[K]);
    }
  });
  C.Scale *= Other.Scale;
}

void RnsCkksBackend::rotateByElement(Ct &C, uint64_t Elt,
                                     const KSwitchKey &Key) {
  int L = C.Level;
  // Key-switch digits are the *unrotated* c1 components in coefficient
  // form; keySwitchGalois applies sigma_Elt after reducing each digit
  // into its output modulus. This reduce-then-rotate order matches the
  // lift the hoisted rotLeftMany path uses, keeping both bit-identical.
  LimbBuffer Digits((size_t(L) + 1) * Degree);
  parallelFor(0, size_t(L) + 1, 1, [&](size_t J) {
    const Modulus &Q = ChainMods[J];
    LimbBuffer Coeff(Degree), SigmaCoeff(Degree);
    uint64_t *Digit = Digits.data() + J * Degree;
    std::memcpy(Digit, C.C1.data() + J * Degree,
                Degree * sizeof(uint64_t));
    ChainNtt[J]->inverse(Digit);
    // sigma(c0) goes straight back to NTT form.
    std::memcpy(Coeff.data(), C.C0.data() + J * Degree,
                Degree * sizeof(uint64_t));
    ChainNtt[J]->inverse(Coeff.data());
    applyAutomorphismRns(Coeff.data(), SigmaCoeff.data(), Degree, Elt,
                         Q.value());
    ChainNtt[J]->forward(SigmaCoeff.data());
    std::memcpy(C.C0.data() + J * Degree, SigmaCoeff.data(),
                Degree * sizeof(uint64_t));
  });
  KsStats->InverseNtts.fetch_add(2 * (size_t(L) + 1),
                                 std::memory_order_relaxed);
  KsStats->ForwardNtts.fetch_add(size_t(L) + 1, std::memory_order_relaxed);
  KsStats->Rotations.fetch_add(1, std::memory_order_relaxed);

  LimbBuffer KB, KA;
  keySwitchGalois(Digits.data(), L, Elt, Key, KB, KA);
  parallelFor(0, size_t(L) + 1, 1, [&](size_t J) {
    const Modulus &Q = ChainMods[J];
    uint64_t *Dst0 = C.C0.data() + J * Degree;
    const uint64_t *K0 = KB.data() + J * Degree;
    for (size_t K = 0; K < Degree; ++K)
      Dst0[K] = Q.addMod(Dst0[K], K0[K]);
  });
  std::memcpy(C.C1.data(), KA.data(), (L + 1) * Degree * sizeof(uint64_t));
}

void RnsCkksBackend::rotLeftAssign(Ct &C, int Steps) {
  size_t Slots = slotCount();
  int S = normalizeRotation(Steps, Slots);
  if (S == 0)
    return;

  uint64_t Elt = Encoder.galoisElement(S);
  auto It = GaloisKeys.find(Elt);
  if (It != GaloisKeys.end()) {
    rotateByElement(C, Elt, It->second);
    return;
  }
  // No dedicated key: fall back to the default power-of-two key set,
  // taking the shorter direction (Section 2.4: "use multiple rotations to
  // achieve the desired amount").
  forEachRotationHop(S, Slots, [&](int Step) {
    uint64_t E = Encoder.galoisElement(Step);
    auto KeyIt = GaloisKeys.find(E);
    if (KeyIt == GaloisKeys.end())
      throw MissingRotationKeyError(formatError(
          "no Galois key for rotation by ", Steps,
          " (power-of-two decomposition needs step ", Step,
          "); available rotation steps: ",
          describeRotationSteps(RotationSteps)));
    rotateByElement(C, E, KeyIt->second);
  });
}

std::vector<RnsCkksBackend::Ct>
RnsCkksBackend::rotLeftMany(const Ct &C, const std::vector<int> &Steps) {
  std::vector<Ct> Out(Steps.size());
  const int64_t Slots = static_cast<int64_t>(slotCount());

  // Partition the amounts: zero steps are copies, amounts with a
  // dedicated Galois key (and its NTT-domain permutation) hoist, the
  // rest run the per-rotation path (whose power-of-two hop chains cannot
  // share one decomposition).
  struct HoistAmount {
    size_t Idx;
    const KSwitchKey *Key;
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
      Hoist.push_back({I, &KeyIt->second, &PermIt->second});
    } else {
      Out[I] = C;
      rotLeftAssign(Out[I], static_cast<int>(S));
    }
  }
  if (Hoist.empty())
    return Out;

  const int L = C.Level;
  const size_t Components = size_t(L) + 1;

  // Shared digit decomposition: digit I = invNTT_I(c1 limb I), packed
  // flat at stride Degree.
  LimbBuffer DC(Components * Degree);
  parallelFor(0, Components, 1, [&](size_t I) {
    uint64_t *Digit = DC.data() + I * Degree;
    std::memcpy(Digit, C.C1.data() + I * Degree,
                Degree * sizeof(uint64_t));
    ChainNtt[I]->inverse(Digit);
  });

  // Shared base: Base[J] packs NTT_J(reduce_J(digit I)) for every digit,
  // for each output modulus J (chain primes then the special prime).
  // The diagonal J == I is the stored NTT-form limb itself: forward()
  // and inverse() are exact mutual inverses on fully reduced vectors.
  std::vector<LimbBuffer> Base(Components + 1);
  for (auto &B : Base)
    B.resizeUninit(Components * Degree);
  parallelFor(0, (Components + 1) * Components, 1, [&](size_t Flat) {
    size_t J = Flat / Components;
    size_t I = Flat % Components;
    size_t ModIndex = J < Components ? J : ChainLen; // special last
    const Modulus &Q = modAt(ModIndex);
    uint64_t *Dst = Base[J].data() + I * Degree;
    if (ModIndex == I) {
      std::memcpy(Dst, C.C1.data() + I * Degree, Degree * sizeof(uint64_t));
    } else {
      const uint64_t *Digit = DC.data() + I * Degree;
      for (size_t K = 0; K < Degree; ++K)
        Dst[K] = Q.reduce(Digit[K]);
      nttAt(ModIndex).forward(Dst);
    }
  });
  KsStats->InverseNtts.fetch_add(Components, std::memory_order_relaxed);
  KsStats->ForwardNtts.fetch_add(Components * Components,
                                 std::memory_order_relaxed);

  // Per-amount inner products against the shared base. The parallel loop
  // fans out over (amount, output modulus) pairs with disjoint
  // accumulators; the digit loop stays sequential in the original order,
  // so results are bit-identical at any thread count.
  const size_t Fan = Hoist.size();
  const bool Lazy = lazyInnerProduct(Components);
  // KA becomes each output's C1 via move, so it stays a std::vector; the
  // B-side accumulators and special-prime tails draw from the pool.
  std::vector<LimbBuffer> KB(Fan), SpB(Fan), SpA(Fan);
  std::vector<std::vector<uint64_t>> KA(Fan);
  for (size_t A = 0; A < Fan; ++A) {
    if (Lazy) {
      // Every element is overwritten by the final lazy reduction.
      KB[A].resizeUninit(Components * Degree);
      SpB[A].resizeUninit(Degree);
      SpA[A].resizeUninit(Degree);
    } else {
      KB[A].assignZero(Components * Degree);
      SpB[A].assignZero(Degree);
      SpA[A].assignZero(Degree);
    }
    KA[A].assign(Components * Degree, 0);
  }
  parallelFor(0, Fan * (Components + 1), 1, [&](size_t Flat) {
    size_t A = Flat / (Components + 1);
    size_t J = Flat % (Components + 1);
    size_t ModIndex = J < Components ? J : ChainLen;
    const Modulus &Q = modAt(ModIndex);
    const std::vector<uint32_t> &Perm = *Hoist[A].Perm;
    const KSwitchKey &Key = *Hoist[A].Key;
    uint64_t *DstB =
        ModIndex == ChainLen ? SpB[A].data() : KB[A].data() + J * Degree;
    uint64_t *DstA =
        ModIndex == ChainLen ? SpA[A].data() : KA[A].data() + J * Degree;
    LimbBuffer Sigma(Degree);
    PooledScratch<unsigned __int128> LzB, LzA;
    if (Lazy) {
      LzB = PooledScratch<unsigned __int128>::zeroed(Degree);
      LzA = PooledScratch<unsigned __int128>::zeroed(Degree);
    }
    for (size_t I = 0; I < Components; ++I) {
      const uint64_t *Src = Base[J].data() + I * Degree;
      for (size_t K = 0; K < Degree; ++K)
        Sigma[K] = Src[Perm[K]];
      const uint64_t *KeyB = Key.B[I].data() + ModIndex * Degree;
      const uint64_t *KeyA = Key.A[I].data() + ModIndex * Degree;
      if (Lazy) {
        for (size_t K = 0; K < Degree; ++K) {
          LzB[K] += static_cast<unsigned __int128>(Sigma[K]) * KeyB[K];
          LzA[K] += static_cast<unsigned __int128>(Sigma[K]) * KeyA[K];
        }
      } else {
        for (size_t K = 0; K < Degree; ++K) {
          DstB[K] = Q.addMod(DstB[K], Q.mulMod(Sigma[K], KeyB[K]));
          DstA[K] = Q.addMod(DstA[K], Q.mulMod(Sigma[K], KeyA[K]));
        }
      }
    }
    if (Lazy)
      for (size_t K = 0; K < Degree; ++K) {
        DstB[K] = Q.reduce128(LzB[K]);
        DstA[K] = Q.reduce128(LzA[K]);
      }
  });

  for (size_t A = 0; A < Fan; ++A) {
    divideBySpecialPair(KB[A].data(), SpB[A].data(), KA[A].data(),
                        SpA[A].data(), L);
    Ct &O = Out[Hoist[A].Idx];
    O.Level = L;
    O.Scale = C.Scale;
    O.C1 = std::move(KA[A]);
    O.C0.resize(Components * Degree);
    // sigma(c0) is a pure NTT-domain permutation of the stored limbs
    // (the limbs are fully reduced, so no transforms are needed).
    const std::vector<uint32_t> &Perm = *Hoist[A].Perm;
    parallelFor(0, Components, 1, [&](size_t J) {
      const Modulus &Q = ChainMods[J];
      const uint64_t *Src = C.C0.data() + J * Degree;
      const uint64_t *K0 = KB[A].data() + J * Degree;
      uint64_t *Dst = O.C0.data() + J * Degree;
      for (size_t K = 0; K < Degree; ++K)
        Dst[K] = Q.addMod(Src[Perm[K]], K0[K]);
    });
  }
  KsStats->Rotations.fetch_add(Fan, std::memory_order_relaxed);
  KsStats->HoistedBatches.fetch_add(1, std::memory_order_relaxed);
  KsStats->HoistedAmounts.fetch_add(Fan, std::memory_order_relaxed);
  return Out;
}

RnsCkksBackend::KeySwitchNttStats RnsCkksBackend::keySwitchNttStats() const {
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

void RnsCkksBackend::resetKeySwitchNttStats() {
  KsStats->ForwardNtts.store(0, std::memory_order_relaxed);
  KsStats->InverseNtts.store(0, std::memory_order_relaxed);
  KsStats->Rotations.store(0, std::memory_order_relaxed);
  KsStats->HoistedBatches.store(0, std::memory_order_relaxed);
  KsStats->HoistedAmounts.store(0, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Rescaling
//===----------------------------------------------------------------------===//

uint64_t RnsCkksBackend::maxRescale(const Ct &C, uint64_t UpperBound) const {
  // Largest product of the next chain primes that fits under the bound
  // (Section 5.2's RNS semantics). The base prime q_0 is never consumed.
  uint64_t Divisor = 1;
  int Level = C.Level;
  while (Level >= 1) {
    uint64_t Q = Params.ChainPrimes[Level];
    if (Divisor > UpperBound / Q)
      break;
    Divisor *= Q;
    --Level;
  }
  return Divisor;
}

void RnsCkksBackend::dropLastPrime(Ct &C) const {
  int L = C.Level;
  assert(L >= 1 && "cannot rescale past the base prime");
  uint64_t QLast = Params.ChainPrimes[L];
  uint64_t Half = QLast >> 1;
  // Both polynomials' dropped limbs go back to coefficient form up front,
  // then one fused pass per chain prime corrects C0 and C1 together: the
  // modular inverse is computed once per prime (it used to be recomputed
  // per polynomial) and each prime's data makes a single trip through
  // cache.
  LimbBuffer Last0(Degree), Last1(Degree);
  std::memcpy(Last0.data(), C.C0.data() + L * Degree,
              Degree * sizeof(uint64_t));
  std::memcpy(Last1.data(), C.C1.data() + L * Degree,
              Degree * sizeof(uint64_t));
  ChainNtt[L]->inverse(Last0.data());
  ChainNtt[L]->inverse(Last1.data());
  parallelFor(0, size_t(L), 1, [&](size_t J) {
    const Modulus &Q = ChainMods[J];
    LimbBuffer Corr0(Degree), Corr1(Degree);
    for (size_t K = 0; K < Degree; ++K) {
      uint64_t T0 = Last0[K];
      uint64_t T1 = Last1[K];
      Corr0[K] = T0 > Half ? Q.negMod(Q.reduce(QLast - T0)) : Q.reduce(T0);
      Corr1[K] = T1 > Half ? Q.negMod(Q.reduce(QLast - T1)) : Q.reduce(T1);
    }
    ChainNtt[J]->forward(Corr0.data());
    ChainNtt[J]->forward(Corr1.data());
    uint64_t Inv = invMod(Q.reduce(QLast), Q);
    uint64_t InvShoup = shoupPrecompute(Inv, Q.value());
    uint64_t *Dst0 = C.C0.data() + J * Degree;
    uint64_t *Dst1 = C.C1.data() + J * Degree;
    for (size_t K = 0; K < Degree; ++K) {
      Dst0[K] = shoupMulMod(Q.subMod(Dst0[K], Corr0[K]), Inv, InvShoup,
                            Q.value());
      Dst1[K] = shoupMulMod(Q.subMod(Dst1[K], Corr1[K]), Inv, InvShoup,
                            Q.value());
    }
  });
  C.C0.resize(L * Degree);
  C.C1.resize(L * Degree);
  C.Level = L - 1;
  C.Scale /= static_cast<double>(QLast);
}

void RnsCkksBackend::rescaleAssign(Ct &C, uint64_t Divisor) const {
  while (Divisor > 1) {
    CHET_CHECK(C.Level >= 1, LevelExhausted,
               "rescale exceeds available moduli: divisor ", Divisor,
               " remains but the ciphertext is at the base level");
    uint64_t QLast = Params.ChainPrimes[C.Level];
    CHET_CHECK(Divisor % QLast == 0, InvalidArgument,
               "rescale divisor ", Divisor,
               " was not produced by maxRescale (next chain prime is ",
               QLast, ")");
    dropLastPrime(C);
    Divisor /= QLast;
  }
}
