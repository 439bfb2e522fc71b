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

#include <algorithm>
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

/// The first \p Count NTT-friendly \p Bits-bit primes (LogN = 16
/// congruence, descending), generated once per width and extended on
/// demand.
static std::vector<uint64_t> specialCandidates(int Bits, size_t Count) {
  static std::mutex Mu;
  static std::map<int, std::vector<uint64_t>> Cache;
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<uint64_t> &List = Cache[Bits];
  if (List.size() < Count)
    List = generateNttPrimes(Bits, /*LogN=*/16, static_cast<int>(Count));
  return std::vector<uint64_t>(List.begin(), List.begin() + Count);
}

uint64_t RnsCkksParams::candidateSpecial(int Bits) {
  return specialCandidates(Bits, 1)[0];
}

std::vector<uint64_t>
RnsCkksParams::specialPrimesFor(const std::vector<uint64_t> &ChainPrimes,
                                int LogN, SecurityLevel Security, int Bits) {
  size_t ChainLen = std::max<size_t>(ChainPrimes.size(), 1);
  RnsCkksParams Chain;
  Chain.ChainPrimes = ChainPrimes;
  double Spare = maxLogQForSecurity(LogN, Security) - Chain.logQ();
  size_t MaxAlpha = Spare >= Bits ? static_cast<size_t>(Spare / Bits) : 1;
  MaxAlpha = std::min(MaxAlpha, ChainLen);
  auto KeyWords = [&](size_t A) {
    return (ChainLen + A - 1) / A * (ChainLen + A);
  };
  size_t Alpha = 1;
  for (size_t A = 2; A <= MaxAlpha; ++A)
    if (KeyWords(A) < KeyWords(Alpha))
      Alpha = A;
  // Skip candidates the chain already uses (a chain of Bits-bit scale
  // primes draws from the same sequence).
  std::vector<uint64_t> Out;
  for (uint64_t P : specialCandidates(Bits, Alpha + ChainPrimes.size()))
    if (Out.size() < Alpha && std::find(ChainPrimes.begin(), ChainPrimes.end(),
                                        P) == ChainPrimes.end())
      Out.push_back(P);
  return Out;
}

RnsCkksParams RnsCkksParams::create(int LogN, int Levels, int FirstBits,
                                    int ScaleBits, SecurityLevel Security) {
  RnsCkksParams P;
  P.LogN = LogN;
  P.ChainPrimes = candidateChain(Levels + 1, FirstBits, ScaleBits);
  P.SpecialPrimes = specialPrimesFor(P.ChainPrimes, LogN, Security, FirstBits);
  P.Security = Security;
  return P;
}

bool RnsCkksParams::primesDistinct() const {
  std::vector<uint64_t> All = ChainPrimes;
  All.insert(All.end(), SpecialPrimes.begin(), SpecialPrimes.end());
  std::sort(All.begin(), All.end());
  return std::adjacent_find(All.begin(), All.end()) == All.end();
}

double RnsCkksParams::logQ() const {
  double Bits = 0;
  for (uint64_t Q : ChainPrimes)
    Bits += std::log2(static_cast<double>(Q));
  return Bits;
}

double RnsCkksParams::logQP() const {
  double Bits = logQ();
  for (uint64_t P : SpecialPrimes)
    Bits += std::log2(static_cast<double>(P));
  return Bits;
}

//===----------------------------------------------------------------------===//
// Construction and key generation
//===----------------------------------------------------------------------===//

RnsCkksBackend::RnsCkksBackend(const RnsCkksParams &ParamsIn)
    : Params(ParamsIn), LogN(ParamsIn.LogN), Degree(size_t(1) << ParamsIn.LogN),
      ChainLen(ParamsIn.ChainPrimes.size()),
      Alpha(ParamsIn.SpecialPrimes.size()), Encoder(ParamsIn.LogN),
      Rng(ParamsIn.Seed) {
  CHET_CHECK(ChainLen >= 1, InvalidArgument,
             "RNS-CKKS parameters need at least one chain prime");
  CHET_CHECK(Alpha >= 1, InvalidArgument,
             "RNS-CKKS parameters are missing the special primes");
  CHET_CHECK(Params.primesDistinct(), InvalidArgument,
             "RNS-CKKS chain and special primes must be pairwise distinct");
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
  for (uint64_t P : Params.SpecialPrimes) {
    SpecialMods.emplace_back(P);
    SpecialNtt.push_back(
        std::make_unique<NttTables>(LogN, SpecialMods.back()));
  }

  // (product of Members except the one at Skip) mod Q.
  auto HatMod = [](const uint64_t *Members, size_t Count, size_t Skip,
                   const Modulus &Q) {
    uint64_t V = 1;
    for (size_t I = 0; I < Count; ++I)
      if (I != Skip)
        V = Q.mulMod(V, Q.reduce(Members[I]));
    return V;
  };
  const size_t Moduli = ChainLen + Alpha;
  DigitBases.resize(Params.digitsAt(maxLevel()));
  for (size_t G = 0; G < DigitBases.size(); ++G) {
    const uint64_t *First = Params.ChainPrimes.data() + G * Alpha;
    for (size_t Size = 1; Size <= std::min(Alpha, ChainLen - G * Alpha);
         ++Size) {
      DigitBasis D;
      for (size_t I = 0; I < Size; ++I) {
        const Modulus &Qi = ChainMods[G * Alpha + I];
        D.HatInv.push_back(invMod(HatMod(First, Size, I, Qi), Qi));
        for (size_t M = 0; M < Moduli; ++M)
          D.HatMod.push_back(HatMod(First, Size, I, modAt(M)));
      }
      DigitBases[G].push_back(std::move(D));
    }
  }
  const uint64_t *Special = Params.SpecialPrimes.data();
  for (size_t K = 0; K < Alpha; ++K) {
    PHatInv.push_back(
        invMod(HatMod(Special, Alpha, K, SpecialMods[K]), SpecialMods[K]));
    for (size_t J = 0; J < ChainLen; ++J)
      PHatModChain.push_back(HatMod(Special, Alpha, K, ChainMods[J]));
  }
  for (size_t J = 0; J < ChainLen; ++J) {
    const Modulus &Q = ChainMods[J];
    PModChain.push_back(HatMod(Special, Alpha, Alpha, Q));
    PNegModChain.push_back(Q.negMod(PModChain[J]));
    PInvModChain.push_back(invMod(PModChain[J], Q));
  }
  CrtByLevel.resize(ChainLen);
  for (size_t J = 0; J < Moduli; ++J)
    UniformThreshold.push_back(-modAt(J).value() % modAt(J).value());

  // Secret key: ternary coefficients, kept only in NTT form (a Galois
  // key's target is a permutation of it).
  std::vector<int64_t> Secret(Degree);
  for (auto &C : Secret)
    C = Rng.nextTernary();
  SecretNtt.resize(Moduli);
  parallelFor(0, Moduli, 1,
              [&](size_t J) { SecretNtt[J] = smallToNtt(Secret, J); });

  // Public key (b, a) = (-(a s) + e, a) over the chain primes only;
  // fresh ciphertexts never touch the special primes. All Rng draws happen
  // sequentially (in the original order) before the parallel compute so
  // the key material is identical at every thread count.
  PkB.resize(ChainLen);
  PkA.resize(ChainLen);
  std::vector<int64_t> E = sampleErrorCoeffs(Rng);
  for (size_t J = 0; J < ChainLen; ++J) {
    PkA[J].resize(Degree);
    drawUniform(Rng, J, PkA[J].data(), Degree);
  }
  parallelFor(0, ChainLen, 1, [&](size_t J) {
    std::vector<uint64_t> ENtt = smallToNtt(E, J);
    const Modulus &Q = ChainMods[J];
    PkB[J].resize(Degree);
    for (size_t K = 0; K < Degree; ++K)
      PkB[J][K] =
          Q.addMod(Q.negMod(Q.mulMod(PkA[J][K], SecretNtt[J][K])), ENtt[K]);
  });

  // Relinearization key: target s^2.
  std::vector<std::vector<uint64_t>> SquareTarget(ChainLen);
  parallelFor(0, ChainLen, 1, [&](size_t J) {
    const Modulus &Q = ChainMods[J];
    SquareTarget[J].resize(Degree);
    for (size_t K = 0; K < Degree; ++K)
      SquareTarget[J][K] = Q.mulMod(SecretNtt[J][K], SecretNtt[J][K]);
  });
  RelinKey = makeKSwitchKey(SquareTarget, maxLevel());

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

std::vector<int64_t> RnsCkksBackend::sampleErrorCoeffs(Prng &Stream) const {
  std::vector<int64_t> Coeffs(Degree);
  for (auto &C : Coeffs)
    C = Stream.nextCenteredGaussian();
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

void RnsCkksBackend::drawUniform(Prng &Stream, size_t J, uint64_t *Out,
                                 size_t Count) const {
  const Modulus &Q = modAt(J);
  const uint64_t Threshold = UniformThreshold[J];
  // A local copy keeps the state in registers: stores through Out could
  // otherwise alias it and serialize every draw through memory.
  Prng Local = Stream;
  for (size_t K = 0; K < Count;) {
    uint64_t R = Local.next();
    if (R >= Threshold)
      Out[K++] = Q.reduce(R);
  }
  Stream = Local;
}

RnsCkksBackend::KSwitchKey RnsCkksBackend::makeKSwitchKey(
    const std::vector<std::vector<uint64_t>> &Target, int Level) {
  assert(Level >= 0 && Level <= maxLevel() &&
         Target.size() >= size_t(Level) + 1 && "target must cover the level");
  const size_t AllDigits = Params.digitsAt(maxLevel());
  const size_t AllModuli = ChainLen + Alpha;
  const size_t Chain = size_t(Level) + 1;
  const size_t Digits = Params.digitsAt(Level);
  const size_t Moduli = Chain + Alpha;
  // Key-local modulus K is chain prime K below Chain, then the special
  // primes.
  auto ModIndex = [&](size_t K) {
    return K < Chain ? K : ChainLen + (K - Chain);
  };
  KSwitchKey Key;
  Key.Level = Level;
  size_t WideRows = 0, NarrowRows = 0;
  for (size_t K = 0; K < Moduli; ++K)
    Key.RowOffset.push_back(
        (isNarrowModulus(modAt(ModIndex(K)).value()) ? NarrowRows++
                                                     : WideRows++) *
        Degree);
  Key.B.resize(Digits);
  Key.B32.resize(Digits);
  for (size_t G = 0; G < Digits; ++G) {
    // Left unwritten: the lane that computes a row faults its pages in.
    Key.B[G].resize(WideRows * Degree);
    Key.B32[G].resize(NarrowRows * Degree);
  }
  // The top-level key consumes the stream as AllDigits runs of pieces:
  // E_g, then a_{g,0..AllModuli-1}. Each piece is speculated to take
  // Degree words (one per error coefficient or accepted uniform draw), so
  // its start is a discard away from the previous one, and one parallel
  // pass samples or verifies every piece from its start. A rejected word
  // makes a piece end past the next one's speculated start: that start is
  // set to the real end and the pass re-runs from there. Without
  // rejection that is one pass; either way the kept errors and
  // checkpoints and the state left for later draws are a serial walk's,
  // at every level and lane count.
  const size_t PerDigit = 1 + AllModuli;
  const size_t Pieces = AllDigits * PerDigit;
  std::vector<Prng> Start(Pieces + 1), End(Pieces);
  Start[0] = Rng;
  std::vector<std::vector<int64_t>> E(Digits);
  for (size_t First = 0; First < Pieces;) {
    for (size_t P = First + 1; P <= Pieces; ++P) {
      Start[P] = Start[P - 1];
      Start[P].discard(Degree);
    }
    parallelFor(First, Pieces, 1, [&](size_t P) {
      Prng Stream = Start[P];
      const size_t G = P / PerDigit, J = P % PerDigit;
      if (J == 0) {
        std::vector<int64_t> EG = sampleErrorCoeffs(Stream);
        if (G < Digits)
          E[G] = std::move(EG);
      } else {
        const uint64_t Threshold = UniformThreshold[J - 1];
        for (size_t K = 0; K < Degree;)
          K += Stream.next() >= Threshold;
      }
      End[P] = Stream;
    });
    while (First < Pieces && End[First] == Start[First + 1])
      ++First;
    if (First < Pieces) {
      Start[First + 1] = End[First];
      ++First;
    }
  }
  Rng = Start[Pieces];
  for (size_t G = 0; G < Digits; ++G)
    for (size_t K = 0; K < Moduli; ++K)
      Key.Seeds.push_back(Start[G * PerDigit + 1 + ModIndex(K)]);
  parallelFor(0, Digits * Moduli, 1, [&](size_t Flat) {
    size_t G = Flat / Moduli;
    size_t J = ModIndex(Flat % Moduli);
    const Modulus &Q = modAt(J);
    LimbBuffer ENtt(Degree), AGJ(Degree);
    smallToNttInto(E[G].data(), J, ENtt.data());
    Prng Stream = Key.Seeds[Flat];
    drawUniform(Stream, J, AGJ.data(), Degree);
    // A narrow row is computed over ENtt in place, then packed.
    const bool Narrow = isNarrowModulus(Q.value());
    const size_t Offset = Key.RowOffset[Flat % Moduli];
    uint64_t *BOut = Narrow ? ENtt.data() : Key.B[G].data() + Offset;
    // The gadget term P * Qt_g * target lives only on the primes of group
    // g: Qt_g vanishes on the other chain primes, P on the special ones.
    bool InGroup = J < ChainLen && J / Alpha == G;
    for (size_t K = 0; K < Degree; ++K) {
      uint64_t V = Q.addMod(
          Q.negMod(Q.mulMod(AGJ[K], SecretNtt[J][K])), ENtt[K]);
      if (InGroup)
        V = Q.addMod(V, Q.mulMod(PModChain[J], Target[J][K]));
      BOut[K] = V;
    }
    if (Narrow)
      for (size_t K = 0; K < Degree; ++K)
        Key.B32[G][Offset + K] = static_cast<uint32_t>(BOut[K]);
  });
  return Key;
}

void RnsCkksBackend::generateRotationKeys(const std::vector<int> &Steps) {
  for (int Step : Steps)
    generateRotationKey(Step, maxLevel());
}

void RnsCkksBackend::generateRotationKey(int Steps, int Level) {
  CHET_CHECK(Level >= 0 && Level <= maxLevel(), InvalidArgument,
             "Galois key level ", Level, " is outside the chain's levels 0..",
             maxLevel());
  int Norm = normalizeRotation(Steps, slotCount());
  if (Norm == 0)
    return;
  RotationSteps.insert(Norm);
  uint64_t Elt = Encoder.galoisElement(Norm);
  auto It = GaloisKeys.find(Elt);
  if (It != GaloisKeys.end() && It->second.Key.Level >= Level)
    return;
  // Target sigma_elt(s) over the primes the key covers: in the NTT domain
  // sigma permutes the evaluation points, so it is a gather of SecretNtt
  // through the key's own permutation (rotateFromBase applies the same
  // identity to c0).
  std::vector<uint32_t> Perm = galoisNttPermutation(LogN, Elt);
  std::vector<std::vector<uint64_t>> Target(size_t(Level) + 1);
  parallelFor(0, Target.size(), 1, [&](size_t J) {
    Target[J].resize(Degree);
    for (size_t K = 0; K < Degree; ++K)
      Target[J][K] = SecretNtt[J][Perm[K]];
  });
  GaloisKey G{makeKSwitchKey(Target, Level), std::move(Perm)};
  if (It != GaloisKeys.end())
    It->second = std::move(G);
  else
    GaloisKeys.emplace(Elt, std::move(G));
}

void RnsCkksBackend::requireKeyLevel(const GaloisKey &G, int Steps,
                                     int Level) const {
  CHET_CHECK(Level <= G.Key.Level, MissingRotationKey,
             "the Galois key for rotation by ", Steps,
             " was generated for level ", G.Key.Level,
             " but the ciphertext is at level ", Level);
}

void RnsCkksBackend::clearRotationKeys() {
  GaloisKeys.clear();
  RotationSteps.clear();
}

bool RnsCkksBackend::hasRotationKey(int Steps) const {
  return GaloisKeys.count(Encoder.galoisElement(Steps)) != 0;
}

uint64_t RnsCkksBackend::keyBytes() const {
  uint64_t Bytes = 0;
  auto Count = [&](const auto &Polys) {
    for (const auto &P : Polys)
      Bytes += P.size() * sizeof(P[0]);
  };
  auto CountKey = [&](const KSwitchKey &Key) {
    Count(Key.B);
    Count(Key.B32);
    Bytes += Key.Seeds.size() * sizeof(Prng);
  };
  Count(PkB);
  Count(PkA);
  CountKey(RelinKey);
  for (const auto &[Elt, G] : GaloisKeys) {
    CountKey(G.Key);
    Bytes += G.Perm.size() * sizeof(uint32_t);
  }
  return Bytes;
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
  std::vector<int64_t> E0 = sampleErrorCoeffs(Rng);
  std::vector<int64_t> E1 = sampleErrorCoeffs(Rng);

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

/// Out[K] = (sum_t X[t][K] * W[t]) mod Q over \p Terms inputs below
/// \p Bound: the fast base conversion kernel of ModUp and ModDown.
/// Weights are reduced, so when every possible sum fits a word (narrow
/// primes) it accumulates in 64 bits; otherwise terms are < 2^122 and the
/// 128-bit sum folds every 32 terms. Either way the result is canonical.
static void baseConvert(const Modulus &Q, const uint64_t *const *X,
                        const uint64_t *W, size_t Terms, uint64_t Bound,
                        size_t N, uint64_t *Out) {
  if ((static_cast<unsigned __int128>(Bound) * Q.value() * Terms) >> 64 ==
      0) {
    for (size_t K = 0; K < N; ++K) {
      uint64_t Acc = 0;
      for (size_t T = 0; T < Terms; ++T)
        Acc += X[T][K] * W[T];
      Out[K] = Q.reduce(Acc);
    }
    return;
  }
  for (size_t K = 0; K < N; ++K) {
    unsigned __int128 Acc = 0;
    for (size_t T = 0; T < Terms; ++T) {
      Acc += static_cast<unsigned __int128>(X[T][K]) * W[T];
      if ((T & 31) == 31)
        Acc = Q.reduce128(Acc);
    }
    Out[K] = Q.reduce128(Acc);
  }
}

LimbBuffer RnsCkksBackend::modUp(const uint64_t *Coeff, const uint64_t *Ntt,
                                 int Level) const {
  const size_t Components = size_t(Level) + 1;
  const size_t Digits = Params.digitsAt(Level);
  const size_t Outputs = Components + Alpha;
  const size_t Moduli = ChainLen + Alpha;
  auto DigitSize = [&](size_t G) {
    return std::min(Alpha, Components - G * Alpha);
  };

  // Y_i = [d_i * (Q_g/q_i)^{-1}]_{q_i}: the digit-local CRT coordinates.
  LimbBuffer Y(Components * Degree);
  parallelFor(0, Components, 1, [&](size_t I) {
    size_t G = I / Alpha;
    const Modulus &Q = ChainMods[I];
    uint64_t W = digitBasis(G, DigitSize(G)).HatInv[I - G * Alpha];
    uint64_t WShoup = shoupPrecompute(W, Q.value());
    const uint64_t *Src = Coeff + I * Degree;
    uint64_t *Dst = Y.data() + I * Degree;
    for (size_t K = 0; K < Degree; ++K)
      Dst[K] = shoupMulMod(Src[K], W, WShoup, Q.value());
  });

  // Row J of the base packs, for output modulus J, every digit raised to
  // J and transformed. A digit's own primes need no conversion: there the
  // digit is d's stored NTT-form limb.
  LimbBuffer Base(Outputs * Digits * Degree);
  parallelFor(0, Outputs * Digits, 1, [&](size_t Flat) {
    size_t J = Flat / Digits;
    size_t G = Flat % Digits;
    size_t First = G * Alpha, Size = DigitSize(G);
    uint64_t *Dst = Base.data() + Flat * Degree;
    if (J >= First && J < First + Size) {
      std::memcpy(Dst, Ntt + J * Degree, Degree * sizeof(uint64_t));
      return;
    }
    size_t ModIndex = J < Components ? J : ChainLen + (J - Components);
    const DigitBasis &D = digitBasis(G, Size);
    std::vector<const uint64_t *> X(Size);
    std::vector<uint64_t> W(Size);
    uint64_t Bound = 0;
    for (size_t I = 0; I < Size; ++I) {
      X[I] = Y.data() + (First + I) * Degree;
      W[I] = D.HatMod[I * Moduli + ModIndex];
      Bound = std::max(Bound, ChainMods[First + I].value());
    }
    baseConvert(modAt(ModIndex), X.data(), W.data(), Size, Bound, Degree,
                Dst);
    nttAt(ModIndex).forward(Dst);
  });
  KsStats->ForwardNtts.fetch_add(Outputs * Digits - Components,
                                 std::memory_order_relaxed);
  return Base;
}

/// Most digits a wide modulus's inner product sums as raw 128-bit
/// products before its one Barrett reduction per element: primes are
/// <= 61 bits, so a term is < 2^122 and 32 terms leave 2x headroom.
constexpr size_t kWideFold = 32;

/// Digits a narrow modulus's inner product sums in one 64-bit word
/// between reductions: operands below 2^30 keep each product below 2^60,
/// so 16 products plus a reduced carry stay below 2^64.
constexpr size_t kNarrowFold = 16;

/// Key words regenerated per digit between inner-product passes: small
/// enough that every digit's block stays in L1 beside the base rows.
constexpr size_t kExpandChunk = 512;

void RnsCkksBackend::keySwitchFromBase(const LimbBuffer &Base, int Level,
                                       const KSwitchKey &Key,
                                       const uint32_t *Perm,
                                       LimbBuffer &OutB,
                                       std::vector<uint64_t> &OutA) const {
  const size_t Components = size_t(Level) + 1;
  const size_t Digits = Params.digitsAt(Level);
  const size_t Outputs = Components + Alpha;
  const size_t KeyChain = size_t(Key.Level) + 1;
  // The lazy folds give the canonical representative of the residue the
  // reference mulMod/addMod fold gives, so the result is bit-identical
  // either way; they ride the limb pool's escape hatch, so
  // CHET_LIMB_POOL=off selects the reference kernels end to end.
  const bool Pooled = LimbPool::instance().enabled();
  CHET_CHECK(Level <= Key.Level, MissingRotationKey, "key switch at level ",
             Level, " reads a key generated for level ", Key.Level);
  // OutA becomes a rotation's C1 via move, so it stays a std::vector; the
  // B side and the special-prime tails draw from the pool.
  LimbBuffer TailB(Alpha * Degree), TailA(Alpha * Degree);
  OutB.resizeUninit(Components * Degree);
  OutA.resize(Components * Degree);

  // Inner product. The parallel loop walks the output moduli, each of
  // which owns disjoint outputs; per element the digits fold in order in
  // registers, reading sigma's permuted index straight from the base, so
  // every element sees the same fold at any thread count. The key's a
  // halves are regenerated from their seeds one L1-sized chunk per digit
  // ahead of the fold.
  const size_t Chunk = std::min(kExpandChunk, Degree);
  parallelFor(0, Outputs, 1, [&](size_t J) {
    bool Chain = J < Components;
    size_t ModIndex = Chain ? J : ChainLen + (J - Components);
    // The key stores its own moduli: q_0..q_{Key.Level}, then the special
    // primes.
    size_t KeyIndex = Chain ? J : KeyChain + (J - Components);
    const Modulus &Q = modAt(ModIndex);
    uint64_t *DstB = Chain ? OutB.data() + J * Degree
                           : TailB.data() + (J - Components) * Degree;
    uint64_t *DstA = Chain ? OutA.data() + J * Degree
                           : TailA.data() + (J - Components) * Degree;
    const uint64_t *Row = Base.data() + J * Digits * Degree;
    // Every digit's row modulo Q has Q's width: one of the two lists.
    const bool Narrow = isNarrowModulus(Q.value());
    const size_t Offset = Key.RowOffset[KeyIndex];
    std::vector<const uint64_t *> KeyB(Digits);
    std::vector<const uint32_t *> KeyB32(Digits);
    std::vector<Prng> Streams(Digits);
    for (size_t G = 0; G < Digits; ++G) {
      if (Narrow)
        KeyB32[G] = Key.B32[G].data() + Offset;
      else
        KeyB[G] = Key.B[G].data() + Offset;
      Streams[G] = Key.Seeds[G * (KeyChain + Alpha) + KeyIndex];
    }
    LimbBuffer KeyA(Digits * Chunk);
    // Runs Fold(K, digit-0 base word, digit-0 a word) per element.
    auto Sweep = [&](auto &&Fold) {
      for (size_t Lo = 0; Lo < Degree; Lo += Chunk) {
        for (size_t G = 0; G < Digits; ++G)
          drawUniform(Streams[G], ModIndex, KeyA.data() + G * Chunk, Chunk);
        for (size_t K = Lo; K < Lo + Chunk; ++K)
          Fold(K, Row + (Perm ? Perm[K] : K), KeyA.data() + (K - Lo));
      }
    };
    // The reference: one mulMod and addMod per digit, key words widened.
    auto Reference = [&](const auto &Keys) {
      Sweep([&](size_t K, const uint64_t *Src, const uint64_t *SrcA) {
        uint64_t AccB = 0, AccA = 0;
        for (size_t G = 0; G < Digits; ++G) {
          uint64_t X = Src[G * Degree];
          AccB = Q.addMod(AccB, Q.mulMod(X, Keys[G][K]));
          AccA = Q.addMod(AccA, Q.mulMod(X, SrcA[G * Chunk]));
        }
        DstB[K] = AccB;
        DstA[K] = AccA;
      });
    };
    if (!Narrow) {
      if (!Pooled || Digits > kWideFold)
        return Reference(KeyB);
      Sweep([&](size_t K, const uint64_t *Src, const uint64_t *SrcA) {
        unsigned __int128 AccB = 0, AccA = 0;
        for (size_t G = 0; G < Digits; ++G) {
          uint64_t X = Src[G * Degree];
          AccB += static_cast<unsigned __int128>(X) * KeyB[G][K];
          AccA += static_cast<unsigned __int128>(X) * SrcA[G * Chunk];
        }
        DstB[K] = Q.reduce128(AccB);
        DstA[K] = Q.reduce128(AccA);
      });
      return;
    }
    if (!Pooled)
      return Reference(KeyB32);
    Sweep([&](size_t K, const uint64_t *Src, const uint64_t *SrcA) {
      uint64_t AccB = 0, AccA = 0;
      for (size_t G0 = 0; G0 < Digits; G0 += kNarrowFold) {
        for (size_t G = G0; G < std::min(Digits, G0 + kNarrowFold); ++G) {
          uint64_t X = Src[G * Degree];
          AccB += X * KeyB32[G][K];
          AccA += X * SrcA[G * Chunk];
        }
        AccB = Q.reduce(AccB);
        AccA = Q.reduce(AccA);
      }
      DstB[K] = AccB;
      DstA[K] = AccA;
    });
  });

  // ModDown: out = (acc - lift(acc mod P)) / P, with the lift of the
  // special-prime tails centered so the division rounds. The tails go to
  // coefficient form and to their CRT coordinates y_k = x_k (P/p_k)^{-1};
  // the lift is sum_k y_k (P/p_k) - v P with v = round(sum_k y_k / p_k).
  KsStats->InverseNtts.fetch_add(2 * Alpha, std::memory_order_relaxed);
  KsStats->ForwardNtts.fetch_add(2 * Components, std::memory_order_relaxed);
  parallelFor(0, 2 * Alpha, 1, [&](size_t T) {
    size_t K = T % Alpha;
    uint64_t *Tail = (T < Alpha ? TailB : TailA).data() + K * Degree;
    SpecialNtt[K]->inverse(Tail);
    uint64_t P = SpecialMods[K].value();
    uint64_t WShoup = shoupPrecompute(PHatInv[K], P);
    for (size_t I = 0; I < Degree; ++I)
      Tail[I] = shoupMulMod(Tail[I], PHatInv[K], WShoup, P);
  });
  LimbBuffer VB(Degree), VA(Degree);
  globalThreadPool().parallelForBlocks(
      0, Degree, 1024, [&](size_t Lo, size_t Hi) {
        if (Alpha == 1) {
          // Exact: the single residue is centered around p/2.
          uint64_t Half = SpecialMods[0].value() >> 1;
          for (size_t I = Lo; I < Hi; ++I) {
            VB[I] = TailB[I] > Half;
            VA[I] = TailA[I] > Half;
          }
          return;
        }
        std::vector<double> Inv(Alpha);
        for (size_t K = 0; K < Alpha; ++K)
          Inv[K] = 1.0 / static_cast<double>(SpecialMods[K].value());
        for (size_t I = Lo; I < Hi; ++I) {
          double FB = 0.5, FA = 0.5;
          for (size_t K = 0; K < Alpha; ++K) {
            FB += static_cast<double>(TailB[K * Degree + I]) * Inv[K];
            FA += static_cast<double>(TailA[K * Degree + I]) * Inv[K];
          }
          VB[I] = static_cast<uint64_t>(FB);
          VA[I] = static_cast<uint64_t>(FA);
        }
      });
  parallelFor(0, Components, 1, [&](size_t J) {
    const Modulus &Q = ChainMods[J];
    std::vector<const uint64_t *> XB(Alpha + 1), XA(Alpha + 1);
    std::vector<uint64_t> W(Alpha + 1);
    for (size_t K = 0; K < Alpha; ++K) {
      XB[K] = TailB.data() + K * Degree;
      XA[K] = TailA.data() + K * Degree;
      W[K] = PHatModChain[K * ChainLen + J];
    }
    XB[Alpha] = VB.data();
    XA[Alpha] = VA.data();
    W[Alpha] = PNegModChain[J];
    LimbBuffer CorrB(Degree), CorrA(Degree);
    uint64_t Bound = 0;
    for (const Modulus &P : SpecialMods)
      Bound = std::max(Bound, P.value());
    baseConvert(Q, XB.data(), W.data(), Alpha + 1, Bound, Degree,
                CorrB.data());
    baseConvert(Q, XA.data(), W.data(), Alpha + 1, Bound, Degree,
                CorrA.data());
    ChainNtt[J]->forward(CorrB.data());
    ChainNtt[J]->forward(CorrA.data());
    uint64_t Inv = PInvModChain[J];
    uint64_t InvShoup = shoupPrecompute(Inv, Q.value());
    uint64_t *DstB = OutB.data() + J * Degree;
    uint64_t *DstA = OutA.data() + J * Degree;
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

  const size_t Words = (size_t(L) + 1) * Degree;
  LimbBuffer D0(Words), D1(Words), D2(Words), D2Ntt(Words);
  parallelFor(0, size_t(L) + 1, 1, [&](size_t J) {
    const Modulus &Q = ChainMods[J];
    const uint64_t *A0 = C.C0.data() + J * Degree;
    const uint64_t *A1 = C.C1.data() + J * Degree;
    const uint64_t *B0 = Other.C0.data() + J * Degree;
    const uint64_t *B1 = Other.C1.data() + J * Degree;
    uint64_t *O0 = D0.data() + J * Degree;
    uint64_t *O1 = D1.data() + J * Degree;
    uint64_t *O2 = D2.data() + J * Degree;
    uint64_t *O2Ntt = D2Ntt.data() + J * Degree;
    for (size_t K = 0; K < Degree; ++K) {
      O0[K] = Q.mulMod(A0[K], B0[K]);
      O1[K] = Q.addMod(Q.mulMod(A0[K], B1[K]), Q.mulMod(A1[K], B0[K]));
      O2Ntt[K] = Q.mulMod(A1[K], B1[K]);
    }
    // Key switching needs c1*c1 in both forms; the fused kernel folds the
    // product into the inverse transform's first stage, saving one full
    // pass over the limb.
    ChainNtt[J]->pointwiseMulInverse(O2, A1, B1);
  });

  KsStats->InverseNtts.fetch_add(size_t(L) + 1, std::memory_order_relaxed);
  LimbBuffer KB;
  std::vector<uint64_t> KA;
  keySwitchFromBase(modUp(D2.data(), D2Ntt.data(), L), L, RelinKey, nullptr,
                    KB, KA);
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

LimbBuffer RnsCkksBackend::rotationBase(const Ct &C) const {
  const size_t Components = size_t(C.Level) + 1;
  LimbBuffer Coeff(Components * Degree);
  parallelFor(0, Components, 1, [&](size_t I) {
    uint64_t *Digit = Coeff.data() + I * Degree;
    std::memcpy(Digit, C.C1.data() + I * Degree, Degree * sizeof(uint64_t));
    ChainNtt[I]->inverse(Digit);
  });
  KsStats->InverseNtts.fetch_add(Components, std::memory_order_relaxed);
  return modUp(Coeff.data(), C.C1.data(), C.Level);
}

RnsCkksBackend::Ct
RnsCkksBackend::rotateFromBase(const Ct &C, const LimbBuffer &Base,
                               const GaloisKey &G) const {
  const size_t Components = size_t(C.Level) + 1;
  Ct O;
  O.Level = C.Level;
  O.Scale = C.Scale;
  LimbBuffer KB;
  keySwitchFromBase(Base, C.Level, G.Key, G.Perm.data(), KB, O.C1);
  O.C0.resize(Components * Degree);
  // sigma(c0) is a pure NTT-domain permutation of the stored limbs (the
  // limbs are fully reduced, so no transforms are needed).
  parallelFor(0, Components, 1, [&](size_t J) {
    const Modulus &Q = ChainMods[J];
    const uint64_t *Src = C.C0.data() + J * Degree;
    const uint64_t *K0 = KB.data() + J * Degree;
    uint64_t *Dst = O.C0.data() + J * Degree;
    for (size_t K = 0; K < Degree; ++K)
      Dst[K] = Q.addMod(Src[G.Perm[K]], K0[K]);
  });
  KsStats->Rotations.fetch_add(1, std::memory_order_relaxed);
  return O;
}

void RnsCkksBackend::rotLeftAssign(Ct &C, int Steps) {
  size_t Slots = slotCount();
  int S = normalizeRotation(Steps, Slots);
  if (S == 0)
    return;

  auto It = GaloisKeys.find(Encoder.galoisElement(S));
  if (It != GaloisKeys.end()) {
    requireKeyLevel(It->second, S, C.Level);
    C = rotateFromBase(C, rotationBase(C), It->second);
    return;
  }
  // No dedicated key: fall back to the default power-of-two key set,
  // taking the shorter direction (Section 2.4: "use multiple rotations to
  // achieve the desired amount").
  forEachRotationHop(S, Slots, [&](int Step) {
    auto KeyIt = GaloisKeys.find(Encoder.galoisElement(Step));
    if (KeyIt == GaloisKeys.end())
      throw MissingRotationKeyError(formatError(
          "no Galois key for rotation by ", Steps,
          " (power-of-two decomposition needs step ", Step,
          "); available rotation steps: ",
          describeRotationSteps(RotationSteps)));
    requireKeyLevel(KeyIt->second, Step, C.Level);
    C = rotateFromBase(C, rotationBase(C), KeyIt->second);
  });
}

std::vector<RnsCkksBackend::Ct>
RnsCkksBackend::rotLeftMany(const Ct &C, const std::vector<int> &Steps) {
  std::vector<Ct> Out(Steps.size());
  const int64_t Slots = static_cast<int64_t>(slotCount());

  // Partition the amounts: zero steps are copies, amounts with a
  // dedicated Galois key hoist, the rest run the per-rotation path (whose
  // power-of-two hop chains cannot share one base).
  std::vector<std::pair<size_t, const GaloisKey *>> Hoist;
  for (size_t I = 0; I < Steps.size(); ++I) {
    int64_t S = Steps[I] % Slots;
    if (S < 0)
      S += Slots;
    if (S == 0) {
      Out[I] = C;
      continue;
    }
    auto It = GaloisKeys.find(Encoder.galoisElement(static_cast<int>(S)));
    if (Hoisting && It != GaloisKeys.end()) {
      requireKeyLevel(It->second, static_cast<int>(S), C.Level);
      Hoist.push_back({I, &It->second});
    } else {
      Out[I] = C;
      rotLeftAssign(Out[I], static_cast<int>(S));
    }
  }
  if (Hoist.empty())
    return Out;

  // One ModUp serves every amount; each then only permutes the shared
  // base and runs its own inner product and ModDown. The amounts are
  // independent, so they fan out over the pool and each one's limb loops
  // run inline.
  LimbBuffer Base = rotationBase(C);
  parallelFor(0, Hoist.size(), 1, [&](size_t I) {
    Out[Hoist[I].first] = rotateFromBase(C, Base, *Hoist[I].second);
  });
  KsStats->HoistedBatches.fetch_add(1, std::memory_order_relaxed);
  KsStats->HoistedAmounts.fetch_add(Hoist.size(), std::memory_order_relaxed);
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
