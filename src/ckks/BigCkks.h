//===- BigCkks.h - CKKS with a power-of-two big-integer modulus -*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A from-scratch implementation of the original CKKS scheme
/// (Cheon-Kim-Kim-Song, ASIACRYPT 2017) in the style of HEAAN v1.0:
/// ciphertext polynomials carry big-integer coefficients modulo Q = 2^k,
/// and rescaling divides by arbitrary powers of two (maxRescale returns
/// the largest power of two under the bound -- the CKKS column of the
/// paper's Table 1 and Section 5.2).
///
/// Polynomial products are computed exactly by bridging the big-integer
/// coefficients through an RNS basis of NTT-friendly word-size primes and
/// reconstructing by CRT, precisely HEAAN's Ring::mult technique. Key
/// switching follows HEAAN: a single evaluation key modulo P * Q with
/// P = 2^logP, multiply-by-evk then divide by P with rounding; the
/// evaluation keys are cached in their RNS/NTT decomposition so a key
/// switch costs one decomposition of the input plus pointwise work.
///
/// Level-trimmed Galois keys. A key switch at ciphertext modulus 2^l
/// reads its key only modulo 2^(l + logP): the product is divided by
/// P = 2^logP and reduced mod 2^l. A Galois key generated for LogQ k
/// therefore stores each half as its centered residue mod 2^(k + logP),
/// decomposed over the primes the product at level k needs, and serves
/// every key switch at LogQ <= k with the same bytes as the full key
/// (DESIGN.md section 5m). Keygen draws a at full width, so the RNG
/// stream is the same at every level. The relinearization key and the stock
/// power-of-two keys are top-level keys.
///
//===----------------------------------------------------------------------===//

#ifndef CHET_CKKS_BIGCKKS_H
#define CHET_CKKS_BIGCKKS_H

#include "ckks/Encoder.h"
#include "ckks/SecurityTable.h"
#include "hisa/Hisa.h"
#include "math/BigInt.h"
#include "math/Crt.h"
#include "math/Ntt.h"
#include "support/Prng.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

namespace chet {

/// Parameters of a HEAAN-style CKKS instantiation.
struct BigCkksParams {
  int LogN = 13;
  /// Fresh-ciphertext modulus width: Q = 2^LogQ.
  int LogQ = 240;
  /// Key-switching modulus width: P = 2^LogSpecial. Zero means LogQ.
  int LogSpecial = 0;
  SecurityLevel Security = SecurityLevel::Classical128;
  uint64_t Seed = 0x4ea2;
  /// Generate the default power-of-two rotation keys at construction.
  bool StockPow2Keys = true;

  int effectiveLogSpecial() const {
    return LogSpecial == 0 ? LogQ : LogSpecial;
  }
  int logQP() const { return LogQ + effectiveLogSpecial(); }
};

/// Shared machinery for exact big-integer polynomial products over
/// Z[X]/(X^N+1) via RNS bridging. Grows its prime pool on demand.
class BigPolyRing {
public:
  explicit BigPolyRing(int LogN);

  size_t degree() const { return N; }

  /// Number of basis primes needed to hold products of \p Bits magnitude.
  static int primesForBits(int Bits) { return (Bits + 61) / 59 + 1; }

  /// Ensures at least \p Count primes and tables exist.
  void ensurePrimes(int Count);

  /// Decomposes a BigInt polynomial into NTT-form residues over the first
  /// \p Count primes. Out[i] has N words.
  void decomposeNtt(const BigInt *Poly, int Count,
                    std::vector<std::vector<uint64_t>> &Out);

  /// Flat-arena variant of decomposeNtt for pooled hot-path temporaries:
  /// residues for prime i land at Out + i * N (Count * N words total).
  void decomposeNttFlat(const BigInt *Poly, int Count, uint64_t *Out);

  /// Inverse of decomposeNtt followed by centered CRT reconstruction.
  void reconstruct(std::vector<std::vector<uint64_t>> &Rns, int Count,
                   BigInt *Out);

  /// Flat-arena variant of reconstruct (destroys Rns contents in place).
  void reconstructFlat(uint64_t *Rns, int Count, BigInt *Out);

  /// Out = A * B exactly, where the product coefficients fit in
  /// \p ProductBits bits. A and B are length-N BigInt polynomials.
  void multiply(const BigInt *A, const BigInt *B, BigInt *Out,
                int ProductBits);

  /// Pointwise multiply-accumulate in RNS form: Acc[i] += X[i] * Y[i].
  void mulAcc(const std::vector<std::vector<uint64_t>> &X,
              const std::vector<std::vector<uint64_t>> &Y, int Count,
              std::vector<std::vector<uint64_t>> &Acc);

  const Modulus &prime(int I) const { return Mods[I]; }

private:
  const CrtBasis &basisFor(int Count);

  int LogN;
  size_t N;
  std::vector<uint64_t> PrimeValues;
  /// Mods/Tables are reserved to the maximum possible prime count at
  /// construction so lazy growth under RingMu never reallocates while a
  /// concurrent reader holds a reference into them.
  std::vector<Modulus> Mods;
  std::vector<std::unique_ptr<NttTables>> Tables;
  std::map<int, std::unique_ptr<CrtBasis>> BasisByCount;
  /// Guards lazy prime/table/basis generation. Heap-held so the owning
  /// backend stays movable (factories return it by value).
  std::unique_ptr<std::mutex> RingMu = std::make_unique<std::mutex>();
};

/// The CKKS scheme with power-of-two modulus, exposed through the HISA.
class BigCkksBackend {
public:
  /// Ciphertext: coefficient-form big-integer polynomials, centered
  /// modulo 2^LogQ.
  struct Ct {
    std::vector<BigInt> C0, C1;
    int LogQ = 0;
    double Scale = 1.0;
  };

  /// Plaintext: rounded integer coefficients plus a lazily built cache of
  /// the BigInt form and the RNS/NTT decomposition used by mulPlain.
  struct Pt {
    std::vector<double> Coeffs;
    double Scale = 1.0;
    struct Cache {
      std::vector<BigInt> Big;
      int MaxCoeffBits = 0;
      std::map<int, std::vector<std::vector<uint64_t>>> RnsByCount;
      /// Publication flag for Big/MaxCoeffBits (acquire-checked before
      /// use); FillMu serializes fills of Big and RnsByCount when ops
      /// sharing one Pt run on the pool.
      std::atomic<bool> BigReady{false};
      std::mutex FillMu;
    };
    std::shared_ptr<Cache> C;
  };

  explicit BigCkksBackend(const BigCkksParams &Params);

  //===--------------------------------------------------------------===//
  // HISA instructions (Table 2).
  //===--------------------------------------------------------------===//

  size_t slotCount() const { return Degree / 2; }
  Pt encode(const std::vector<double> &Values, double Scale) const;
  std::vector<double> decode(const Pt &P) const;
  Ct encrypt(const Pt &P);
  Pt decrypt(const Ct &C);
  Ct copy(const Ct &C) const { return C; }
  void freeCt(Ct &C) const;

  void rotLeftAssign(Ct &C, int Steps);
  void rotRightAssign(Ct &C, int Steps) { rotLeftAssign(C, -Steps); }

  /// Rotation fan-out (Halevi-Shoup hoisting): rotates \p C left by every
  /// amount in \p Steps, returning one ciphertext per amount in order.
  /// The RNS/NTT decomposition of c1 -- the expensive half of HEAAN's
  /// key switch -- is computed once and shared; each amount permutes it
  /// in the NTT domain (BigInt::modPrime is sign-correct, so the
  /// permutation matches decomposing the rotated polynomial bit for
  /// bit) and finishes with its key's pointwise product. Amounts of
  /// zero return copies; amounts without a dedicated key fall back to
  /// rotLeftAssign. Bit-identical to per-amount rotation at any thread
  /// count.
  std::vector<Ct> rotLeftMany(const Ct &C, const std::vector<int> &Steps);

  /// Disables/enables hoisting inside rotLeftMany (on by default).
  void setRotationHoisting(bool Enabled) { Hoisting = Enabled; }
  bool rotationHoisting() const { return Hoisting; }

  void addAssign(Ct &C, const Ct &Other) const;
  void subAssign(Ct &C, const Ct &Other) const;
  void addPlainAssign(Ct &C, const Pt &P) const;
  void subPlainAssign(Ct &C, const Pt &P) const;
  void addScalarAssign(Ct &C, double X) const;
  void subScalarAssign(Ct &C, double X) const { addScalarAssign(C, -X); }

  void mulAssign(Ct &C, const Ct &Other);
  void mulPlainAssign(Ct &C, const Pt &P);
  void mulScalarAssign(Ct &C, double X, uint64_t Scale) const;

  uint64_t maxRescale(const Ct &C, uint64_t UpperBound) const;
  void rescaleAssign(Ct &C, uint64_t Divisor) const;
  double scaleOf(const Ct &C) const { return C.Scale; }

  //===--------------------------------------------------------------===//
  // Key management and introspection.
  //===--------------------------------------------------------------===//

  /// Generates top-level Galois keys for exactly these rotation steps.
  void generateRotationKeys(const std::vector<int> &Steps);

  /// Generates the Galois key for \p Steps trimmed to ciphertext modulus
  /// 2^\p LogQ: it serves key switches at Ct::LogQ <= LogQ. An existing
  /// key for the same Galois element is kept if it already reaches
  /// \p LogQ and regenerated at \p LogQ otherwise.
  void generateRotationKey(int Steps, int LogQ);

  void clearRotationKeys();
  bool hasRotationKey(int Steps) const;
  size_t rotationKeyCount() const { return GaloisKeys.size(); }

  /// The left-rotation steps (normalized to [1, slots-1]) a key exists
  /// for; reported by MissingRotationKey diagnostics.
  const std::set<int> &availableRotationSteps() const {
    return RotationSteps;
  }

  const BigCkksParams &params() const { return Params; }
  const CkksEncoder &encoder() const { return Encoder; }
  int logQOf(const Ct &C) const { return C.LogQ; }

  /// Running tally of number-theoretic transforms executed inside
  /// key-switching paths, plus rotation hoisting activity; counted
  /// analytically at the call sites (see RnsCkksBackend for the RNS
  /// twin of this interface).
  struct KeySwitchNttStats {
    uint64_t ForwardNtts = 0;
    uint64_t InverseNtts = 0;
    uint64_t Rotations = 0;
    uint64_t HoistedBatches = 0;
    uint64_t HoistedAmounts = 0;
  };
  KeySwitchNttStats keySwitchNttStats() const;
  void resetKeySwitchNttStats();

  /// Bytes of evaluation key material held: the public key, the
  /// relinearization key and every Galois key, counted from the stored
  /// polynomials.
  uint64_t keyBytes() const;

private:
  /// An evaluation key serving ciphertexts at modulus 2^l, l <= LogQ: both
  /// halves centered mod 2^(LogQ + logP) and cached as their RNS/NTT
  /// decomposition over enough primes for the worst-case key-switch
  /// product at LogQ.
  struct EvalKey {
    std::vector<std::vector<uint64_t>> B, A;
    int PrimeCount = 0;
    int LogQ = 0;
  };

  /// Degree uniform coefficients of \p Bits bits, each from
  /// ceil(Bits / 32) draws of Rng. Fixed-length chunks are drawn on every
  /// lane from starts Prng::discard computes; the values and Rng's final
  /// state are those of one serial draw.
  std::vector<BigInt> sampleUniform(int Bits);
  std::vector<BigInt> sampleTernary();
  std::vector<BigInt> sampleError();

  /// Builds an evaluation key for small target polynomial \p Target
  /// (coefficients of a few bits) serving ciphertexts up to modulus
  /// 2^\p LogQ.
  EvalKey makeEvalKey(const std::vector<BigInt> &Target, int LogQ);

  /// Basis primes of a key-switch product of a ciphertext at 2^\p CtLogQ
  /// with \p Key.
  int keySwitchPrimes(int CtLogQ, const EvalKey &Key) const;

  /// Throws MissingRotationKey unless \p Key, the key serving a rotation
  /// by \p Steps, reaches a ciphertext at modulus 2^\p CtLogQ.
  void requireKeyLevel(const EvalKey &Key, int Steps, int CtLogQ) const;

  /// Key-switches the polynomial \p D (centered mod 2^LogQ of the
  /// ciphertext): returns (B, A) contributions already divided by P and
  /// reduced mod 2^CtLogQ.
  void keySwitch(const std::vector<BigInt> &D, int CtLogQ,
                 const EvalKey &Key, std::vector<BigInt> &OutB,
                 std::vector<BigInt> &OutA);

  void reduceTo(Ct &C, int LogQ) const;

  const std::vector<BigInt> &plainBig(const Pt &P) const;
  const std::vector<std::vector<uint64_t>> &plainRns(const Pt &P, int Count);

  void rotateByElement(Ct &C, uint64_t Elt, const EvalKey &Key);

  BigCkksParams Params;
  int LogN;
  size_t Degree;
  CkksEncoder Encoder;
  BigPolyRing Ring;
  Prng Rng;

  std::vector<BigInt> Secret; ///< ternary, coefficient form.
  std::vector<BigInt> PkB, PkA;
  EvalKey RelinKey;
  std::map<uint64_t, EvalKey> GaloisKeys;
  std::set<int> RotationSteps; ///< normalized steps with a key, for errors.
  /// NTT-domain index permutation realizing sigma_Elt per Galois element,
  /// built alongside each key at keygen (single-threaded) so the hoisted
  /// rotation path reads them without locking. Valid for every prime of
  /// the ring's basis: the table depends only on (LogN, Elt).
  std::map<uint64_t, std::vector<uint32_t>> GaloisPerms;
  bool Hoisting = true;

  struct KsCounters {
    std::atomic<uint64_t> ForwardNtts{0};
    std::atomic<uint64_t> InverseNtts{0};
    std::atomic<uint64_t> Rotations{0};
    std::atomic<uint64_t> HoistedBatches{0};
    std::atomic<uint64_t> HoistedAmounts{0};
  };
  /// Heap-held (atomics are immovable) so the backend stays movable.
  mutable std::unique_ptr<KsCounters> KsStats =
      std::make_unique<KsCounters>();
};

/// Applies the automorphism X -> X^{Elt} to a BigInt coefficient vector.
void applyAutomorphismBig(const BigInt *In, BigInt *Out, size_t N,
                          uint64_t Elt);

/// HISA ops on distinct ciphertexts are thread-safe: lazy ring growth is
/// guarded by BigPolyRing::RingMu (with reallocation-proof reservations)
/// and the plaintext caches by Pt::Cache::FillMu.
template <>
inline constexpr bool BackendSupportsParallelKernels<BigCkksBackend> = true;

} // namespace chet

#endif // CHET_CKKS_BIGCKKS_H
