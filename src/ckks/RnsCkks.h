//===- RnsCkks.h - RNS-CKKS (SEAL-style) HISA backend ----------*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A from-scratch implementation of the RNS variant of the CKKS approximate
/// FHE scheme (Cheon-Han-Kim-Kim-Song, SAC 2018), the scheme SEAL v3.1
/// implements and one of CHET's two compilation targets. Implements the
/// full HISA of Table 2.
///
/// Representation. The ciphertext modulus is a chain of NTT-friendly
/// primes q_0 .. q_L; a ciphertext at level l holds two polynomials with
/// RNS components modulo q_0..q_l, kept in NTT (evaluation) form.
/// Rescaling divides by the last active prime and drops it (Section 2.2 of
/// the CHET paper: maxRescale returns the product of the next moduli in
/// the chain that fits under the requested bound).
///
/// Key switching is the hybrid (Han-Ki, CT-RSA 2020) digit construction
/// with a list of alpha special primes p_0..p_{alpha-1}, P their product.
/// The chain is split into groups of alpha consecutive primes; at level l
/// the beta = ceil((l+1)/alpha) groups q_0..q_l falls into are the
/// key-switch digits. The evaluation key for a target t holds, for each
/// digit g, an RLWE sample (b_g, a_g) modulo Q*P with
/// b_g = -(a_g s) + e_g + P * Qt_g * t, where the gadget factor Qt_g is
/// 1 modulo the primes of group g and 0 modulo every other chain prime (so
/// a partial last group at a lower level works unchanged). Switching a
/// polynomial d raises each digit [d]_{Q_g} to the group's complement and
/// P by fast base conversion (ModUp), accumulates the inner product with
/// the key in the NTT domain, and divides by P with rounding (ModDown).
/// Per ciphertext multiplication or rotation that costs O(N log N r beta)
/// instead of the per-prime digits' O(N log N r^2) -- the RNS-CKKS column
/// of Table 1 in the paper with r^2 shrunk by alpha. alpha = 1 is the
/// one-special-prime, one-digit-per-prime construction of SEAL v3.1.
///
/// RnsCkksParams::specialPrimesFor derives alpha from the security budget
/// the chain leaves over: the alpha that minimizes the key words
/// beta * (L+1+alpha) among those that fit.
///
/// Seeded keys. The a_g halves are pure PRNG output, so an evaluation key
/// stores only its b_g halves plus, per (digit, modulus) block, the
/// 32-byte state of the keygen stream just before that block of a_g was
/// drawn; the inner product regenerates each block from its checkpoint
/// (the trick SEAL's seeded keys use). Keygen consumes the stream in the
/// same order it would to store a_g, so keys, ciphertexts and every later
/// draw are unchanged, and key memory halves. The public key stays
/// materialized.
///
/// Level-trimmed Galois keys. A key switch at level l reads only digits
/// 0..beta_l-1 and, per digit, the moduli q_0..q_l plus the special
/// primes. A Galois key generated for level k stores exactly those
/// blocks of the full-level key and serves every key switch at levels
/// <= k. Keygen consumes the stream as the full key would, so every kept
/// block, every seed and every later draw is unchanged (DESIGN.md
/// section 5m); it computes where each block starts with
/// Prng::discard instead of walking the stream, and samples the blocks
/// on every lane. The relinearization key and the stock
/// power-of-two keys are top-level keys.
///
/// Narrow key rows. A key row modulo a prime below 2^30 holds 32-bit
/// words, any other row 64-bit words; the values are the same residues,
/// so keys and ciphertexts are unchanged. The inner product over such a
/// modulus sums its products (each below 2^60) in one 64-bit word,
/// reducing every 16 digits, instead of the 128-bit sum wide moduli need.
///
//===----------------------------------------------------------------------===//

#ifndef CHET_CKKS_RNSCKKS_H
#define CHET_CKKS_RNSCKKS_H

#include "ckks/Encoder.h"
#include "ckks/SecurityTable.h"
#include "hisa/Hisa.h"
#include "math/Crt.h"
#include "math/Ntt.h"
#include "support/LimbPool.h"
#include "support/Prng.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

namespace chet {

/// Parameters of an RNS-CKKS instantiation: the ring dimension and the
/// explicit prime chain the compiler selected.
struct RnsCkksParams {
  int LogN = 13;
  /// q_0 (a wide "base" prime) followed by the scaling primes q_1..q_L.
  std::vector<uint64_t> ChainPrimes;
  /// The key-switching primes p_0..p_{alpha-1}, disjoint from the chain;
  /// their product P counts toward the security budget. Their number
  /// alpha is the key-switch digit width in chain primes.
  std::vector<uint64_t> SpecialPrimes;
  SecurityLevel Security = SecurityLevel::Classical128;
  uint64_t Seed = 0x5ea1;
  /// Generate the default power-of-two rotation keys at construction.
  /// The compiler turns this off when it supplies an exact key set
  /// (Section 5.4), saving key-generation time and memory.
  bool StockPow2Keys = true;

  /// Returns the global pre-generated candidate modulus list the
  /// parameter-selection pass consumes (Section 5.2): one \p FirstBits
  /// base prime followed by \p Count - 1 scaling primes of \p ScaleBits
  /// bits, all NTT-friendly up to LogN = 16 so the same chain is usable at
  /// any smaller ring dimension.
  static std::vector<uint64_t> candidateChain(int Count, int FirstBits = 60,
                                              int ScaleBits = 40);

  /// The first candidate special prime, disjoint from candidateChain
  /// results.
  static uint64_t candidateSpecial(int Bits = 60);

  /// The special-prime list for \p ChainPrimes at ring dimension
  /// 2^\p LogN: alpha NTT-friendly \p Bits-bit primes disjoint from the
  /// chain, where alpha in [1, min(chain length, floor((budget - logQ) /
  /// Bits))] minimizes the key words per coefficient
  /// ceil(ChainLen / alpha) * (ChainLen + alpha), ties going to the
  /// smaller alpha. Candidates are generated once and cached; the first
  /// is candidateSpecial(Bits).
  static std::vector<uint64_t>
  specialPrimesFor(const std::vector<uint64_t> &ChainPrimes, int LogN,
                   SecurityLevel Security, int Bits = 60);

  /// Convenience constructor from the candidate lists; the special
  /// primes come from specialPrimesFor.
  static RnsCkksParams create(int LogN, int Levels, int FirstBits = 60,
                              int ScaleBits = 40,
                              SecurityLevel Security =
                                  SecurityLevel::Classical128);

  /// Bits of the full ciphertext modulus q_0..q_L (excluding p).
  double logQ() const;
  /// Bits of the total modulus including the special primes.
  double logQP() const;
  /// Number of rescale levels L (ChainPrimes.size() - 1).
  int levels() const { return static_cast<int>(ChainPrimes.size()) - 1; }
  /// Whether the chain and special primes are pairwise distinct, as key
  /// switching (and every CRT basis) requires.
  bool primesDistinct() const;
  /// Key-switch digits at \p Level: ceil((Level+1) / alpha).
  size_t digitsAt(int Level) const {
    return (static_cast<size_t>(Level) + SpecialPrimes.size()) /
           SpecialPrimes.size();
  }
};

/// The RNS-CKKS scheme exposed through the HISA. Constructing an instance
/// generates a secret key, a public encryption key, a relinearization key,
/// and (by default) rotation keys for all power-of-two step counts -- the
/// stock key configuration CHET's rotation-key-selection pass improves on.
class RnsCkksBackend {
public:
  /// Ciphertext: two RNS/NTT-form polynomials plus level and scale.
  struct Ct {
    std::vector<uint64_t> C0, C1; ///< (Level+1) components of N words each.
    int Level = 0;
    double Scale = 1.0;
  };

  /// Plaintext: rounded integer coefficients (exact in doubles) plus a
  /// per-prime NTT cache filled lazily on first multiplication (servers
  /// encode model weights once; Section 3.2 keeps weights unencrypted).
  struct Pt {
    std::vector<double> Coeffs;
    double Scale = 1.0;
    struct Cache {
      std::vector<std::vector<uint64_t>> PerPrime;
      /// Per-prime publication flags: readers check Ready[J] (acquire)
      /// before touching PerPrime[J]; fillers serialize on FillMu. Keeps
      /// the lazy fill safe when ops sharing one Pt run on the pool.
      std::unique_ptr<std::atomic<bool>[]> Ready;
      std::mutex FillMu;
    };
    std::shared_ptr<Cache> NttCache;
  };

  explicit RnsCkksBackend(const RnsCkksParams &Params);

  //===--------------------------------------------------------------===//
  // HISA instructions (Table 2).
  //===--------------------------------------------------------------===//

  size_t slotCount() const { return Degree / 2; }
  Pt encode(const std::vector<double> &Values, double Scale) const;
  std::vector<double> decode(const Pt &P) const;
  Ct encrypt(const Pt &P);
  Pt decrypt(const Ct &C) const;
  Ct copy(const Ct &C) const { return C; }
  void freeCt(Ct &C) const;

  void rotLeftAssign(Ct &C, int Steps);
  void rotRightAssign(Ct &C, int Steps) { rotLeftAssign(C, -Steps); }

  /// Rotation fan-out (Halevi-Shoup hoisting): rotates \p C left by every
  /// amount in \p Steps, returning one ciphertext per amount in order.
  /// The key-switch digit decomposition and its per-modulus forward NTTs
  /// are computed once and shared across all amounts with a dedicated
  /// Galois key; each amount then only permutes the shared base in the
  /// NTT domain and runs the per-key inner product. Amounts of zero
  /// return copies; amounts without a dedicated key fall back to
  /// rotLeftAssign (power-of-two hop chains cannot share a base).
  /// Bit-identical to per-amount rotLeftAssign at any thread count.
  std::vector<Ct> rotLeftMany(const Ct &C, const std::vector<int> &Steps);

  /// Disables/enables hoisting inside rotLeftMany (on by default); when
  /// off every amount runs the per-rotation path. Benchmarks use this to
  /// compare the two implementations over identical call sites.
  void setRotationHoisting(bool Enabled) { Hoisting = Enabled; }
  bool rotationHoisting() const { return Hoisting; }

  void addAssign(Ct &C, const Ct &Other) const;
  void subAssign(Ct &C, const Ct &Other) const;
  void addPlainAssign(Ct &C, const Pt &P) const;
  void subPlainAssign(Ct &C, const Pt &P) const;
  void addScalarAssign(Ct &C, double X) const;
  void subScalarAssign(Ct &C, double X) const { addScalarAssign(C, -X); }

  void mulAssign(Ct &C, const Ct &Other);
  void mulPlainAssign(Ct &C, const Pt &P) const;
  void mulScalarAssign(Ct &C, double X, uint64_t Scale) const;

  uint64_t maxRescale(const Ct &C, uint64_t UpperBound) const;
  void rescaleAssign(Ct &C, uint64_t Divisor) const;
  double scaleOf(const Ct &C) const { return C.Scale; }

  //===--------------------------------------------------------------===//
  // Key management and introspection.
  //===--------------------------------------------------------------===//

  /// Generates top-level Galois keys for exactly these rotation steps.
  void generateRotationKeys(const std::vector<int> &Steps);

  /// Generates the Galois key for \p Steps trimmed to \p Level: it serves
  /// key switches at levels <= Level (the output of CHET's rotation-key
  /// selection, Section 5.4, records that level per step). An existing
  /// key for the same Galois element is kept if it already reaches
  /// \p Level and regenerated at \p Level otherwise. The key's target
  /// sigma(s) is the secret's NTT form gathered through the key's own
  /// permutation, so keygen takes no NTT of it.
  void generateRotationKey(int Steps, int Level);

  /// Drops every rotation key, including the default power-of-two set.
  /// Used by benchmarks to isolate key-set configurations.
  void clearRotationKeys();

  bool hasRotationKey(int Steps) const;

  /// Number of rotation keys currently held.
  size_t rotationKeyCount() const { return GaloisKeys.size(); }

  /// The left-rotation steps (normalized to [1, slots-1]) a key exists
  /// for; reported by MissingRotationKey diagnostics.
  const std::set<int> &availableRotationSteps() const {
    return RotationSteps;
  }

  const RnsCkksParams &params() const { return Params; }
  const CkksEncoder &encoder() const { return Encoder; }
  int maxLevel() const { return static_cast<int>(ChainLen) - 1; }
  int levelOf(const Ct &C) const { return C.Level; }

  /// Running tally of number-theoretic transforms executed inside
  /// key-switching paths (relinearization and rotation), plus rotation
  /// hoisting activity. Profiling reads this to show where key-switch
  /// work went; counts are derived analytically at the call sites, so
  /// they cost nothing on the hot path.
  struct KeySwitchNttStats {
    uint64_t ForwardNtts = 0;
    uint64_t InverseNtts = 0;
    uint64_t Rotations = 0;      ///< single rotations served (incl. hops)
    uint64_t HoistedBatches = 0; ///< rotLeftMany calls that shared a base
    uint64_t HoistedAmounts = 0; ///< amounts served from a shared base
  };
  KeySwitchNttStats keySwitchNttStats() const;
  void resetKeySwitchNttStats();

  /// Bytes of evaluation key material held: the public key, and for the
  /// relinearization key and every Galois key the stored b halves (4
  /// bytes per word modulo a prime below 2^30, 8 otherwise) and a-half
  /// seeds, plus each Galois key's NTT permutation table.
  uint64_t keyBytes() const;

private:
  /// Test-side access to the seeded key material.
  friend struct RnsCkksKeyProbe;

  /// std::allocator that default-initializes: resize leaves the words
  /// unwritten instead of zero-filling them (constructions with
  /// arguments fall back to std::construct_at).
  template <typename T> struct UninitAllocator : std::allocator<T> {
    using std::allocator<T>::allocator;
    template <typename U> struct rebind {
      using other = UninitAllocator<U>;
    };
    template <typename U> void construct(U *P) {
      ::new (static_cast<void *>(P)) U;
    }
  };
  template <typename T> using KeyRows = std::vector<T, UninitAllocator<T>>;

  /// A seeded key-switching key for key switches at levels <= Level.
  /// Each of the digitsAt(Level) digits g holds one N-word NTT polynomial
  /// of b per key modulus (chain primes q_0..q_Level, then the alpha
  /// special primes): B[g] holds the rows of the moduli at or above 2^30
  /// and B32[g] those of the moduli below (isNarrowModulus), each back to
  /// back in key-modulus order. RowOffset[J] is key modulus J's word
  /// offset inside its digit's buffer of its width, the same for every
  /// digit. The uniform halves a_{g,J} are not stored:
  /// Seeds[g * (Level + 1 + alpha) + J] is the keygen stream's state just
  /// before a_{g,J} was drawn, and drawUniform regenerates the block from
  /// it wherever it is read.
  struct KSwitchKey {
    std::vector<KeyRows<uint64_t>> B;
    std::vector<KeyRows<uint32_t>> B32;
    std::vector<size_t> RowOffset;
    std::vector<Prng> Seeds;
    int Level = 0;
  };
  /// A Galois key with the NTT-domain index permutation realizing
  /// sigma_Elt, both complete before generateRotationKey returns, so
  /// rotations read them without locking.
  struct GaloisKey {
    KSwitchKey Key;
    std::vector<uint32_t> Perm;
  };
  /// Fast base conversion constants of one key-switch digit: the chain
  /// primes [First, First + Size) with Q_g their product.
  struct DigitBasis {
    std::vector<uint64_t> HatInv; ///< (Q_g/q_i)^{-1} mod q_i per member.
    /// (Q_g/q_i) mod every modulus, member-major ([i * Moduli + m]).
    std::vector<uint64_t> HatMod;
  };

  /// Moduli are indexed chain primes first, then the special primes.
  const Modulus &modAt(size_t J) const {
    return J < ChainLen ? ChainMods[J] : SpecialMods[J - ChainLen];
  }
  const NttTables &nttAt(size_t J) const {
    return J < ChainLen ? *ChainNtt[J] : *SpecialNtt[J - ChainLen];
  }
  /// Conversion constants of digit \p G when it holds \p Size primes
  /// (a digit straddling the ciphertext's level is partial).
  const DigitBasis &digitBasis(size_t G, size_t Size) const {
    return DigitBases[G][Size - 1];
  }

  /// Degree error coefficients drawn from \p Stream.
  std::vector<int64_t> sampleErrorCoeffs(Prng &Stream) const;
  /// Reduces small signed coefficients modulo modulus \p J and transforms
  /// to NTT form, writing the Degree-word result into \p Out.
  void smallToNttInto(const int64_t *Coeffs, size_t J, uint64_t *Out) const;
  /// Vector-returning convenience over smallToNttInto (keygen paths).
  std::vector<uint64_t> smallToNtt(const std::vector<int64_t> &Coeffs,
                                   size_t J) const;
  /// Writes \p Count residues modulo modulus \p J drawn from \p Stream,
  /// exactly the values Prng::nextBounded would return (reject a word
  /// below 2^64 mod q, reduce the rest) without its two divisions.
  /// Independent uniform residues per CRT component are uniform modulo
  /// the full product, and the NTT is a bijection, so the draws serve
  /// directly as NTT-form uniform polynomials.
  void drawUniform(Prng &Stream, size_t J, uint64_t *Out,
                   size_t Count) const;

  /// Builds a key-switching key for \p Target (NTT form, one polynomial
  /// per chain prime q_0..q_Level) serving levels <= \p Level. Consumes
  /// the keygen stream exactly as the top-level key would, but never
  /// walks it serially: every error and uniform block is sampled on its
  /// own lane from a start Prng::discard computes, re-run from the real
  /// start wherever a rejected draw moved it.
  KSwitchKey makeKSwitchKey(const std::vector<std::vector<uint64_t>> &Target,
                            int Level);

  /// Throws MissingRotationKey unless \p G, the key serving a rotation by
  /// \p Steps, reaches a key switch at \p Level.
  void requireKeyLevel(const GaloisKey &G, int Steps, int Level) const;

  /// The key-independent half of a key switch at \p Level (ModUp): the
  /// polynomial d, given per chain prime in coefficient form (\p Coeff)
  /// and NTT form (\p Ntt), is cut into its digits, each raised by fast
  /// base conversion to every active modulus outside its group and
  /// transformed. Returns one row per output modulus (chain primes
  /// 0..Level, then the special primes) holding the digits back to back.
  /// Rotations share it across amounts (hoisting).
  LimbBuffer modUp(const uint64_t *Coeff, const uint64_t *Ntt,
                   int Level) const;

  /// The per-key half (inner product + ModDown): writes
  /// round(sum_g sigma(Base_g) * Key_g / P) into OutB/OutA ((Level+1) * N
  /// words each, NTT form), regenerating the key's a halves from their
  /// seeds as it goes. \p Perm applies sigma in the NTT domain; null
  /// means the identity (relinearization). Every caller applies sigma at
  /// this one point, so hoisted and per-amount rotations agree bit for
  /// bit.
  void keySwitchFromBase(const LimbBuffer &Base, int Level,
                         const KSwitchKey &Key, const uint32_t *Perm,
                         LimbBuffer &OutB,
                         std::vector<uint64_t> &OutA) const;

  /// ModUp of \p C's c1 (its limbs are the NTT form; one inverse NTT per
  /// limb gives the coefficient form): the shared base of every rotation
  /// of \p C.
  LimbBuffer rotationBase(const Ct &C) const;

  /// sigma(C) from its rotation base, key and permutation.
  Ct rotateFromBase(const Ct &C, const LimbBuffer &Base,
                    const GaloisKey &G) const;

  /// Drops the last active prime of \p C, dividing by it (one rescale
  /// step).
  void dropLastPrime(Ct &C) const;

  /// Reduces \p C in place to \p Level by discarding RNS components.
  void modSwitchTo(Ct &C, int Level) const;

  /// Returns P's NTT representation modulo chain prime \p J, computing and
  /// caching it on first use.
  const std::vector<uint64_t> &plainNtt(const Pt &P, size_t J) const;

  const CrtBasis &crtForLevel(int Level) const;

  RnsCkksParams Params;
  int LogN;
  size_t Degree;
  size_t ChainLen; ///< Number of chain primes (levels + 1).
  size_t Alpha;    ///< Number of special primes (digit width).
  std::vector<Modulus> ChainMods, SpecialMods;
  /// 2^64 mod q per modulus: drawUniform's rejection threshold.
  std::vector<uint64_t> UniformThreshold;
  std::vector<std::unique_ptr<NttTables>> ChainNtt, SpecialNtt;
  CkksEncoder Encoder;
  Prng Rng;

  std::vector<std::vector<uint64_t>> SecretNtt; ///< s per modulus, NTT.
  std::vector<std::vector<uint64_t>> PkB, PkA;  ///< per chain prime, NTT.
  KSwitchKey RelinKey;
  std::map<uint64_t, GaloisKey> GaloisKeys; ///< keyed by Galois element.
  std::set<int> RotationSteps; ///< normalized steps with a key, for errors.
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

  /// DigitBases[g][s-1]: digit g holding its first s primes.
  std::vector<std::vector<DigitBasis>> DigitBases;
  // ModDown constants.
  std::vector<uint64_t> PHatInv;      ///< (P/p_k)^{-1} mod p_k.
  std::vector<uint64_t> PHatModChain; ///< (P/p_k) mod q_j, [k * ChainLen + j].
  std::vector<uint64_t> PModChain;    ///< P mod q_j (keygen's gadget).
  std::vector<uint64_t> PNegModChain; ///< -P mod q_j (ModDown centering).
  std::vector<uint64_t> PInvModChain; ///< P^{-1} mod q_j.
  mutable std::vector<std::unique_ptr<CrtBasis>> CrtByLevel;
  /// Guards the lazy CrtByLevel fill. Heap-held so the backend stays
  /// movable (factories return it by value).
  mutable std::unique_ptr<std::mutex> CrtMu =
      std::make_unique<std::mutex>();
};

/// HISA ops on distinct ciphertexts are thread-safe: key material is
/// immutable after keygen and the lazy plaintext-NTT / CRT caches are
/// internally synchronized (Pt::Cache, CrtMu).
template <>
inline constexpr bool BackendSupportsParallelKernels<RnsCkksBackend> = true;

} // namespace chet

#endif // CHET_CKKS_RNSCKKS_H
