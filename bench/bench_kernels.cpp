//===- bench_kernels.cpp - Hot-kernel dashboard (pooled vs unpooled) -----===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Successor of bench_ntt_fused: one dashboard over the kernels that
/// dominate encrypted inference -- ciphertext multiply (+relinearize),
/// rescale, rotate, and the raw negacyclic NTT -- each timed twice, with
/// the limb pool enabled and disabled (CHET_LIMB_POOL semantics, toggled
/// in-process). The pooled column must additionally report zero pool
/// misses in steady state: after warm-up every temporary is served from a
/// free list, so the speedup column isolates exactly the allocation /
/// zero-fill churn the pool removes.
///
/// Since the vectorized-kernel overhaul the dashboard also sweeps the
/// raw transform across both kernel generations: scalar reference vs
/// restructured (DESIGN.md section 5i) at logN 12-15, on a 60-bit prime
/// and on a narrow (<2^30, packed uint32) prime, reporting per-butterfly
/// nanoseconds and effective memory bandwidth per row.
///
/// Before any timing, the harness runs three gates and aborts on failure:
///
///   1. the fused-reduction NTT checks inherited from bench_ntt_fused
///      (round-trip identity, schoolbook negacyclic reference);
///   2. byte-identity: a mul -> rescale -> rotate chain serialized under
///      the pool must equal the same chain with the pool disabled, on
///      both CKKS backends, and on RNS-CKKS over 40-bit and 30-bit scale
///      primes (the latter exercises the 32-bit key rows and their
///      64-bit inner product);
///   3. kernel-generation byte-identity: the vectorized forward/inverse
///      (and the fused pointwiseMulInverse) must match the scalar
///      reference kernels bit for bit on both prime widths.
///
/// Usage:
///   bench_kernels [--json FILE] [--check-only] [--threads N]
///                 [--reps R] [--iters K]
///
/// --check-only runs the gates plus a shortened timing pass and fails
/// (exit 1) unless at least one mul/rescale-heavy kernel shows pooled
/// speedup >= 1.0x -- the CI sanity bound that the pool never regresses
/// the hot path. The kernel-generation gate is pass/fail on bytes, never
/// on timing, so CI machine noise cannot flake it. --json writes the
/// dashboard (the committed BENCH_kernels.json) with pooled-vs-unpooled
/// columns per kernel plus the "ntt" generation-sweep array.
///
//===----------------------------------------------------------------------===//

#include "ckks/BigCkks.h"
#include "ckks/RnsCkks.h"
#include "ckks/Serialization.h"
#include "math/Ntt.h"
#include "math/PrimeGen.h"
#include "support/LimbPool.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

using namespace chet;

namespace {

//===--------------------------------------------------------------------===//
// Correctness gate 1: fused-reduction NTT (from bench_ntt_fused)
//===--------------------------------------------------------------------===//

/// Deterministic pseudo-random coefficients in [0, q).
std::vector<uint64_t> randomPoly(size_t N, const Modulus &Q, uint64_t Seed) {
  std::vector<uint64_t> P(N);
  uint64_t S = Seed * 6364136223846793005ull + 1442695040888963407ull;
  for (size_t I = 0; I < N; ++I) {
    S ^= S >> 33;
    S *= 0xff51afd7ed558ccdull;
    S ^= S >> 33;
    P[I] = Q.reduce(S);
    S += 0x9e3779b97f4a7c15ull;
  }
  return P;
}

/// Schoolbook negacyclic product: c[k] = sum_{i+j=k} a_i b_j
///                                      - sum_{i+j=k+N} a_i b_j  (mod q).
std::vector<uint64_t> naiveNegacyclicMul(const std::vector<uint64_t> &A,
                                         const std::vector<uint64_t> &B,
                                         const Modulus &Q) {
  size_t N = A.size();
  std::vector<uint64_t> C(N, 0);
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J) {
      uint64_t Prod = Q.mulMod(A[I], B[J]);
      size_t K = I + J;
      if (K < N)
        C[K] = Q.addMod(C[K], Prod);
      else
        C[K - N] = Q.subMod(C[K - N], Prod);
    }
  return C;
}

void failCheck(const char *What, int LogN, uint64_t Prime) {
  std::fprintf(stderr,
               "bench_kernels: correctness check FAILED (%s) at LogN=%d "
               "q=%llu -- refusing to benchmark a broken transform\n",
               What, LogN, static_cast<unsigned long long>(Prime));
  std::exit(1);
}

/// Returns only if the fused-reduction transform is bit-exact.
void verifyFusedNtt() {
  // Round-trip identity across the sizes the benches sweep.
  for (int LogN : {4, 8, 12, 13, 14}) {
    for (uint64_t Prime : generateNttPrimes(60, LogN, 2)) {
      Modulus Q(Prime);
      NttTables Tables(LogN, Q);
      std::vector<uint64_t> A = randomPoly(Tables.size(), Q, 41 + LogN);
      std::vector<uint64_t> Copy = A;
      Tables.forward(Copy.data());
      Tables.inverse(Copy.data());
      if (Copy != A)
        failCheck("inverse(forward(a)) != a", LogN, Prime);
      // forward() promises fully reduced outputs -- the property the
      // fused final reduction exists to preserve.
      Tables.forward(Copy.data());
      for (uint64_t V : Copy)
        if (V >= Q.value())
          failCheck("forward output not fully reduced", LogN, Prime);
    }
  }

  // Negacyclic product against the O(N^2) schoolbook reference (small N
  // keeps the reference tractable; the butterfly code paths are
  // size-independent beyond the stage count).
  for (int LogN : {4, 6, 8}) {
    uint64_t Prime = generateNttPrimes(60, LogN, 1).front();
    Modulus Q(Prime);
    NttTables Tables(LogN, Q);
    std::vector<uint64_t> A = randomPoly(Tables.size(), Q, 7);
    std::vector<uint64_t> B = randomPoly(Tables.size(), Q, 11);
    std::vector<uint64_t> Want = naiveNegacyclicMul(A, B, Q);
    std::vector<uint64_t> Fa = A, Fb = B;
    Tables.forward(Fa.data());
    Tables.forward(Fb.data());
    for (size_t I = 0; I < Fa.size(); ++I)
      Fa[I] = Q.mulMod(Fa[I], Fb[I]);
    Tables.inverse(Fa.data());
    if (Fa != Want)
      failCheck("NTT negacyclic product != schoolbook", LogN, Prime);
  }
}

//===--------------------------------------------------------------------===//
// Correctness gate 2: pooled / unpooled byte identity
//===--------------------------------------------------------------------===//

std::unique_ptr<RnsCkksBackend> makeRns(int LogN, int Levels,
                                        int ScaleBits = 40) {
  RnsCkksParams P = RnsCkksParams::create(LogN, Levels, 60, ScaleBits);
  P.Security = SecurityLevel::None;
  P.StockPow2Keys = false;
  P.Seed = 1234;
  auto B = std::make_unique<RnsCkksBackend>(P);
  B->generateRotationKeys({1});
  return B;
}

std::unique_ptr<BigCkksBackend> makeBig(int LogN, int LogQ) {
  BigCkksParams P;
  P.LogN = LogN;
  P.LogQ = LogQ;
  P.Security = SecurityLevel::None;
  P.StockPow2Keys = false;
  P.Seed = 1234;
  auto B = std::make_unique<BigCkksBackend>(P);
  B->generateRotationKeys({1});
  return B;
}

/// mul -> rescale -> rotate on a fresh backend, serialized. Identical
/// bytes regardless of the pool mode active while it ran.
template <typename MakeFn> ByteBuffer chainBytes(MakeFn &&Make) {
  auto B = Make();
  std::vector<double> V(B->slotCount());
  for (size_t I = 0; I < V.size(); ++I)
    V[I] = 0.001 * double(I % 997) - 0.4;
  auto C = B->encrypt(B->encode(V, 1 << 25));
  auto D = B->encrypt(B->encode(V, 1 << 25));
  B->mulAssign(C, D);
  B->rescaleAssign(C, B->maxRescale(C, uint64_t(1) << 40));
  B->rotLeftAssign(C, 1);
  return serialize(C);
}

void verifyByteIdentity() {
  LimbPool &Pool = LimbPool::instance();
  bool Was = Pool.enabled();
  auto RunBoth = [&](auto &&Make, const char *Scheme) {
    Pool.setEnabled(true);
    ByteBuffer Pooled = chainBytes(Make);
    Pool.setEnabled(false);
    ByteBuffer Plain = chainBytes(Make);
    if (Pooled != Plain) {
      std::fprintf(stderr,
                   "bench_kernels: byte-identity FAILED (%s): pooled and "
                   "CHET_LIMB_POOL=off chains serialized differently\n",
                   Scheme);
      std::exit(1);
    }
  };
  RunBoth([] { return makeRns(12, 6); }, "rns-ckks");
  // 30-bit scale primes: narrow key rows and their 64-bit inner product.
  RunBoth([] { return makeRns(12, 6, 30); }, "rns-ckks narrow");
  RunBoth([] { return makeBig(12, 240); }, "big-ckks");
  Pool.setEnabled(Was);
}

//===--------------------------------------------------------------------===//
// Correctness gate 3: vectorized / scalar kernel-generation byte identity
//===--------------------------------------------------------------------===//

/// The restructured kernels promise bit-for-bit the same outputs as the
/// scalar reference on every size and both prime widths -- the property
/// that lets the backend switch generations freely (CHET_SCALAR_NTT).
void verifyKernelGenerations() {
  bool Was = nttVectorizedEnabled();
  setNttVectorized(true);
  for (int LogN : {2, 4, 8, 12, 13}) {
    for (int Bits : {60, 30}) {
      uint64_t Prime = generateNttPrimes(Bits, LogN, 1).front();
      Modulus Q(Prime);
      NttTables Tables(LogN, Q);
      std::vector<uint64_t> A = randomPoly(Tables.size(), Q, 19 + LogN);
      std::vector<uint64_t> B = randomPoly(Tables.size(), Q, 23 + LogN);

      std::vector<uint64_t> Vec = A, Ref = A;
      Tables.forward(Vec.data());
      Tables.forwardScalar(Ref.data());
      if (Vec != Ref)
        failCheck("vectorized forward != scalar reference", LogN, Prime);
      Tables.inverse(Vec.data());
      Tables.inverseScalar(Ref.data());
      if (Vec != Ref)
        failCheck("vectorized inverse != scalar reference", LogN, Prime);

      // Fused product+inverse against the eager two-pass reference.
      std::vector<uint64_t> Fa = A, Fb = B;
      Tables.forwardScalar(Fa.data());
      Tables.forwardScalar(Fb.data());
      std::vector<uint64_t> Eager(Tables.size()), Fused(Tables.size());
      for (size_t I = 0; I < Eager.size(); ++I)
        Eager[I] = Q.mulMod(Fa[I], Fb[I]);
      Tables.inverseScalar(Eager.data());
      Tables.pointwiseMulInverse(Fused.data(), Fa.data(), Fb.data());
      if (Fused != Eager)
        failCheck("fused pointwiseMulInverse != eager mul+inverse", LogN,
                  Prime);
    }
  }
  setNttVectorized(Was);
}

//===--------------------------------------------------------------------===//
// Timing harness
//===--------------------------------------------------------------------===//

struct KernelResult {
  std::string Name;
  int LogN = 0;
  double UnpooledUs = 0;
  double PooledUs = 0;
  uint64_t SteadyStateMisses = 0; ///< Pool misses during the timed pooled run.
  /// Kernels whose temporaries are dominated by limb-buffer traffic; the
  /// CI sanity bound and the committed dashboard's >=1.2x acceptance
  /// criterion quantify these.
  bool MulRescaleHeavy = false;

  double speedup() const {
    return PooledUs > 0 ? UnpooledUs / PooledUs : 0;
  }
};

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-Reps mean microseconds per call of Fn over Iters calls.
double timeBest(int Reps, int Iters, const std::function<void()> &Fn) {
  double Best = 1e100;
  for (int R = 0; R < Reps; ++R) {
    double T0 = now();
    for (int I = 0; I < Iters; ++I)
      Fn();
    Best = std::min(Best, (now() - T0) / double(Iters));
  }
  return Best * 1e6;
}

/// Times Fn in both pool modes (unpooled first, so the pooled pass starts
/// from a cold pool and must still reach zero-miss steady state after its
/// warm-up).
KernelResult sweep(const std::string &Name, int LogN, int Reps, int Iters,
                   bool MulRescaleHeavy, const std::function<void()> &Fn) {
  LimbPool &Pool = LimbPool::instance();
  KernelResult R;
  R.Name = Name;
  R.LogN = LogN;
  R.MulRescaleHeavy = MulRescaleHeavy;

  Pool.setEnabled(false);
  Fn(); // warm-up (page in key material, plaintext NTT caches, ...)
  R.UnpooledUs = timeBest(Reps, Iters, Fn);

  Pool.setEnabled(true);
  for (int I = 0; I < 3; ++I)
    Fn(); // warm the free lists
  Pool.resetStats();
  R.PooledUs = timeBest(Reps, Iters, Fn);
  R.SteadyStateMisses = Pool.stats().Misses;
  return R;
}

struct Options {
  std::string JsonPath;
  bool CheckOnly = false;
  unsigned Threads = 0;
  int Reps = 5;
  int Iters = 8;
};

//===--------------------------------------------------------------------===//
// NTT kernel-generation sweep (scalar vs vectorized, 60-bit vs narrow)
//===--------------------------------------------------------------------===//

struct NttSweepResult {
  int LogN = 0;
  int PrimeBits = 0; ///< 60 (wide) or 30 (narrow / packed uint32).
  double ScalarUs = 0;
  double VectorUs = 0;

  double speedup() const { return VectorUs > 0 ? ScalarUs / VectorUs : 0; }
  /// Vectorized nanoseconds per butterfly: a forward transform executes
  /// N/2 butterflies per stage over logN stages.
  double perButterflyNs() const {
    double Butterflies = double(size_t(1) << (LogN - 1)) * LogN;
    return VectorUs * 1e3 / Butterflies;
  }
  /// Effective traffic of the vectorized transform: each stage reads and
  /// writes all N coefficients at the uint64 working width (the packed
  /// path halves in-kernel traffic, but pack/unpack still moves the
  /// 64-bit limbs, so 16 bytes/coefficient/stage is the honest figure).
  double gbPerSec() const {
    double Bytes = 16.0 * double(size_t(1) << LogN) * LogN;
    return Bytes / (VectorUs * 1e-6) / 1e9;
  }
};

/// Times forward() at both kernel generations across logN 12-15, on a
/// 60-bit prime and a narrow (<2^30) prime. Pure in-place transform: the
/// limb pool only serves the narrow path's pack/unpack scratch.
std::vector<NttSweepResult> runNttSweep(const Options &Opt) {
  bool Was = nttVectorizedEnabled();
  std::vector<NttSweepResult> Out;
  std::vector<int> Sizes =
      Opt.CheckOnly ? std::vector<int>{12, 13} : std::vector<int>{12, 13, 14, 15};
  for (int LogN : Sizes) {
    for (int Bits : {60, 30}) {
      Modulus Q(generateNttPrimes(Bits, LogN, 1).front());
      NttTables Tables(LogN, Q);
      std::vector<uint64_t> Data = randomPoly(Tables.size(), Q, 5 + LogN);
      NttSweepResult R;
      R.LogN = LogN;
      R.PrimeBits = Bits;
      // Larger transforms get fewer iterations so the sweep stays cheap.
      int Iters = std::max(2, (Opt.Iters * 8) >> (LogN - 12));
      setNttVectorized(false);
      Tables.forward(Data.data()); // warm twiddle tables / pages
      R.ScalarUs =
          timeBest(Opt.Reps, Iters, [&] { Tables.forward(Data.data()); });
      setNttVectorized(true);
      Tables.forward(Data.data()); // warm the packed scratch pool
      R.VectorUs =
          timeBest(Opt.Reps, Iters, [&] { Tables.forward(Data.data()); });
      Out.push_back(R);
    }
  }
  setNttVectorized(Was);
  return Out;
}

void printNttTable(const std::vector<NttSweepResult> &Results) {
  std::printf("\n%-6s %6s %12s %12s %9s %10s %8s\n", "logN", "prime",
              "scalar(us)", "vector(us)", "speedup", "ns/bfly", "GB/s");
  for (const NttSweepResult &R : Results)
    std::printf("%-6d %5db %12.1f %12.1f %8.2fx %10.3f %8.1f\n", R.LogN,
                R.PrimeBits, R.ScalarUs, R.VectorUs, R.speedup(),
                R.perButterflyNs(), R.gbPerSec());
}

std::vector<KernelResult> runDashboard(const Options &Opt) {
  std::vector<KernelResult> Out;

  // Raw NTT butterflies: no limb-buffer traffic (in-place transform), so
  // the two columns should agree -- a built-in null measurement.
  for (int LogN : {12, 13, 14}) {
    Modulus Q(generateNttPrimes(60, LogN, 1).front());
    NttTables Tables(LogN, Q);
    std::vector<uint64_t> Data = randomPoly(Tables.size(), Q, 3);
    Out.push_back(sweep("ntt_forward", LogN, Opt.Reps, Opt.Iters * 8,
                        /*MulRescaleHeavy=*/false,
                        [&] { Tables.forward(Data.data()); }));
  }

  // RNS-CKKS hot kernels.
  for (int LogN : Opt.CheckOnly ? std::vector<int>{12}
                                : std::vector<int>{12, 13}) {
    auto B = makeRns(LogN, 8);
    std::vector<double> V(B->slotCount(), 0.5);
    auto C = B->encrypt(B->encode(V, 1 << 25));
    auto D = B->encrypt(B->encode(V, 1 << 25));

    Out.push_back(sweep("rns_mul_relin", LogN, Opt.Reps, Opt.Iters,
                        /*MulRescaleHeavy=*/true, [&] {
                          auto T = B->copy(C);
                          B->mulAssign(T, D);
                        }));
    Out.push_back(sweep("rns_mul_rescale", LogN, Opt.Reps, Opt.Iters,
                        /*MulRescaleHeavy=*/true, [&] {
                          auto T = B->copy(C);
                          B->mulAssign(T, D);
                          B->rescaleAssign(
                              T, B->maxRescale(T, uint64_t(1) << 40));
                        }));
    Out.push_back(sweep("rns_rotate", LogN, Opt.Reps, Opt.Iters,
                        /*MulRescaleHeavy=*/false,
                        [&] { B->rotLeftAssign(C, 1); }));
  }

  // Big-CKKS multiply (the HEAAN-style scheme funnels through the same
  // pooled RNS bridge).
  if (!Opt.CheckOnly) {
    auto B = makeBig(12, 300);
    std::vector<double> V(B->slotCount(), 0.5);
    auto C = B->encrypt(B->encode(V, 1 << 25));
    auto D = B->encrypt(B->encode(V, 1 << 25));
    Out.push_back(sweep("big_mul_relin", 12, Opt.Reps,
                        std::max(1, Opt.Iters / 4),
                        /*MulRescaleHeavy=*/true, [&] {
                          auto T = B->copy(C);
                          B->mulAssign(T, D);
                        }));
  }
  return Out;
}

void printTable(const std::vector<KernelResult> &Results) {
  std::printf("%-18s %6s %14s %14s %9s %8s\n", "kernel", "logN",
              "unpooled(us)", "pooled(us)", "speedup", "misses");
  for (const KernelResult &R : Results)
    std::printf("%-18s %6d %14.1f %14.1f %8.2fx %8llu\n", R.Name.c_str(),
                R.LogN, R.UnpooledUs, R.PooledUs, R.speedup(),
                static_cast<unsigned long long>(R.SteadyStateMisses));
  auto P = LimbPool::instance().stats();
  if (P.Acquires)
    std::printf("limb pool: %.1f%% hit rate, high-water %.1f MB, "
                "zero-fill avoided %.1f MB\n",
                100.0 * double(P.Hits) / double(P.Acquires),
                double(P.HighWaterBytes) / (1 << 20),
                double(P.BytesZeroFillAvoided) / (1 << 20));
}

void writeJson(const std::string &Path,
               const std::vector<KernelResult> &Results,
               const std::vector<NttSweepResult> &Ntt, unsigned Threads) {
  std::ofstream OS(Path);
  if (!OS) {
    std::fprintf(stderr, "bench_kernels: cannot write %s\n", Path.c_str());
    std::exit(1);
  }
  auto P = LimbPool::instance().stats();
  OS << "{\n  \"bench\": \"bench_kernels\",\n  \"threads\": " << Threads
     << ",\n  \"kernels\": [\n";
  for (size_t I = 0; I < Results.size(); ++I) {
    const KernelResult &R = Results[I];
    char Buf[512];
    std::snprintf(Buf, sizeof(Buf),
                  "    {\"name\": \"%s\", \"logn\": %d, "
                  "\"unpooled_us\": %.1f, \"pooled_us\": %.1f, "
                  "\"speedup\": %.2f, \"mul_rescale_heavy\": %s, "
                  "\"steady_state_pool_misses\": %llu}%s\n",
                  R.Name.c_str(), R.LogN, R.UnpooledUs, R.PooledUs,
                  R.speedup(), R.MulRescaleHeavy ? "true" : "false",
                  static_cast<unsigned long long>(R.SteadyStateMisses),
                  I + 1 < Results.size() ? "," : "");
    OS << Buf;
  }
  OS << "  ],\n  \"ntt\": [\n";
  for (size_t I = 0; I < Ntt.size(); ++I) {
    const NttSweepResult &R = Ntt[I];
    char Buf[384];
    std::snprintf(Buf, sizeof(Buf),
                  "    {\"logn\": %d, \"prime_bits\": %d, "
                  "\"scalar_us\": %.1f, \"vector_us\": %.1f, "
                  "\"speedup\": %.2f, \"ns_per_butterfly\": %.3f, "
                  "\"gb_per_sec\": %.1f}%s\n",
                  R.LogN, R.PrimeBits, R.ScalarUs, R.VectorUs, R.speedup(),
                  R.perButterflyNs(), R.gbPerSec(),
                  I + 1 < Ntt.size() ? "," : "");
    OS << Buf;
  }
  char Pool[256];
  std::snprintf(Pool, sizeof(Pool),
                "  ],\n  \"pool\": {\"hit_rate\": %.3f, "
                "\"high_water_mb\": %.1f, \"zero_fill_avoided_mb\": %.1f}\n}\n",
                P.Acquires ? double(P.Hits) / double(P.Acquires) : 0.0,
                double(P.HighWaterBytes) / (1 << 20),
                double(P.BytesZeroFillAvoided) / (1 << 20));
  OS << Pool;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto NextArg = [&](const char *Flag) -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "bench_kernels: %s needs an argument\n", Flag);
        std::exit(1);
      }
      return Argv[++I];
    };
    if (A == "--json")
      Opt.JsonPath = NextArg("--json");
    else if (A == "--check-only")
      Opt.CheckOnly = true;
    else if (A == "--threads")
      Opt.Threads = unsigned(std::atoi(NextArg("--threads")));
    else if (A == "--reps")
      Opt.Reps = std::atoi(NextArg("--reps"));
    else if (A == "--iters")
      Opt.Iters = std::atoi(NextArg("--iters"));
    else {
      std::fprintf(stderr,
                   "usage: bench_kernels [--json FILE] [--check-only] "
                   "[--threads N] [--reps R] [--iters K]\n");
      return A == "--help" || A == "-h" ? 0 : 1;
    }
  }
  if (Opt.Threads)
    setGlobalThreadCount(Opt.Threads);
  if (Opt.CheckOnly) {
    Opt.Reps = std::min(Opt.Reps, 3);
    Opt.Iters = std::min(Opt.Iters, 4);
  }

  verifyFusedNtt();
  std::printf("fused-reduction NTT correctness checks passed "
              "(round-trip + schoolbook reference)\n");
  verifyByteIdentity();
  std::printf("pooled / CHET_LIMB_POOL=off byte identity holds on both "
              "schemes\n");
  verifyKernelGenerations();
  std::printf("vectorized / scalar kernel generations byte-identical on "
              "60-bit and narrow primes (incl. fused mul+inverse)\n");

  std::vector<KernelResult> Results = runDashboard(Opt);
  printTable(Results);
  std::vector<NttSweepResult> Ntt = runNttSweep(Opt);
  printNttTable(Ntt);
  if (!Opt.JsonPath.empty())
    writeJson(Opt.JsonPath, Results, Ntt,
              Opt.Threads ? Opt.Threads : globalThreadCount());

  // Sanity bounds: steady state must be allocation-free, and the pool
  // must not regress at least one mul/rescale-heavy kernel (a lower bar
  // than the dashboard's >=1.2x so CI timing noise cannot flake it).
  bool Ok = true;
  double BestHeavy = 0;
  for (const KernelResult &R : Results) {
    if (R.MulRescaleHeavy)
      BestHeavy = std::max(BestHeavy, R.speedup());
    if (R.SteadyStateMisses != 0) {
      std::fprintf(stderr,
                   "bench_kernels: FAIL: %s (logN=%d) performed %llu pool-"
                   "miss allocations in steady state (want 0)\n",
                   R.Name.c_str(), R.LogN,
                   static_cast<unsigned long long>(R.SteadyStateMisses));
      Ok = false;
    }
  }
  if (BestHeavy < 1.0) {
    std::fprintf(stderr,
                 "bench_kernels: FAIL: best mul/rescale-heavy pooled "
                 "speedup %.2fx < 1.0x\n",
                 BestHeavy);
    Ok = false;
  }
  if (Ok)
    std::printf("sanity bounds hold: steady-state pool misses = 0, best "
                "mul/rescale-heavy speedup %.2fx\n",
                BestHeavy);
  return Ok ? 0 : 1;
}
