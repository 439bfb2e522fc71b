//===- test_narrow_primes.cpp - Narrow-chain end-to-end gate ---------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The 28-32-bit prime-chain gate (DESIGN.md section 5i): compiling a zoo
/// network at the bench scales 2^(25,25,25,12) must produce a chain whose
/// scale primes all sit inside the packed-NTT word bound (the 29-bit
/// floor of the candidate list), the encrypted output must stay within
/// the static PrecisionBound the compiler recorded, and serialized
/// outputs must be bit-identical at 1, 2, and 8 threads (the narrow
/// kernels inherit the deterministic-threading contract).
///
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"

#include "ckks/Serialization.h"
#include "core/Evaluate.h"
#include "nn/Networks.h"
#include "runtime/ReferenceOps.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <vector>

using namespace chet;

namespace {

CompilerOptions narrowOptions() {
  CompilerOptions Options;
  Options.Scheme = SchemeKind::RnsCkks;
  Options.Security = SecurityLevel::None;
  // The bench scales: 2^25 rounds up to the 29-bit candidate floor, so
  // every scale prime of the default chain is narrow.
  Options.Scales = ScaleConfig::fromExponents(25, 25, 25, 12);
  return Options;
}

/// Restores the CHET_NUM_THREADS / hardware default pool on scope exit.
struct PoolGuard {
  ~PoolGuard() { setGlobalThreadCount(0); }
};

TEST(NarrowPrimes, LeNetChainScalePrimesAreNarrow) {
  TensorCircuit Circ = makeLeNet5Small(2);
  CompiledCircuit Compiled = compileCircuit(Circ, narrowOptions());
  ASSERT_TRUE(Compiled.Rns.has_value());
  const RnsCkksParams &P = *Compiled.Rns;
  ASSERT_GE(P.ChainPrimes.size(), 2u);
  // The base and special primes stay wide (they must hold the output
  // scale plus precision headroom); every scale prime sits inside the
  // 28-32-bit packed-NTT domain.
  EXPECT_GE(P.ChainPrimes.front(), uint64_t(1) << 59);
  ASSERT_FALSE(P.SpecialPrimes.empty());
  for (uint64_t Special : P.SpecialPrimes)
    EXPECT_GE(Special, uint64_t(1) << 59);
  for (size_t I = 1; I < P.ChainPrimes.size(); ++I) {
    EXPECT_TRUE(isNarrowModulus(P.ChainPrimes[I]))
        << "scale prime " << I << " = " << P.ChainPrimes[I];
    EXPECT_GE(P.ChainPrimes[I], uint64_t(1) << 28);
  }

  // Scales above 2^30 get wide scale primes: the chain follows the
  // scales, so the library-default 2^40 keeps 40-bit primes.
  CompilerOptions Wide = narrowOptions();
  Wide.Scales = ScaleConfig();
  CompiledCircuit WideCompiled = compileCircuit(Circ, Wide);
  ASSERT_TRUE(WideCompiled.Rns.has_value());
  for (size_t I = 1; I < WideCompiled.Rns->ChainPrimes.size(); ++I)
    EXPECT_FALSE(isNarrowModulus(WideCompiled.Rns->ChainPrimes[I]));
}

TEST(NarrowPrimes, LeNetErrorWithinStaticBoundAndThreadInvariant) {
  PoolGuard Guard;
  TensorCircuit Circ = makeLeNet5Small(2);
  CompiledCircuit Compiled = compileCircuit(Circ, narrowOptions());
  ASSERT_TRUE(Compiled.Noise.Analyzed);
  ASSERT_GT(Compiled.Noise.ErrorBound, 0);

  Tensor3 Image = randomImageFor(Circ, 7);
  Tensor3 Want = Circ.evaluatePlain(Image);

  // One inference per thread count, each from a freshly keyed backend
  // (same seed, so key material is identical); decrypted outputs must
  // honor the static bound and serialized ciphertexts must not depend
  // on the lane count.
  std::vector<ByteBuffer> RefBytes;
  for (unsigned Threads : {1u, 2u, 8u}) {
    setGlobalThreadCount(Threads);
    RnsCkksBackend Backend = makeRnsBackend(Compiled);
    TensorLayout L =
        circuitInputLayout(Circ, Compiled.Policy, Backend.slotCount());
    auto Enc = encryptTensor(Backend, Image, L, Compiled.Scales);
    auto Out = evaluateCircuit(Backend, Circ, Enc, Compiled.Scales,
                               Compiled.Policy);

    Tensor3 Got = decryptTensor(Backend, Out);
    double Err = maxAbsDiff(Got, Want);
    EXPECT_LE(Err, Compiled.Noise.ErrorBound)
        << "measured error escaped the static bound at " << Threads
        << " threads";

    std::vector<ByteBuffer> Bytes;
    for (const auto &Ct : Out.Cts)
      Bytes.push_back(serialize(Ct));
    if (RefBytes.empty()) {
      RefBytes = std::move(Bytes);
    } else {
      ASSERT_EQ(RefBytes.size(), Bytes.size());
      for (size_t I = 0; I < Bytes.size(); ++I)
        EXPECT_EQ(RefBytes[I], Bytes[I])
            << "ciphertext " << I << " diverged at " << Threads
            << " threads";
    }
  }
}

} // namespace
