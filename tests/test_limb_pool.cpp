//===- test_limb_pool.cpp - Pooled limb arena allocator tests --------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The limb pool's contract (DESIGN.md section 5g): pooling is invisible
/// to computed values. Covers the allocator unit semantics (bucket reuse,
/// disabled-mode std::vector emulation, live-buffer mode toggling), a
/// randomized multi-thread acquire/release stress intended for the TSan
/// job, byte-identity of pooled vs CHET_LIMB_POOL=off pipelines on both
/// schemes at 1/2/8 threads, and the steady-state guarantee that a warm
/// LeNet inference performs zero pool-miss allocations.
///
//===----------------------------------------------------------------------===//

#include "support/LimbPool.h"

#include "ckks/BigCkks.h"
#include "ckks/RnsCkks.h"
#include "ckks/Serialization.h"
#include "core/Compiler.h"
#include "core/Evaluate.h"
#include "hisa/ProfilingBackend.h"
#include "nn/Networks.h"
#include "runtime/ReferenceOps.h"
#include "support/Prng.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <mutex>
#include <thread>
#include <vector>

using namespace chet;

namespace {

/// Restores the pool's enabled flag and the global thread count on scope
/// exit so a failing test cannot leak either into later tests.
struct PoolModeGuard {
  bool WasEnabled = LimbPool::instance().enabled();
  ~PoolModeGuard() {
    LimbPool::instance().setEnabled(WasEnabled);
    setGlobalThreadCount(0);
  }
};

//===----------------------------------------------------------------------===//
// Allocator unit semantics
//===----------------------------------------------------------------------===//

TEST(LimbPoolUnit, BucketReuseCountsHit) {
  PoolModeGuard Guard;
  LimbPool &Pool = LimbPool::instance();
  Pool.setEnabled(true);
  Pool.trim();
  Pool.resetStats();

  const size_t Words = 1000; // rounds up to the 1024-word bucket
  const uint64_t *First = nullptr;
  {
    LimbBuffer B(Words);
    First = B.data();
    ASSERT_NE(First, nullptr);
    EXPECT_EQ(B.size(), Words);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(First) % LimbPool::Alignment, 0u);
  }
  // The thread cache is LIFO: the same arena comes back immediately.
  {
    LimbBuffer B(Words);
    EXPECT_EQ(B.data(), First);
  }
  LimbPool::Stats S = Pool.stats();
  EXPECT_EQ(S.Acquires, 2u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Releases, 2u);
  EXPECT_EQ(S.BytesRequested, 2 * Words * sizeof(uint64_t));
  EXPECT_GT(S.BytesZeroFillAvoided, 0u);
  EXPECT_EQ(S.OutstandingBytes, 0u);
  EXPECT_GT(S.HighWaterBytes, 0u);
}

TEST(LimbPoolUnit, CapacityReuseAvoidsReacquire) {
  PoolModeGuard Guard;
  LimbPool &Pool = LimbPool::instance();
  Pool.setEnabled(true);
  Pool.resetStats();

  LimbBuffer B(512);
  const uint64_t *P = B.data();
  uint64_t AcquiresAfterFirst = Pool.stats().Acquires;
  // Shrinking or regrowing within the bucket capacity must not go back
  // to the pool.
  B.resizeUninit(100);
  EXPECT_EQ(B.data(), P);
  EXPECT_EQ(B.size(), 100u);
  B.assignZero(512);
  EXPECT_EQ(B.data(), P);
  for (size_t I = 0; I < 512; ++I)
    ASSERT_EQ(B[I], 0u);
  EXPECT_EQ(Pool.stats().Acquires, AcquiresAfterFirst);
}

TEST(LimbPoolUnit, DisabledModeZeroFillsAndSkipsStats) {
  PoolModeGuard Guard;
  LimbPool &Pool = LimbPool::instance();
  Pool.setEnabled(false);
  Pool.resetStats();

  {
    // Fresh disabled-mode storage reproduces std::vector semantics:
    // zero-filled even though nobody asked.
    LimbBuffer B(4096);
    for (size_t I = 0; I < 4096; ++I)
      ASSERT_EQ(B[I], 0u);
    // assignZero on top is still all-zero (fresh allocation again).
    B.assignZero(4096);
    for (size_t I = 0; I < 4096; ++I)
      ASSERT_EQ(B[I], 0u);
  }
  // Unpooled traffic leaves the pooled counters untouched, so disabled
  // benchmark runs report zero misses/bytes by construction.
  LimbPool::Stats S = Pool.stats();
  EXPECT_EQ(S.Acquires, 0u);
  EXPECT_EQ(S.Misses, 0u);
  EXPECT_EQ(S.BytesRequested, 0u);
}

TEST(LimbPoolUnit, TogglingWithLiveBuffersIsSafe) {
  PoolModeGuard Guard;
  LimbPool &Pool = LimbPool::instance();
  Pool.setEnabled(true);

  LimbBuffer Pooled(256);
  Pool.setEnabled(false);
  LimbBuffer Unpooled(256);
  Pool.setEnabled(true);
  // Each buffer remembers which mode produced it; both releases must
  // route correctly (pooled -> free list, unpooled -> heap).
  uint64_t ReleasesBefore = Pool.stats().Releases;
  Pooled.reset();
  Unpooled.reset();
  EXPECT_EQ(Pool.stats().Releases, ReleasesBefore + 1);
}

TEST(LimbPoolUnit, PooledScratchZeroedIsValueInitialized) {
  PoolModeGuard Guard;
  LimbPool::instance().setEnabled(true);
  // The key-switch lazy accumulators use exactly this instantiation.
  auto Acc = PooledScratch<unsigned __int128>::zeroed(1024);
  ASSERT_EQ(Acc.size(), 1024u);
  for (size_t I = 0; I < Acc.size(); ++I)
    ASSERT_TRUE(Acc[I] == 0);
  Acc[3] = (static_cast<unsigned __int128>(1) << 100) + 7;
  EXPECT_TRUE(Acc[3] >> 100 == 1);
}

//===----------------------------------------------------------------------===//
// Randomized cross-thread stress (primary TSan target)
//===----------------------------------------------------------------------===//

TEST(LimbPoolStress, RandomizedAcquireReleaseAcrossThreads) {
  PoolModeGuard Guard;
  LimbPool &Pool = LimbPool::instance();
  Pool.setEnabled(true);

  constexpr int NumThreads = 8;
  constexpr int ItersPerThread = 1500;
  // Buffers parked here are released by whichever thread pops them,
  // exercising cross-thread release and the shared free lists.
  std::mutex SharedMu;
  std::vector<std::pair<LimbBuffer, uint64_t>> Shared;

  auto Worker = [&](unsigned ThreadId) {
    Prng Rng(0x9e3779b9u * (ThreadId + 1));
    std::vector<std::pair<LimbBuffer, uint64_t>> Local;
    for (int It = 0; It < ItersPerThread; ++It) {
      size_t Words = 64 + size_t(Rng.next() % 16384);
      uint64_t Tag = Rng.next();
      LimbBuffer B(Words);
      // Stamp a recognizable pattern; stale pool bytes must never leak
      // into the stamped positions.
      B[0] = Tag;
      B[Words / 2] = Tag ^ 0xabcdef;
      B[Words - 1] = ~Tag;
      switch (Rng.next() % 4) {
      case 0: // hold locally for a while
        Local.emplace_back(std::move(B), Tag);
        break;
      case 1: { // park for another thread to verify and free
        std::lock_guard<std::mutex> Lk(SharedMu);
        Shared.emplace_back(std::move(B), Tag);
        break;
      }
      default: // verify and release immediately
        ASSERT_EQ(B[0], Tag);
        ASSERT_EQ(B[Words - 1], ~Tag);
        break;
      }
      if (Local.size() > 16)
        Local.erase(Local.begin(), Local.begin() + 8);
      if (It % 7 == 0) {
        std::lock_guard<std::mutex> Lk(SharedMu);
        if (!Shared.empty()) {
          auto Entry = std::move(Shared.back());
          Shared.pop_back();
          ASSERT_EQ(Entry.first[0], Entry.second);
        }
      }
      if (It % 501 == 0)
        Pool.trim(); // concurrent trims must not corrupt the lists
    }
    for (auto &Entry : Local)
      ASSERT_EQ(Entry.first[0], Entry.second);
  };

  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back(Worker, unsigned(T));
  for (std::thread &T : Threads)
    T.join();
  Shared.clear();

  LimbPool::Stats S = Pool.stats();
  EXPECT_EQ(S.OutstandingBytes, 0u);
  EXPECT_GT(S.Acquires, uint64_t(NumThreads) * ItersPerThread / 2);
}

//===----------------------------------------------------------------------===//
// Byte identity: pooled vs CHET_LIMB_POOL=off
//===----------------------------------------------------------------------===//

/// Serialized bytes of every output ciphertext of a small encrypted
/// pipeline (conv -> activation -> pool -> FC) with the limb pool forced
/// to \p PoolOn under \p Threads lanes.
template <typename MakeFn>
std::vector<ByteBuffer> pipelineBytes(MakeFn &&MakeBackend, bool PoolOn,
                                      unsigned Threads) {
  LimbPool::instance().setEnabled(PoolOn);
  setGlobalThreadCount(Threads);
  auto Backend = MakeBackend();
  ScaleConfig S = ScaleConfig::fromExponents(30, 30, 30, 16);
  Tensor3 In(1, 8, 8);
  Prng Rng(41);
  for (double &V : In.Data)
    V = Rng.nextDouble(-1, 1);
  ConvWeights Conv(2, 1, 3, 3);
  for (double &V : Conv.W)
    V = Rng.nextDouble(-0.5, 0.5);
  for (double &V : Conv.Bias)
    V = Rng.nextDouble(-0.2, 0.2);
  FcWeights Fc(4, 2 * 4 * 4);
  for (double &V : Fc.W)
    V = Rng.nextDouble(-0.3, 0.3);
  for (double &V : Fc.Bias)
    V = Rng.nextDouble(-0.2, 0.2);

  TensorLayout L = makeInputLayout(LayoutKind::CHW, 1, 8, 8, /*PadPhys=*/1,
                                   Backend.slotCount());
  auto Enc = encryptTensor(Backend, In, L, S);
  auto C1 = conv2d(Backend, Enc, Conv, 1, 1, S);
  auto A1 = polyActivation(Backend, C1, 0.25, 0.5, S);
  auto P1 = averagePool(Backend, A1, 2, 2, S);
  auto F1 = fullyConnected(Backend, P1, Fc, S);

  std::vector<ByteBuffer> Bytes;
  for (const auto &Ct : F1.Cts)
    Bytes.push_back(serialize(Ct));
  return Bytes;
}

template <typename MakeFn> void expectPooledIdentity(MakeFn &&Make) {
  // Unpooled single-thread run is the reference semantics (std::vector
  // zero-filled allocations, eager key-switch fold).
  std::vector<ByteBuffer> Ref = pipelineBytes(Make, /*PoolOn=*/false, 1);
  for (unsigned Threads : {1u, 2u, 8u}) {
    for (bool PoolOn : {false, true}) {
      std::vector<ByteBuffer> Got = pipelineBytes(Make, PoolOn, Threads);
      ASSERT_EQ(Ref.size(), Got.size());
      for (size_t I = 0; I < Ref.size(); ++I)
        EXPECT_EQ(Ref[I], Got[I])
            << "ciphertext " << I << " diverged (pool "
            << (PoolOn ? "on" : "off") << ", " << Threads << " threads)";
    }
  }
}

TEST(LimbPoolByteIdentity, RnsCkksPooledMatchesUnpooled) {
  PoolModeGuard Guard;
  expectPooledIdentity([] {
    RnsCkksParams P = RnsCkksParams::create(/*LogN=*/12, /*Levels=*/10,
                                            /*FirstBits=*/60,
                                            /*ScaleBits=*/30);
    P.Security = SecurityLevel::None;
    P.Seed = 91;
    return RnsCkksBackend(P);
  });
}

TEST(LimbPoolByteIdentity, BigCkksPooledMatchesUnpooled) {
  PoolModeGuard Guard;
  expectPooledIdentity([] {
    BigCkksParams P;
    P.LogN = 12;
    P.LogQ = 240;
    P.Seed = 92;
    P.Security = SecurityLevel::None;
    return BigCkksBackend(P);
  });
}

//===----------------------------------------------------------------------===//
// Steady state: a warm inference never misses the pool
//===----------------------------------------------------------------------===//

TEST(LimbPoolSteadyState, WarmLeNetInferenceHasZeroPoolMisses) {
  PoolModeGuard Guard;
  LimbPool &Pool = LimbPool::instance();
  Pool.setEnabled(true);
  setGlobalThreadCount(2);

  TensorCircuit Circ = makeLeNet5Small(/*Reduction=*/4);
  CompilerOptions O;
  O.Scheme = SchemeKind::RnsCkks;
  O.Scales = ScaleConfig::fromExponents(30, 30, 30, 16);
  CompiledCircuit C = compileCircuit(Circ, O);
  RnsCkksBackend Inner = makeRnsBackend(C);
  ProfilingBackend<RnsCkksBackend> Prof(Inner);
  Tensor3 Image = randomImageFor(Circ, 123);

  // Warm-up inference: populates every bucket the network ever needs.
  runEncryptedInference(Prof, Circ, Image, C.Scales, C.Policy);

  Prof.reset();
  Pool.resetStats();
  Tensor3 Got = runEncryptedInference(Prof, Circ, Image, C.Scales, C.Policy);
  Tensor3 Want = Circ.evaluatePlain(Image);
  EXPECT_LT(maxAbsDiff(Got, Want), 0.5);

  LimbPool::Stats S = Pool.stats();
  EXPECT_GT(S.Acquires, 0u) << "inference did not exercise the pool";
  EXPECT_EQ(S.Misses, 0u)
      << "steady-state inference allocated instead of reusing arenas";
  EXPECT_EQ(S.Hits, S.Acquires);
  // Per-op miss attribution agrees with the global counter. (Byte
  // attribution is approximate -- an op that calls other profiled ops
  // counts their allocations too -- so only its presence is asserted.)
  EXPECT_EQ(Prof.poolMisses(), 0u);
  uint64_t ReportedBytes = 0;
  for (const auto &St : Prof.stats())
    ReportedBytes += St.AllocBytes;
  EXPECT_GT(ReportedBytes, 0u);
  std::string Report = Prof.report();
  EXPECT_NE(Report.find("limb pool"), std::string::npos);
}

} // namespace
