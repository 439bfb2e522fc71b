//===- test_memory_governor.cpp - Budget, footprint, degradation ----------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the memory-governance stack:
///   - MemoryGovernor ledger invariants, watermark-triggered reclaim, and
///     race-free accounting at 1/2/8 threads (runs under the TSan CI job);
///   - EncodedPlaintextCache byte cap, LRU eviction order, and
///     governor-triggered eviction;
///   - the static footprint analysis upper-bounds the measured limb-pool
///     high-water on both CKKS schemes;
///   - bad_alloc containment: an allocation failure inside a session node
///     is retried after reclaim and the completed result is byte-identical
///     to the failure-free run;
///   - budget-aware server admission: impossible footprints are rejected
///     with ResourceExhausted, co-tenants serialize under a budget that
///     fits one at a time, pressure sheds newest-first, and a constrained
///     chaos soak still completes every request byte-identically.
///
//===----------------------------------------------------------------------===//

#include "support/MemoryGovernor.h"

#include "ckks/BigCkks.h"
#include "ckks/RnsCkks.h"
#include "ckks/Serialization.h"
#include "core/Compiler.h"
#include "core/Evaluate.h"
#include "core/FootprintAnalysis.h"
#include "hisa/Adapter.h"
#include "hisa/FaultInjectionBackend.h"
#include "hisa/IntegrityBackend.h"
#include "hisa/PlainBackend.h"
#include "hisa/ProfilingBackend.h"
#include "nn/Networks.h"
#include "server/Server.h"
#include "support/LimbPool.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <new>
#include <thread>
#include <vector>

using namespace chet;

namespace {

/// The governor is process-wide; every test that sets a budget restores
/// the unlimited default so test order cannot matter.
struct GovernorGuard {
  ~GovernorGuard() {
    MemoryGovernor::instance().setBudgetBytes(0);
    MemoryGovernor::instance().setSoftWatermark(0.85);
    MemoryGovernor::instance().resetStats();
  }
};

struct PoolGuard {
  ~PoolGuard() { setGlobalThreadCount(0); }
};

/// Same tiny conv -> act -> pool -> FC circuit the server tests use.
TensorCircuit smallCircuit(uint64_t Seed = 50) {
  Prng Rng(Seed);
  TensorCircuit Circ("governor-tiny");
  ConvWeights Conv(2, 1, 3, 3);
  for (double &V : Conv.W)
    V = Rng.nextDouble(-0.5, 0.5);
  FcWeights Fc(4, 2 * 4 * 4);
  for (double &V : Fc.W)
    V = Rng.nextDouble(-0.3, 0.3);
  int X = Circ.input(1, 8, 8);
  Circ.setLabel(X, "in");
  X = Circ.conv2d(X, Conv, 1, 1);
  Circ.setLabel(X, "conv1");
  X = Circ.polyActivation(X, 0.25, 0.5);
  Circ.setLabel(X, "act1");
  X = Circ.averagePool(X, 2, 2);
  Circ.setLabel(X, "pool1");
  X = Circ.fullyConnected(X, Fc);
  Circ.setLabel(X, "fc1");
  Circ.output(X);
  return Circ;
}

CompiledCircuit compileSmall(const TensorCircuit &Circ, SchemeKind Scheme) {
  CompilerOptions O;
  O.Scheme = Scheme;
  O.Security = SecurityLevel::Classical128;
  O.Scales = ScaleConfig::fromExponents(25, 25, 25, 12);
  return compileCircuit(Circ, O);
}

ScaleConfig plainScales() { return ScaleConfig::fromExponents(25, 25, 25, 12); }

template <typename To, typename From>
CipherTensor<To> retag(CipherTensor<From> T) {
  static_assert(std::is_same_v<typename To::Ct, typename From::Ct>);
  CipherTensor<To> Out;
  Out.L = T.L;
  Out.Cts = std::move(T.Cts);
  return Out;
}

SessionRetryPolicy fastRetry(int MaxAttempts) {
  SessionRetryPolicy R;
  R.MaxAttempts = MaxAttempts;
  R.BackoffBaseSeconds = 1e-6;
  R.BackoffMaxSeconds = 1e-5;
  return R;
}

//===----------------------------------------------------------------------===//
// Governor ledger
//===----------------------------------------------------------------------===//

TEST(MemoryGovernor, LedgerAccountingAndBudgetEnforcement) {
  GovernorGuard Guard;
  MemoryGovernor &G = MemoryGovernor::instance();
  G.setBudgetBytes(1000);
  G.resetStats();

  EXPECT_TRUE(G.wouldFit(1000));
  EXPECT_FALSE(G.wouldFit(1001));
  EXPECT_TRUE(G.tryReserve(400));
  EXPECT_TRUE(G.tryReserve(400));
  EXPECT_FALSE(G.tryReserve(400)) << "800 + 400 exceeds the budget";
  EXPECT_TRUE(G.wouldFit(200));
  EXPECT_FALSE(G.wouldFit(201));

  MemoryGovernorStats S = G.stats();
  EXPECT_EQ(S.BudgetBytes, 1000u);
  EXPECT_EQ(S.ReservedBytes, 800u);
  EXPECT_EQ(S.HighWaterBytes, 800u);
  EXPECT_EQ(S.Reservations, 2u);
  EXPECT_EQ(S.Failures, 1u);

  G.release(400);
  EXPECT_TRUE(G.tryReserve(600));
  S = G.stats();
  EXPECT_EQ(S.ReservedBytes, 1000u);
  EXPECT_EQ(S.HighWaterBytes, 1000u);
  G.release(600);
  G.release(400);
  EXPECT_EQ(G.stats().ReservedBytes, 0u);

  // Reserving zero bytes always succeeds and counts nothing.
  uint64_t Before = G.stats().Reservations;
  EXPECT_TRUE(G.tryReserve(0));
  EXPECT_EQ(G.stats().Reservations, Before);

  // A mismatched release clamps at zero instead of underflowing.
  G.release(1 << 30);
  EXPECT_EQ(G.stats().ReservedBytes, 0u);

  // Budget 0 = unlimited, but the ledger still measures the peak.
  G.setBudgetBytes(0);
  G.resetStats();
  EXPECT_TRUE(G.tryReserve(uint64_t(1) << 40));
  EXPECT_FALSE(G.underPressure());
  EXPECT_EQ(G.stats().HighWaterBytes, uint64_t(1) << 40);
  G.release(uint64_t(1) << 40);
}

TEST(MemoryGovernor, WatermarkCrossingRunsStagedReclaim) {
  GovernorGuard Guard;
  MemoryGovernor &G = MemoryGovernor::instance();
  G.setBudgetBytes(1000);
  G.setSoftWatermark(0.5);
  G.resetStats();

  std::atomic<int> CacheRuns{0}, CheckpointRuns{0};
  uint64_t H0 = G.addReclaimer(MemoryGovernor::StageCacheEvict, [&] {
    CacheRuns.fetch_add(1);
    return uint64_t(64);
  });
  uint64_t H2 = G.addReclaimer(MemoryGovernor::StageCheckpointShrink, [&] {
    CheckpointRuns.fetch_add(1);
    return uint64_t(0);
  });

  EXPECT_TRUE(G.tryReserve(400)); // below watermark: no reclaim
  EXPECT_FALSE(G.underPressure());
  EXPECT_EQ(CacheRuns.load(), 0);
  EXPECT_TRUE(G.tryReserve(200)); // crosses 50%: stages 0-1 run
  EXPECT_TRUE(G.underPressure());
  EXPECT_EQ(CacheRuns.load(), 1);
  EXPECT_EQ(CheckpointRuns.load(), 0)
      << "the automatic pass stops at the pool-trim stage";

  // Explicit full-ladder reclaim reaches the checkpoint stage too.
  G.reclaim();
  EXPECT_EQ(CacheRuns.load(), 2);
  EXPECT_EQ(CheckpointRuns.load(), 1);
  MemoryGovernorStats S = G.stats();
  EXPECT_GE(S.Reclaims, 2u);
  EXPECT_GE(S.ReclaimedBytes, 128u);

  G.removeReclaimer(H0);
  G.removeReclaimer(H2);
  G.release(600);
  G.reclaim();
  EXPECT_EQ(CacheRuns.load(), 2) << "removed reclaimers never run again";
}

TEST(MemoryGovernor, ConcurrentReserveReleaseNeverOvercommits) {
  GovernorGuard Guard;
  MemoryGovernor &G = MemoryGovernor::instance();
  constexpr uint64_t Budget = 10000;
  constexpr uint64_t Chunk = 1000;
  G.setBudgetBytes(Budget);

  for (unsigned Threads : {1u, 2u, 8u}) {
    G.resetStats();
    std::vector<std::thread> Workers;
    std::atomic<uint64_t> Granted{0};
    for (unsigned T = 0; T < Threads; ++T)
      Workers.emplace_back([&] {
        for (int I = 0; I < 2000; ++I) {
          if (G.tryReserve(Chunk)) {
            Granted.fetch_add(1, std::memory_order_relaxed);
            EXPECT_LE(G.stats().ReservedBytes, Budget);
            G.release(Chunk);
          }
        }
      });
    for (std::thread &W : Workers)
      W.join();
    MemoryGovernorStats S = G.stats();
    EXPECT_EQ(S.ReservedBytes, 0u) << "threads=" << Threads;
    EXPECT_EQ(S.Reservations, Granted.load()) << "threads=" << Threads;
    EXPECT_LE(S.HighWaterBytes, Budget) << "threads=" << Threads;
    EXPECT_GE(S.HighWaterBytes, Chunk) << "threads=" << Threads;
  }
}

//===----------------------------------------------------------------------===//
// Bounded plaintext cache
//===----------------------------------------------------------------------===//

TEST(PlaintextCacheBudget, ByteCapEvictsLeastRecentlyUsed) {
  PlainBackend Plain(6);
  EncodedPlaintextCache<PlainBackend> Cache;
  std::vector<double> Vals(Plain.slotCount(), 1.0);
  auto KeyFor = [](uint64_t Id) {
    EncodedPlaintextCache<PlainBackend>::Key K;
    K.TensorId = Id;
    K.Sub = kSubWeight;
    K.Scale = 1 << 12;
    return K;
  };
  auto Build = [&] { return Plain.encode(Vals, 1 << 12); };

  auto P0 = Cache.get(KeyFor(0), Build);
  uint64_t PerEntry = Cache.bytes();
  ASSERT_GT(PerEntry, 0u);

  // Cap at three entries, fill four; the oldest untouched entry goes.
  Cache.setCapacityBytes(3 * PerEntry);
  Cache.get(KeyFor(1), Build);
  Cache.get(KeyFor(2), Build);
  Cache.get(KeyFor(0), Build); // touch 0: entry 1 is now the LRU
  Cache.get(KeyFor(3), Build);
  EXPECT_EQ(Cache.size(), 3u);
  EXPECT_LE(Cache.bytes(), 3 * PerEntry);
  EXPECT_EQ(Cache.evictions(), 1u);

  uint64_t MissesBefore = Cache.misses();
  Cache.get(KeyFor(0), Build); // survived (recently touched)
  Cache.get(KeyFor(3), Build); // survived (newest)
  EXPECT_EQ(Cache.misses(), MissesBefore);
  Cache.get(KeyFor(1), Build); // evicted: re-encodes
  EXPECT_EQ(Cache.misses(), MissesBefore + 1);
  EXPECT_GE(Cache.hits(), 3u);

  // evictToBytes(0) empties the cache entirely.
  uint64_t Freed = Cache.evictToBytes(0);
  EXPECT_GT(Freed, 0u);
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_EQ(Cache.bytes(), 0u);
}

TEST(PlaintextCacheBudget, GovernorPressureEvictsHalfTheCache) {
  GovernorGuard Guard;
  PlainBackend Plain(6);
  EncodedPlaintextCache<PlainBackend> Cache;
  std::vector<double> Vals(Plain.slotCount(), 2.0);
  for (uint64_t I = 0; I < 8; ++I) {
    EncodedPlaintextCache<PlainBackend>::Key K;
    K.TensorId = I;
    K.Sub = kSubBias;
    Cache.get(K, [&] { return Plain.encode(Vals, 1 << 12); });
  }
  ASSERT_EQ(Cache.size(), 8u);
  uint64_t Before = Cache.bytes();

  // The cache registered itself as a stage-0 reclaimer at construction.
  uint64_t Freed = MemoryGovernor::instance().reclaim(
      MemoryGovernor::StageCacheEvict);
  EXPECT_GE(Freed, Before / 2 - 1);
  EXPECT_LE(Cache.bytes(), Before / 2);
  EXPECT_LE(Cache.size(), 4u);
}

//===----------------------------------------------------------------------===//
// Static footprint prediction vs. measured reality
//===----------------------------------------------------------------------===//

template <typename Backend>
void expectFootprintBounds(const TensorCircuit &Circ,
                           const CompiledCircuit &C, Backend &Bk,
                           const char *What) {
  ASSERT_TRUE(C.Footprint.Analyzed) << What;
  ASSERT_GT(C.Footprint.PeakBytes, 0u) << What;
  EXPECT_GT(C.Footprint.InputBytes, 0u) << What;
  EXPECT_GE(C.Footprint.PeakBytes,
            C.Footprint.InputBytes + C.Footprint.OutputBytes)
      << What << ": the peak must cover at least the I/O frontier";

  TensorLayout L = circuitInputLayout(Circ, C.Policy, Bk.slotCount());
  Tensor3 Image = randomImageFor(Circ, 77);
  auto Enc = encryptTensor(Bk, Image, L, C.Scales);
  LimbPool::instance().resetStats(); // keygen scratch is not request state
  auto Out = evaluateCircuit(Bk, Circ, Enc, C.Scales, C.Policy);
  ASSERT_FALSE(Out.Cts.empty()) << What;
  uint64_t Measured = LimbPool::instance().stats().HighWaterBytes;
  EXPECT_GE(C.Footprint.PeakBytes, Measured)
      << What << ": static prediction must upper-bound the measured "
      << "limb-pool high-water";
}

TEST(FootprintAnalysis, PredictionUpperBoundsMeasuredPoolHighWaterRns) {
  PoolGuard Guard;
  TensorCircuit Circ = smallCircuit();
  CompiledCircuit C = compileSmall(Circ, SchemeKind::RnsCkks);
  RnsCkksBackend Bk = makeRnsBackend(C, 991);
  expectFootprintBounds(Circ, C, Bk, "rns");
}

TEST(FootprintAnalysis, PredictionUpperBoundsMeasuredPoolHighWaterBig) {
  PoolGuard Guard;
  TensorCircuit Circ = smallCircuit();
  CompiledCircuit C = compileSmall(Circ, SchemeKind::BigCkks);
  BigCkksBackend Bk = makeBigBackend(C, 991);
  expectFootprintBounds(Circ, C, Bk, "big");
}

TEST(FootprintAnalysis, ReportIsDeterministicAndNamesHotspots) {
  TensorCircuit Circ = smallCircuit();
  CompiledCircuit C = compileSmall(Circ, SchemeKind::RnsCkks);
  FootprintReport A = analyzeFootprint(Circ, C);
  FootprintReport B = analyzeFootprint(Circ, C);
  EXPECT_EQ(A.PeakBytes, B.PeakBytes);
  EXPECT_EQ(A.PeakNodeId, B.PeakNodeId);
  EXPECT_EQ(A.PerNode.size(), B.PerNode.size());
  EXPECT_FALSE(A.PeakLabel.empty());
  EXPECT_FALSE(A.hotspots().empty());
  EXPECT_NE(A.str().find("static footprint analysis"), std::string::npos);
  // The compiler records the same summary on the artifact.
  EXPECT_EQ(C.Footprint.PeakBytes, A.PeakBytes);
}

//===----------------------------------------------------------------------===//
// bad_alloc containment in the session layer
//===----------------------------------------------------------------------===//

/// HISA adapter that throws std::bad_alloc at scheduled homomorphic-op
/// ordinals (each fires once), modeling a failed allocation inside a
/// kernel. Everything else forwards to the wrapped backend.
template <typename B>
class BadAllocBackend : public HisaAdapter<BadAllocBackend<B>, B> {
  using Base = HisaAdapter<BadAllocBackend<B>, B>;
  friend Base;

public:
  BadAllocBackend(B &InnerIn, std::vector<long> FailAtOps)
      : Base(InnerIn), FailAt(std::move(FailAtOps)) {}

  long opsSeen() const { return Ops; }
  long delivered() const { return Delivered; }

private:
  template <HisaOp Op, typename F, typename... Args>
  decltype(auto) onOp(F &&Forward, Args &...) {
    if constexpr (isHomomorphicOp(Op)) {
      long Ordinal = Ops++;
      for (long &Fail : FailAt)
        if (Fail == Ordinal) {
          Fail = -1; // fires once
          ++Delivered;
          throw std::bad_alloc();
        }
    }
    return Forward();
  }

  std::vector<long> FailAt;
  long Ops = 0;
  long Delivered = 0;
};

// Like the fault injector, the adapter keeps sequential kernel order.
template <typename B>
constexpr bool BadAllocMirrors =
    HisaAdapterOf<BadAllocBackend<B>, B> &&
    BackendHasVerifyCt<BadAllocBackend<B>> == BackendHasVerifyCt<B> &&
    !BackendSupportsParallelKernels<BadAllocBackend<B>>;
static_assert(BadAllocMirrors<PlainBackend>);
static_assert(BadAllocMirrors<RnsCkksBackend>);
static_assert(BadAllocMirrors<BigCkksBackend>);

TEST(BadAllocContainment, ForwardsThePlainOpSequence) {
  // With no failure scheduled, the adapter issues the instructions of the
  // plain run: the fault injector's op ordinals, and the hoisted
  // rotLeftMany batches rather than Hisa.h's rotLeft loop.
  TensorCircuit Circ = smallCircuit();
  ScaleConfig Scales = plainScales();
  PlainBackend Plain(10);
  TensorLayout L =
      circuitInputLayout(Circ, LayoutPolicy::AllHW, Plain.slotCount());
  Tensor3 Image = randomImageFor(Circ, 9);
  auto Run = [&](auto &Backend) {
    evaluateCircuit(Backend, Circ, encryptTensor(Backend, Image, L, Scales),
                    Scales, LayoutPolicy::AllHW);
  };
  auto RotLeftManyCalls = [](const ProfilingBackend<PlainBackend> &Prof) {
    for (const auto &Row : Prof.stats())
      if (Row.Name == "rotLeftMany")
        return Row.Count;
    return uint64_t(0);
  };

  ProfilingBackend<PlainBackend> Ref(Plain);
  Run(Ref);
  FaultInjectionBackend<PlainBackend> Faulty(Plain, FaultPlan{});
  Run(Faulty);
  ProfilingBackend<PlainBackend> Prof(Plain);
  BadAllocBackend<ProfilingBackend<PlainBackend>> Flaky(Prof, {});
  Run(Flaky);

  EXPECT_EQ(Flaky.opsSeen(), Faulty.stats().OpsSeen);
  ASSERT_GT(RotLeftManyCalls(Ref), 0u);
  EXPECT_EQ(RotLeftManyCalls(Prof), RotLeftManyCalls(Ref));
}

TEST(BadAllocContainment, SessionRetriesAfterReclaimByteIdentically) {
  GovernorGuard Guard;
  TensorCircuit Circ = smallCircuit();
  ScaleConfig Scales = plainScales();

  // Failure-free reference.
  PlainBackend RefPlain(10);
  TensorLayout L =
      circuitInputLayout(Circ, LayoutPolicy::AllHW, RefPlain.slotCount());
  Tensor3 Image = randomImageFor(Circ, 9);
  auto RefEnc = encryptTensor(RefPlain, Image, L, Scales);
  auto RefOut =
      evaluateCircuit(RefPlain, Circ, RefEnc, Scales, LayoutPolicy::AllHW);

  // Same run with allocation failures at two op ordinals. The session's
  // bad_alloc handler reclaims and retries the node in place.
  PlainBackend Plain(10);
  BadAllocBackend<PlainBackend> Flaky(Plain, {3, 40});
  SessionConfig SC;
  SC.Retry = fastRetry(3);
  InferenceSession<BadAllocBackend<PlainBackend>> Session(Flaky, Circ, SC);
  auto Enc = retag<BadAllocBackend<PlainBackend>>(
      encryptTensor(Plain, Image, L, Scales));
  CipherTensor<BadAllocBackend<PlainBackend>> Out =
      Session.run(Enc, Scales, LayoutPolicy::AllHW);

  EXPECT_EQ(Flaky.delivered(), 2);
  EXPECT_GE(Session.report().NodeRetries, 2);
  ASSERT_EQ(Out.Cts.size(), RefOut.Cts.size());
  for (size_t I = 0; I < Out.Cts.size(); ++I)
    EXPECT_EQ(Out.Cts[I].Values, RefOut.Cts[I].Values)
        << "ciphertext " << I << " diverged after bad_alloc retry";
  // Each contained failure ran the reclaim ladder.
  EXPECT_GE(MemoryGovernor::instance().stats().Reclaims, 2u);
}

TEST(BadAllocContainment, ExhaustedRetriesSurfaceResourceExhausted) {
  GovernorGuard Guard;
  TensorCircuit Circ = smallCircuit();
  ScaleConfig Scales = plainScales();
  PlainBackend Plain(10);
  // Fail every attempt of the first faulting node: ordinals far enough
  // apart that retries of one node keep hitting fresh scheduled faults.
  std::vector<long> Fails;
  for (long I = 3; I < 200; ++I)
    Fails.push_back(I);
  BadAllocBackend<PlainBackend> Flaky(Plain, Fails);
  SessionConfig SC;
  SC.Retry = fastRetry(2);
  InferenceSession<BadAllocBackend<PlainBackend>> Session(Flaky, Circ, SC);
  TensorLayout L =
      circuitInputLayout(Circ, LayoutPolicy::AllHW, Plain.slotCount());
  auto Enc = retag<BadAllocBackend<PlainBackend>>(
      encryptTensor(Plain, randomImageFor(Circ, 9), L, Scales));
  try {
    Session.run(Enc, Scales, LayoutPolicy::AllHW);
    FAIL() << "expected ResourceExhaustedError";
  } catch (const ChetError &E) {
    EXPECT_EQ(E.code(), ErrorCode::ResourceExhausted);
    EXPECT_TRUE(E.isTransient()) << "resubmission is expected to succeed";
    EXPECT_NE(std::string(E.what()).find("allocation failure"),
              std::string::npos);
  }
}

//===----------------------------------------------------------------------===//
// Budget-aware server admission
//===----------------------------------------------------------------------===//

TEST(ServerMemory, ImpossibleFootprintIsRejectedTyped) {
  GovernorGuard Guard;
  TensorCircuit Circ = smallCircuit();
  PlainBackend Plain(10);
  TensorLayout L =
      circuitInputLayout(Circ, LayoutPolicy::AllHW, Plain.slotCount());
  Tensor3 Image = randomImageFor(Circ, 11);

  ServerConfig Cfg;
  Cfg.Lanes = 1;
  Cfg.MemoryBudgetBytes = 1 << 20;
  InferenceServer<PlainBackend> Server(Cfg);
  TenantOptions Big;
  Big.Scales = plainScales();
  Big.PredictedPeakBytes = 2 << 20; // can never fit the 1 MB budget
  TenantOptions Small;
  Small.Scales = plainScales();
  Small.PredictedPeakBytes = 512 << 10;
  PlainBackend Plain2(10);
  Server.registerTenant("giant", Plain, Circ, Big);
  Server.registerTenant("modest", Plain2, Circ, Small);

  RequestTicket Rejected =
      Server.submit("giant", encryptTensor(Plain, Image, L, plainScales()));
  const ServerResponse &R = Rejected.wait();
  EXPECT_EQ(R.Status, RequestStatus::Rejected);
  EXPECT_EQ(R.Code, ErrorCode::ResourceExhausted);
  EXPECT_EQ(R.Class, FaultClass::Transient);

  RequestTicket Ok =
      Server.submit("modest", encryptTensor(Plain2, Image, L, plainScales()));
  EXPECT_EQ(Ok.wait().Status, RequestStatus::Completed);

  ServerReport Rep = Server.shutdown();
  for (const TenantReport &T : Rep.Tenants) {
    if (T.Tenant == "giant") {
      EXPECT_EQ(T.RejectedMemory, 1u);
      EXPECT_EQ(T.rejected(), 1u);
      EXPECT_EQ(T.PeakReservedBytes, 0u);
    } else {
      EXPECT_EQ(T.RejectedMemory, 0u);
      EXPECT_EQ(T.Completed, 1u);
      EXPECT_EQ(T.PeakReservedBytes, uint64_t(512 << 10));
    }
  }
  EXPECT_EQ(Rep.Governor.BudgetBytes, uint64_t(1 << 20));
  EXPECT_LE(Rep.Governor.HighWaterBytes, Rep.Governor.BudgetBytes);
  EXPECT_NE(Rep.str().find("memory governor"), std::string::npos);
}

TEST(ServerMemory, CoTenantsSerializeUnderTightBudgetAndAllComplete) {
  GovernorGuard Guard;
  TensorCircuit Circ = smallCircuit();
  constexpr uint64_t Pred = 600 << 10;

  ServerConfig Cfg;
  Cfg.Lanes = 2;
  // Both tenants fit alone; together they would overcommit. Dispatch
  // must serialize them and still complete everything.
  Cfg.MemoryBudgetBytes = 1 << 20;
  InferenceServer<PlainBackend> Server(Cfg);
  PlainBackend A(10), Bk(10);
  TenantOptions TO;
  TO.Scales = plainScales();
  TO.PredictedPeakBytes = Pred;
  Server.registerTenant("a", A, Circ, TO);
  Server.registerTenant("b", Bk, Circ, TO);
  TensorLayout L =
      circuitInputLayout(Circ, LayoutPolicy::AllHW, A.slotCount());
  Tensor3 Image = randomImageFor(Circ, 12);

  Server.pause();
  std::vector<RequestTicket> Tickets;
  for (int I = 0; I < 4; ++I) {
    Tickets.push_back(
        Server.submit("a", encryptTensor(A, Image, L, plainScales())));
    Tickets.push_back(
        Server.submit("b", encryptTensor(Bk, Image, L, plainScales())));
  }
  Server.resume();
  for (RequestTicket &T : Tickets)
    EXPECT_EQ(T.wait().Status, RequestStatus::Completed);

  ServerReport Rep = Server.shutdown();
  EXPECT_EQ(Rep.Completed, 8u);
  EXPECT_EQ(Rep.Failed, 0u);
  EXPECT_LE(Rep.Governor.HighWaterBytes, Rep.Governor.BudgetBytes)
      << "reservations must never overcommit the budget";
  EXPECT_EQ(Rep.Governor.HighWaterBytes, Pred)
      << "only one tenant's footprint may be reserved at a time";
  EXPECT_EQ(Rep.Governor.ReservedBytes, 0u)
      << "every reservation was released";
}

TEST(ServerMemory, PressureShedsNewestWithResourceExhausted) {
  GovernorGuard Guard;
  MemoryGovernor &G = MemoryGovernor::instance();
  TensorCircuit Circ = smallCircuit();

  ServerConfig Cfg;
  Cfg.Lanes = 1;
  Cfg.QueueHighWater = 4; // pressure shed starts at depth 2
  Cfg.MemoryBudgetBytes = 1 << 20;
  InferenceServer<PlainBackend> Server(Cfg);
  PlainBackend Plain(10);
  TenantOptions TO;
  TO.Scales = plainScales();
  Server.registerTenant("alice", Plain, Circ, TO);
  TensorLayout L =
      circuitInputLayout(Circ, LayoutPolicy::AllHW, Plain.slotCount());
  Tensor3 Image = randomImageFor(Circ, 13);

  // An external reservation pushes the governor over its watermark.
  ASSERT_TRUE(G.tryReserve(900 << 10));
  ASSERT_TRUE(G.underPressure());

  Server.pause();
  std::vector<RequestTicket> Tickets;
  for (int I = 0; I < 4; ++I)
    Tickets.push_back(
        Server.submit("alice", encryptTensor(Plain, Image, L, plainScales())));
  // Depth 0 and 1 were admitted; depth >= 2 under pressure is shed.
  G.release(900 << 10);
  Server.resume();

  int Completed = 0, Shed = 0;
  for (RequestTicket &T : Tickets) {
    const ServerResponse &R = T.wait();
    if (R.Status == RequestStatus::Completed) {
      ++Completed;
    } else {
      EXPECT_EQ(R.Status, RequestStatus::Rejected);
      EXPECT_EQ(R.Code, ErrorCode::ResourceExhausted);
      ++Shed;
    }
  }
  EXPECT_EQ(Completed, 2);
  EXPECT_EQ(Shed, 2);
  ServerReport Rep = Server.shutdown();
  ASSERT_EQ(Rep.Tenants.size(), 1u);
  EXPECT_EQ(Rep.Tenants[0].RejectedMemory, 2u);
}

//===----------------------------------------------------------------------===//
// Constrained chaos soak: budget + faults, still byte-identical
//===----------------------------------------------------------------------===//

using RnsInteg = IntegrityBackend<RnsCkksBackend>;
using RnsChaos = FaultInjectionBackend<RnsInteg>;

TEST(ServerMemory, ConstrainedChaosSoakStaysByteIdentical) {
  GovernorGuard Guard;
  PoolGuard Pool;
  TensorCircuit Circ = smallCircuit();
  CompiledCircuit C = compileSmall(Circ, SchemeKind::RnsCkks);
  ASSERT_TRUE(C.Footprint.Analyzed);
  const uint64_t Pred = C.Footprint.PeakBytes;

  std::vector<Tensor3> Images;
  for (uint64_t S = 0; S < 3; ++S)
    Images.push_back(randomImageFor(Circ, 300 + S));

  // Fault-free reference bytes through the same integrity stack.
  std::vector<std::vector<ByteBuffer>> Refs;
  {
    RnsCkksBackend Raw = makeRnsBackend(C, 991);
    RnsInteg Integ(Raw);
    TensorLayout L = circuitInputLayout(Circ, C.Policy, Integ.slotCount());
    for (const Tensor3 &Image : Images) {
      auto Enc = encryptTensor(Integ, Image, L, C.Scales);
      auto Res = evaluateCircuit(Integ, Circ, Enc, C.Scales, C.Policy);
      std::vector<ByteBuffer> Bytes;
      for (const auto &Ct : Res.Cts)
        Bytes.push_back(serialize(Ct));
      Refs.push_back(std::move(Bytes));
    }
  }

  // Two chaos tenants under a budget that admits one footprint at a
  // time: requests serialize, faults retry, and every completed
  // response still matches the fault-free bytes exactly.
  FaultPlan Plan;
  Plan.Seed = 0x90f;
  Plan.TransientRate = 0.01;
  Plan.MaxTransientFaults = 3;

  ServerConfig Cfg;
  Cfg.Lanes = 2;
  Cfg.Retry = fastRetry(4);
  Cfg.MemoryBudgetBytes = Pred + Pred / 2; // < 2x: one request at a time
  InferenceServer<RnsChaos> Server(Cfg);

  std::vector<std::unique_ptr<RnsCkksBackend>> Raws;
  std::vector<std::unique_ptr<RnsInteg>> Integs;
  std::vector<std::unique_ptr<RnsChaos>> Chaoses;
  TensorLayout L;
  for (const char *Id : {"t0", "t1"}) {
    Raws.push_back(
        std::make_unique<RnsCkksBackend>(makeRnsBackend(C, 991)));
    Integs.push_back(std::make_unique<RnsInteg>(*Raws.back()));
    Chaoses.push_back(std::make_unique<RnsChaos>(*Integs.back(), Plan));
    Chaoses.back()->setFaultScope(std::string("tenant:") + Id);
    TenantOptions TO;
    TO.Scales = C.Scales;
    TO.Policy = C.Policy;
    TO.PredictedPeakBytes = Pred;
    Server.registerTenant(Id, *Chaoses.back(), Circ, TO);
    L = circuitInputLayout(Circ, C.Policy, Chaoses.back()->slotCount());
  }

  std::vector<std::pair<size_t, RequestTicket>> Tickets;
  for (size_t R = 0; R < Images.size(); ++R)
    for (size_t TI = 0; TI < 2; ++TI) {
      auto Enc = retag<RnsChaos>(
          encryptTensor(*Integs[TI], Images[R], L, C.Scales));
      Tickets.emplace_back(
          TI, Server.submit(TI == 0 ? "t0" : "t1", std::move(Enc)));
    }

  std::vector<size_t> Seen(2, 0);
  for (auto &[TI, Ticket] : Tickets) {
    const ServerResponse &R = Ticket.wait();
    ASSERT_EQ(R.Status, RequestStatus::Completed)
        << "tenant=" << TI << ": " << R.Message;
    const std::vector<ByteBuffer> &Want = Refs[Seen[TI]];
    ASSERT_EQ(Want.size(), R.Output.size());
    for (size_t I = 0; I < Want.size(); ++I)
      EXPECT_EQ(Want[I], R.Output[I])
          << "tenant=" << TI << " request=" << Seen[TI]
          << " ciphertext=" << I << " diverged under budget+chaos";
    ++Seen[TI];
  }

  ServerReport Rep = Server.shutdown();
  EXPECT_EQ(Rep.Completed, 6u);
  EXPECT_EQ(Rep.Failed, 0u);
  EXPECT_LE(Rep.Governor.HighWaterBytes, Rep.Governor.BudgetBytes);
  EXPECT_EQ(Rep.Governor.HighWaterBytes, Pred)
      << "the budget admits exactly one predicted footprint at a time";
  EXPECT_GT(Chaoses[0]->stats().TransientFaults +
                Chaoses[1]->stats().TransientFaults,
            0)
      << "the chaos plan must actually have fired";
}

} // namespace
