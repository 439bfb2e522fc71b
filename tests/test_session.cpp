//===- test_session.cpp - Chaos-soak tests for InferenceSession ------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Chaos-soak harness for the checkpointed, deadline-aware inference
/// session (runtime/Session.h). The central property under test: for any
/// seeded fault schedule -- transient op failures, bit flips, simulated
/// process crashes -- a checkpointed session's final ciphertexts are
/// *byte-identical* (serialized compare) to the fault-free run, on both
/// CKKS schemes, at 1/2/8 threads, while replaying only the circuit
/// suffix after a crash. Plus: checkpoint codec/store hardening, policy
/// accounting, deadline determinism, and fault provenance.
///
//===----------------------------------------------------------------------===//

#include "runtime/Session.h"

#include "ckks/BigCkks.h"
#include "ckks/RnsCkks.h"
#include "ckks/Serialization.h"
#include "core/Compiler.h"
#include "hisa/FaultInjectionBackend.h"
#include "hisa/IntegrityBackend.h"
#include "hisa/PlainBackend.h"
#include "hisa/ProfilingBackend.h"
#include "nn/Networks.h"
#include "runtime/ReferenceOps.h"
#include "support/Prng.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <type_traits>
#include <unistd.h>

using namespace chet;

// Every backend the session checkpoints must round-trip its ciphertexts
// through the ADL serialization pair.
static_assert(SessionCheckpointable<RnsCkksBackend>);
static_assert(SessionCheckpointable<BigCkksBackend>);
static_assert(SessionCheckpointable<PlainBackend>);
static_assert(SessionCheckpointable<IntegrityBackend<RnsCkksBackend>>);
static_assert(
    SessionCheckpointable<FaultInjectionBackend<IntegrityBackend<RnsCkksBackend>>>);

// Each diagnostic adapter, over each scheme and over each layer of the
// profiled chaos stack, forwards the optional instructions of the backend
// it wraps and keeps its own parallel-kernel choice.
template <typename B> constexpr bool adaptersMirror() {
  using Prof = ProfilingBackend<B>;
  using Integ = IntegrityBackend<B>;
  using Chaos = FaultInjectionBackend<B>;
  static_assert(HisaAdapterOf<Prof, B> && HisaAdapterOf<Integ, B> &&
                HisaAdapterOf<Chaos, B>);
  static_assert(BackendHasVerifyCt<Prof> == BackendHasVerifyCt<B> &&
                BackendHasVerifyCt<Integ> &&
                BackendHasVerifyCt<Chaos> == BackendHasVerifyCt<B>);
  static_assert(BackendSupportsParallelKernels<Prof> ==
                    BackendSupportsParallelKernels<B> &&
                !BackendSupportsParallelKernels<Integ> &&
                !BackendSupportsParallelKernels<Chaos>);
  return true;
}
static_assert(adaptersMirror<PlainBackend>());
static_assert(adaptersMirror<RnsCkksBackend>());
static_assert(adaptersMirror<BigCkksBackend>());
static_assert(adaptersMirror<ProfilingBackend<RnsCkksBackend>>());
static_assert(
    adaptersMirror<IntegrityBackend<ProfilingBackend<RnsCkksBackend>>>());
static_assert(adaptersMirror<FaultInjectionBackend<
                  IntegrityBackend<ProfilingBackend<RnsCkksBackend>>>>());

namespace {

struct PoolGuard {
  ~PoolGuard() { setGlobalThreadCount(0); }
};

/// Small conv -> act -> pool -> FC circuit (the same shape
/// test_compiler.cpp uses) with layer labels, fast under real encryption.
TensorCircuit smallCircuit(uint64_t Seed = 50) {
  Prng Rng(Seed);
  TensorCircuit Circ("session-tiny");
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

/// Re-tags a tensor encrypted through an inner backend for use with a
/// wrapper stack sharing the same ciphertext type (models input that
/// arrived over an integrity-protected wire: the fault layer never
/// touches it).
template <typename To, typename From>
CipherTensor<To> retag(CipherTensor<From> T) {
  static_assert(std::is_same_v<typename To::Ct, typename From::Ct>);
  CipherTensor<To> Out;
  Out.L = T.L;
  Out.Cts = std::move(T.Cts);
  return Out;
}

template <typename CtVec> std::vector<ByteBuffer> serializeAll(const CtVec &Cts) {
  std::vector<ByteBuffer> Bytes;
  for (const auto &Ct : Cts)
    Bytes.push_back(serialize(Ct));
  return Bytes;
}

using RnsInteg = IntegrityBackend<RnsCkksBackend>;
using RnsChaos = FaultInjectionBackend<RnsInteg>;
using BigInteg = IntegrityBackend<BigCkksBackend>;
using BigChaos = FaultInjectionBackend<BigInteg>;

constexpr uint64_t BackendSeed = 991;

/// Fault-free reference bytes: fresh seeded backend, integrity layer (so
/// the op sequence matches the chaos stack exactly), plain
/// evaluateCircuit.
std::vector<ByteBuffer> rnsReference(const TensorCircuit &Circ,
                                     const CompiledCircuit &C,
                                     const Tensor3 &Image) {
  RnsCkksBackend Raw = makeRnsBackend(C, BackendSeed);
  RnsInteg Integ(Raw);
  TensorLayout L = circuitInputLayout(Circ, C.Policy, Integ.slotCount());
  auto Enc = encryptTensor(Integ, Image, L, C.Scales);
  auto Out = evaluateCircuit(Integ, Circ, Enc, C.Scales, C.Policy);
  return serializeAll(Out.Cts);
}

struct ChaosOutcome {
  std::vector<ByteBuffer> Bytes;
  SessionReport Rep;
  FaultStats Faults;
};

/// One chaos-soak session run. The input is encrypted through the
/// integrity layer only -- it models data that arrived over an
/// integrity-protected wire; the fault plan applies to server-side
/// compute.
ChaosOutcome rnsChaosRun(const TensorCircuit &Circ, const CompiledCircuit &C,
                         const Tensor3 &Image, const FaultPlan &Plan,
                         SessionConfig Cfg, unsigned Threads) {
  setGlobalThreadCount(Threads);
  RnsCkksBackend Raw = makeRnsBackend(C, BackendSeed);
  RnsInteg Integ(Raw);
  RnsChaos Chaos(Integ, Plan);
  TensorLayout L = circuitInputLayout(Circ, C.Policy, Chaos.slotCount());
  auto Enc = retag<RnsChaos>(encryptTensor(Integ, Image, L, C.Scales));
  InferenceSession<RnsChaos> Sess(Chaos, Circ, Cfg);
  auto Out = Sess.run(Enc, C.Scales, C.Policy);
  return {serializeAll(Out.Cts), Sess.report(), Chaos.stats()};
}

/// Homomorphic-op ordinal at the end of every node of the clean chaos
/// stack's schedule (the ordinal domain of FaultPlan::CrashAtOps): node
/// K's evaluation issues ordinals [Ends[K-1], Ends[K]).
std::vector<long> rnsOpsAtNodeEnds(const TensorCircuit &Circ,
                                   const CompiledCircuit &C,
                                   const Tensor3 &Image) {
  setGlobalThreadCount(1);
  RnsCkksBackend Raw = makeRnsBackend(C, BackendSeed);
  RnsInteg Integ(Raw);
  RnsChaos Chaos(Integ, FaultPlan{});
  TensorLayout L = circuitInputLayout(Circ, C.Policy, Chaos.slotCount());
  auto Enc = retag<RnsChaos>(encryptTensor(Integ, Image, L, C.Scales));
  std::vector<bool> NeedsMask = detail::computeMaskNeeds(Circ, C.Policy);
  std::vector<std::optional<CipherTensor<RnsChaos>>> Vals(Circ.ops().size());
  std::vector<long> Ends;
  for (const OpNode &Node : Circ.ops()) {
    if (Node.Kind != OpKind::Output)
      detail::evaluateNode(Chaos, Node, Vals, NeedsMask, Enc, C.Scales,
                           C.Policy);
    Ends.push_back(Chaos.stats().OpsSeen);
  }
  return Ends;
}

void expectSameBytes(const std::vector<ByteBuffer> &Want,
                     const std::vector<ByteBuffer> &Got, const char *What) {
  ASSERT_EQ(Want.size(), Got.size()) << What;
  for (size_t I = 0; I < Want.size(); ++I)
    EXPECT_EQ(Want[I], Got[I]) << What << ": ciphertext " << I << " differs";
}

//===----------------------------------------------------------------------===//
// Zero-behavior-change and chaos byte-identity (RNS-CKKS)
//===----------------------------------------------------------------------===//

TEST(Session, FaultFreeRunMatchesEvaluateCircuitAtAllThreadCounts) {
  PoolGuard Guard;
  TensorCircuit Circ = smallCircuit();
  CompiledCircuit C = compileSmall(Circ, SchemeKind::RnsCkks);
  Tensor3 Image = randomImageFor(Circ, 41);
  std::vector<ByteBuffer> Ref = rnsReference(Circ, C, Image);

  MemoryCheckpointStore Store;
  for (unsigned Threads : {1u, 2u, 8u}) {
    // No checkpointing, no deadline: the session must be a transparent
    // wrapper around evaluateCircuit.
    ChaosOutcome Plainly =
        rnsChaosRun(Circ, C, Image, FaultPlan{}, SessionConfig{}, Threads);
    expectSameBytes(Ref, Plainly.Bytes, "transparent session");
    EXPECT_TRUE(Plainly.Rep.Succeeded);
    EXPECT_EQ(Plainly.Rep.Restarts, 0);
    EXPECT_EQ(Plainly.Rep.CheckpointsTaken, 0);
    EXPECT_EQ(Plainly.Rep.NodesExecuted,
              static_cast<int>(Circ.ops().size()) - 1);

    // Checkpointing on, still fault-free: identical bytes, checkpoints
    // taken but never restored.
    Store.clear();
    SessionConfig Cfg;
    Cfg.Checkpoint = CheckpointPolicy::everyNode();
    Cfg.Store = &Store;
    Cfg.IntegrityCheckEveryNodes = 1;
    ChaosOutcome Ckpt = rnsChaosRun(Circ, C, Image, FaultPlan{}, Cfg, Threads);
    expectSameBytes(Ref, Ckpt.Bytes, "checkpointed fault-free session");
    EXPECT_GT(Ckpt.Rep.CheckpointsTaken, 0);
    EXPECT_EQ(Ckpt.Rep.CheckpointsRestored, 0);
    EXPECT_GT(Ckpt.Rep.CheckpointBytes, 0u);
    EXPECT_GT(Store.bytesStored(), 0u);
  }
}

TEST(Session, SeededChaosScheduleRecoversByteIdenticalAcrossThreads) {
  PoolGuard Guard;
  TensorCircuit Circ = smallCircuit();
  CompiledCircuit C = compileSmall(Circ, SchemeKind::RnsCkks);
  Tensor3 Image = randomImageFor(Circ, 42);
  std::vector<ByteBuffer> Ref = rnsReference(Circ, C, Image);

  // Probe the clean run's homomorphic op count, and where each node's ops
  // end, so the crash schedule can target the back half of the circuit.
  long TotalOps =
      rnsChaosRun(Circ, C, Image, FaultPlan{}, SessionConfig{}, 1)
          .Faults.OpsSeen;
  ASSERT_GT(TotalOps, 10);
  std::vector<long> Ends = rnsOpsAtNodeEnds(Circ, C, Image);
  ASSERT_EQ(Ends.back(), TotalOps);

  // The newest everyN(2) checkpoint before the last compute node; crash
  // halfway through the ops after it, then halfway through their replay,
  // so both crashes restore from that checkpoint.
  constexpr int CkptEvery = 2;
  int LastCompute = static_cast<int>(Circ.ops().size()) - 2;
  int Ckpt = -1;
  for (int K = 0, Last = -1; K < LastCompute; ++K)
    if (K - Last >= CkptEvery)
      Ckpt = Last = K;
  ASSERT_GE(Ckpt, 0);
  long Tail = Ends[LastCompute] - Ends[Ckpt];
  ASSERT_GT(Tail, 2);

  FaultPlan Plan;
  Plan.Seed = 0xc7a05;
  Plan.TransientRate = 0.004;
  Plan.MaxTransientFaults = 2;
  Plan.BitFlipRate = 0.004;
  Plan.MaxBitFlips = 2;
  long FirstCrash = Ends[Ckpt] + Tail / 2;
  Plan.CrashAtOps = {FirstCrash, FirstCrash + 1 + Tail / 2};

  for (unsigned Threads : {1u, 2u, 8u}) {
    MemoryCheckpointStore Store;
    SessionConfig Cfg;
    Cfg.Checkpoint = CheckpointPolicy::everyN(CkptEvery);
    Cfg.Store = &Store;
    Cfg.IntegrityCheckEveryNodes = 1;
    Cfg.Retry.MaxAttempts = 4;
    Cfg.Retry.BackoffBaseSeconds = 1e-6; // keep the soak fast
    ChaosOutcome Out = rnsChaosRun(Circ, C, Image, Plan, Cfg, Threads);
    expectSameBytes(Ref, Out.Bytes, "chaos session");
    EXPECT_TRUE(Out.Rep.Succeeded);
    EXPECT_EQ(Out.Faults.Crashes, 2) << "both scheduled crashes must fire";
    EXPECT_GE(Out.Rep.Restarts, 2);
    EXPECT_GT(Out.Rep.CheckpointsRestored, 0);
    EXPECT_FALSE(Out.Rep.Faults.empty());
  }
}

TEST(Session, CrashRecoveryReplaysOnlyTheSuffix) {
  PoolGuard Guard;
  setGlobalThreadCount(1);
  TensorCircuit Circ = smallCircuit();
  CompiledCircuit C = compileSmall(Circ, SchemeKind::RnsCkks);
  Tensor3 Image = randomImageFor(Circ, 43);
  std::vector<ByteBuffer> Ref = rnsReference(Circ, C, Image);

  using Prof = ProfilingBackend<RnsCkksBackend>;
  using ProfInteg = IntegrityBackend<Prof>;
  using ProfChaos = FaultInjectionBackend<ProfInteg>;

  // Counts the scheme-level ops of one session run under the given
  // checkpoint policy, crashing ~80% through the clean op schedule.
  auto CountOps = [&](const FaultPlan &Plan, const CheckpointPolicy &Policy,
                      MemoryCheckpointStore *Store, SessionReport *RepOut) {
    RnsCkksBackend Raw = makeRnsBackend(C, BackendSeed);
    Prof Profiled(Raw);
    ProfInteg Integ(Profiled);
    ProfChaos Chaos(Integ, Plan);
    TensorLayout L = circuitInputLayout(Circ, C.Policy, Chaos.slotCount());
    auto Enc = retag<ProfChaos>(encryptTensor(Integ, Image, L, C.Scales));
    uint64_t OpsBeforeEval = Profiled.totalOps();
    SessionConfig Cfg;
    Cfg.Checkpoint = Policy;
    Cfg.Store = Store;
    InferenceSession<ProfChaos> Sess(Chaos, Circ, Cfg);
    auto Out = Sess.run(Enc, C.Scales, C.Policy);
    if (RepOut)
      *RepOut = Sess.report();
    expectSameBytes(Ref, serializeAll(Out.Cts), "profiled chaos session");
    return Profiled.totalOps() - OpsBeforeEval;
  };

  uint64_t CleanOps =
      CountOps(FaultPlan{}, CheckpointPolicy::off(), nullptr, nullptr);
  long Probe = rnsChaosRun(Circ, C, Image, FaultPlan{}, SessionConfig{}, 1)
                   .Faults.OpsSeen;

  FaultPlan CrashPlan;
  CrashPlan.CrashAtOps = {(Probe * 8) / 10};

  MemoryCheckpointStore Store;
  SessionReport RepOn, RepOff;
  uint64_t OpsOn = CountOps(CrashPlan, CheckpointPolicy::everyNode(), &Store,
                            &RepOn);
  uint64_t OpsOff =
      CountOps(CrashPlan, CheckpointPolicy::off(), nullptr, &RepOff);

  // Without checkpoints the crash forces a full restart (~180% of the
  // clean op count); with per-node checkpoints only the suffix replays.
  EXPECT_EQ(RepOn.Restarts, 1);
  EXPECT_EQ(RepOn.CheckpointsRestored, 1);
  EXPECT_EQ(RepOff.CheckpointsRestored, 0);
  EXPECT_LT(RepOn.NodesReplayed, RepOff.NodesReplayed);
  EXPECT_LT(OpsOn, OpsOff);
  EXPECT_LT(OpsOn, CleanOps + (CleanOps * 6) / 10)
      << "checkpointed recovery must not approach a full re-run";
}

TEST(Session, BitFlipIsCaughtAtTheLayerAndRolledBack) {
  PoolGuard Guard;
  TensorCircuit Circ = smallCircuit();
  CompiledCircuit C = compileSmall(Circ, SchemeKind::RnsCkks);
  Tensor3 Image = randomImageFor(Circ, 44);
  std::vector<ByteBuffer> Ref = rnsReference(Circ, C, Image);

  FaultPlan Plan;
  Plan.Seed = 0xb17f11b;
  Plan.BitFlipRate = 0.02;
  Plan.MaxBitFlips = 2;

  MemoryCheckpointStore Store;
  SessionConfig Cfg;
  Cfg.Checkpoint = CheckpointPolicy::everyNode();
  Cfg.Store = &Store;
  Cfg.IntegrityCheckEveryNodes = 1;
  ChaosOutcome Out = rnsChaosRun(Circ, C, Image, Plan, Cfg, 1);

  expectSameBytes(Ref, Out.Bytes, "bit-flip recovery");
  EXPECT_GE(Out.Faults.BitFlips, 1);
  EXPECT_GE(Out.Rep.Restarts, 1);
  // The corruption surfaced as a typed Corruption fault with layer
  // provenance, not as garbage in the output.
  bool SawCorruption = false;
  for (const FaultEvent &F : Out.Rep.Faults)
    if (F.Class == FaultClass::Corruption) {
      SawCorruption = true;
      EXPECT_GE(F.NodeId, 0);
      EXPECT_FALSE(F.Layer.empty());
    }
  EXPECT_TRUE(SawCorruption);
  // And the injector recorded where it struck.
  ASSERT_FALSE(Out.Faults.Sites.empty());
  EXPECT_FALSE(Out.Faults.Sites[0].Label.empty());
}

//===----------------------------------------------------------------------===//
// Big-CKKS chaos
//===----------------------------------------------------------------------===//

TEST(Session, BigCkksChaosRecoversByteIdentical) {
  PoolGuard Guard;
  setGlobalThreadCount(1);
  TensorCircuit Circ = smallCircuit();
  CompiledCircuit C = compileSmall(Circ, SchemeKind::BigCkks);

  Tensor3 Image = randomImageFor(Circ, 45);
  auto Run = [&](const FaultPlan &Plan, SessionConfig Cfg,
                 SessionReport *RepOut) {
    BigCkksBackend Raw = makeBigBackend(C, BackendSeed);
    BigInteg Integ(Raw);
    BigChaos Chaos(Integ, Plan);
    TensorLayout L = circuitInputLayout(Circ, C.Policy, Chaos.slotCount());
    auto Enc = retag<BigChaos>(encryptTensor(Integ, Image, L, C.Scales));
    InferenceSession<BigChaos> Sess(Chaos, Circ, Cfg);
    auto Out = Sess.run(Enc, C.Scales, C.Policy);
    if (RepOut)
      *RepOut = Sess.report();
    return serializeAll(Out.Cts);
  };

  std::vector<ByteBuffer> Ref = Run(FaultPlan{}, SessionConfig{}, nullptr);
  long TotalOps = 0;
  {
    BigCkksBackend Raw = makeBigBackend(C, BackendSeed);
    BigInteg Integ(Raw);
    BigChaos Chaos(Integ, FaultPlan{});
    TensorLayout L = circuitInputLayout(Circ, C.Policy, Chaos.slotCount());
    auto Enc = retag<BigChaos>(encryptTensor(Integ, Image, L, C.Scales));
    InferenceSession<BigChaos> Sess(Chaos, Circ, SessionConfig{});
    (void)Sess.run(Enc, C.Scales, C.Policy);
    TotalOps = Chaos.stats().OpsSeen;
  }

  FaultPlan Plan;
  Plan.Seed = 0xb16;
  Plan.TransientRate = 0.01;
  Plan.MaxTransientFaults = 1;
  Plan.CrashAtOps = {(TotalOps * 7) / 10};

  MemoryCheckpointStore Store;
  SessionConfig Cfg;
  Cfg.Checkpoint = CheckpointPolicy::everyN(2);
  Cfg.Store = &Store;
  Cfg.Retry.BackoffBaseSeconds = 1e-6;
  SessionReport Rep;
  std::vector<ByteBuffer> Got = Run(Plan, Cfg, &Rep);
  expectSameBytes(Ref, Got, "big-CKKS chaos session");
  EXPECT_TRUE(Rep.Succeeded);
  EXPECT_EQ(Rep.Restarts, 1);
  EXPECT_EQ(Rep.CheckpointsRestored, 1);
}

//===----------------------------------------------------------------------===//
// Deadlines
//===----------------------------------------------------------------------===//

TEST(Session, DeadlineOverrunAbortsDeterministically) {
  PoolGuard Guard;
  TensorCircuit Circ = makeLeNet5Small(/*Reduction=*/2);
  PlainBackend Backend(12);
  ScaleConfig S;
  TensorLayout L =
      circuitInputLayout(Circ, LayoutPolicy::AllHW, Backend.slotCount());
  Tensor3 Image = randomImageFor(Circ, 46);
  auto Enc = encryptTensor(Backend, Image, L, S);

  for (int Round = 0; Round < 2; ++Round) {
    SessionConfig Cfg;
    Cfg.TimeBudgetSeconds = 1e-9; // expired before the first node
    InferenceSession<PlainBackend> Sess(Backend, Circ, Cfg);
    try {
      (void)Sess.run(Enc, S, LayoutPolicy::AllHW);
      FAIL() << "expected a deadline abort";
    } catch (const ChetError &E) {
      EXPECT_EQ(E.code(), ErrorCode::DeadlineExceeded);
      EXPECT_EQ(E.faultClass(), FaultClass::Deadline);
    }
    EXPECT_TRUE(Sess.report().DeadlineExpired);
    EXPECT_FALSE(Sess.report().Succeeded);
    EXPECT_EQ(Sess.report().NodesExecuted, 0);
  }

  // No budget configured: zero behavior change, the same session shape
  // completes.
  InferenceSession<PlainBackend> Free(Backend, Circ, SessionConfig{});
  auto Out = Free.run(Enc, S, LayoutPolicy::AllHW);
  EXPECT_TRUE(Free.report().Succeeded);
  EXPECT_FALSE(Free.report().DeadlineExpired);
  EXPECT_EQ(Out.Cts.size(), static_cast<size_t>(Out.L.ctCount()));
}

TEST(Session, ParallelReduceObservesTheDeadline) {
  PoolGuard Guard;
  setGlobalThreadCount(2);
  PlainBackend Backend(12);
  ScaleConfig S;
  Tensor3 In(1, 8, 8);
  for (double &V : In.Data)
    V = 0.25;
  FcWeights Fc(4, 64);
  for (double &V : Fc.W)
    V = 0.1;
  TensorLayout L =
      makeInputLayout(LayoutKind::HW, 1, 8, 8, 0, Backend.slotCount());
  auto Enc = encryptTensor(Backend, In, L, S);
  // The kernel runs fine without a deadline...
  (void)fullyConnectedReplicate(Backend, Enc, Fc, S);
  // ...and aborts inside the neuron fold (not the session's node loop)
  // once an expired deadline is installed on the calling thread.
  DeadlineScope Scope(Deadline::afterSeconds(-1.0));
  EXPECT_THROW((void)fullyConnectedReplicate(Backend, Enc, Fc, S),
               DeadlineExceededError);
}

//===----------------------------------------------------------------------===//
// Checkpoint policy accounting and store hardening
//===----------------------------------------------------------------------===//

TEST(Session, CheckpointPolicyAccounting) {
  PoolGuard Guard;
  TensorCircuit Circ = makeLeNet5Small(/*Reduction=*/2);
  PlainBackend Backend(12);
  ScaleConfig S;
  TensorLayout L =
      circuitInputLayout(Circ, LayoutPolicy::AllHW, Backend.slotCount());
  Tensor3 Image = randomImageFor(Circ, 47);
  auto Enc = encryptTensor(Backend, Image, L, S);
  int NonOutputNodes = static_cast<int>(Circ.ops().size()) - 1;

  auto TakenUnder = [&](CheckpointPolicy Policy) {
    MemoryCheckpointStore Store;
    SessionConfig Cfg;
    Cfg.Checkpoint = Policy;
    Cfg.Store = &Store;
    InferenceSession<PlainBackend> Sess(Backend, Circ, Cfg);
    (void)Sess.run(Enc, S, LayoutPolicy::AllHW);
    EXPECT_TRUE(Sess.report().Succeeded);
    return Sess.report().CheckpointsTaken;
  };

  EXPECT_EQ(TakenUnder(CheckpointPolicy::everyNode()), NonOutputNodes);

  // EveryN: due when K - LastCkptNode >= N starting from LastCkptNode=-1.
  int Expected = 0;
  for (int K = 0, Last = -1; K < NonOutputNodes; ++K)
    if (K - Last >= 3) {
      ++Expected;
      Last = K;
    }
  EXPECT_EQ(TakenUnder(CheckpointPolicy::everyN(3)), Expected);

  // A huge byte floor throttles EveryNode down to the initial checkpoint.
  CheckpointPolicy Throttled = CheckpointPolicy::everyNode();
  Throttled.MinBytesBetween = uint64_t(1) << 40;
  EXPECT_EQ(TakenUnder(Throttled), 1);
}

TEST(Session, CorruptCheckpointsAreDiscardedGracefully) {
  PoolGuard Guard;
  TensorCircuit Circ = makeLeNet5Small(/*Reduction=*/2);
  ScaleConfig S;
  Tensor3 Image = randomImageFor(Circ, 48);

  using PlainChaos = FaultInjectionBackend<PlainBackend>;
  MemoryCheckpointStore Store;
  auto Run = [&](const FaultPlan &Plan, CheckpointPolicy Policy,
                 SessionReport *RepOut) {
    PlainBackend Backend(12);
    PlainChaos Chaos(Backend, Plan);
    TensorLayout L =
        circuitInputLayout(Circ, LayoutPolicy::AllHW, Chaos.slotCount());
    auto Enc = retag<PlainChaos>(encryptTensor(Backend, Image, L, S));
    SessionConfig Cfg;
    Cfg.Checkpoint = Policy;
    Cfg.Store = &Store;
    InferenceSession<PlainChaos> Sess(Chaos, Circ, Cfg);
    auto Out = Sess.run(Enc, S, LayoutPolicy::AllHW);
    if (RepOut)
      *RepOut = Sess.report();
    return serializeAll(Out.Cts);
  };

  // Populate the store with a clean run, probe its op count, then rot
  // every stored blob.
  std::vector<ByteBuffer> Ref =
      Run(FaultPlan{}, CheckpointPolicy::everyNode(), nullptr);
  long TotalOps;
  {
    PlainBackend Backend(12);
    PlainChaos Chaos(Backend, FaultPlan{});
    TensorLayout L =
        circuitInputLayout(Circ, LayoutPolicy::AllHW, Chaos.slotCount());
    auto Enc = retag<PlainChaos>(encryptTensor(Backend, Image, L, S));
    InferenceSession<PlainChaos> Sess(Chaos, Circ, SessionConfig{});
    (void)Sess.run(Enc, S, LayoutPolicy::AllHW);
    TotalOps = Chaos.stats().OpsSeen;
  }
  EXPECT_GT(Store.corruptAllBlobs(/*BitIndex=*/6151), 0u);

  // The crash run sees the same keys (identical circuit, input bytes,
  // scales, policy) but, throttled by a huge byte floor, only rewrites
  // the node-0 checkpoint. Recovery therefore walks the rotten newer
  // blobs newest-first, rejects each on checksum, and lands on the one
  // fresh checkpoint -- still byte-identical output.
  CheckpointPolicy Throttled = CheckpointPolicy::everyNode();
  Throttled.MinBytesBetween = uint64_t(1) << 40;
  FaultPlan CrashPlan;
  CrashPlan.CrashAtOps = {(TotalOps * 3) / 4};
  SessionReport Rep;
  std::vector<ByteBuffer> Got = Run(CrashPlan, Throttled, &Rep);
  expectSameBytes(Ref, Got, "rotten-store recovery");
  EXPECT_TRUE(Rep.Succeeded);
  EXPECT_EQ(Rep.Restarts, 1);
  EXPECT_GT(Rep.CorruptCheckpointsDiscarded, 0);
  EXPECT_EQ(Rep.CheckpointsRestored, 1);
  bool SawStorageFault = false;
  for (const FaultEvent &F : Rep.Faults)
    if (F.Layer == "checkpoint-store")
      SawStorageFault = true;
  EXPECT_TRUE(SawStorageFault);
}

TEST(Session, CheckpointCodecRejectsCorruptionAndTruncation) {
  // Build a real checkpoint from plain ciphertexts.
  PlainBackend Backend(8);
  std::vector<double> Slots(Backend.slotCount(), 1.5);
  auto Ct = Backend.encrypt(Backend.encode(Slots, 1024.0));
  ByteBuffer CtBytes = serialize(Ct);

  Checkpoint Ck;
  Ck.Key = 0xabc123;
  Ck.NodeId = 7;
  CheckpointValue V;
  V.NodeId = 3;
  V.L = makeDenseVectorLayout(4, Backend.slotCount());
  V.Sums.push_back(fnv1aBytes(CtBytes.data(), CtBytes.size()));
  V.Cts.push_back(CtBytes);
  Ck.Values.push_back(V);

  ByteBuffer Blob = encodeCheckpoint(Ck);
  Checkpoint Back = decodeCheckpointOrThrow(Blob);
  EXPECT_EQ(Back.Key, Ck.Key);
  EXPECT_EQ(Back.NodeId, Ck.NodeId);
  ASSERT_EQ(Back.Values.size(), 1u);
  EXPECT_EQ(Back.Values[0].NodeId, 3);
  EXPECT_EQ(Back.Values[0].L, V.L);
  EXPECT_EQ(Back.Values[0].Cts[0], CtBytes);

  // Any flipped bit must be caught (DataCorruption from a checksum, or
  // MalformedCiphertext if the damage lands in structure after the
  // trailing checksum itself was hit).
  for (size_t Bit = 0; Bit < Blob.size() * 8; Bit += 101) {
    ByteBuffer Bad = Blob;
    Bad[Bit / 8] ^= static_cast<uint8_t>(1u << (Bit % 8));
    try {
      (void)decodeCheckpointOrThrow(Bad);
      FAIL() << "bit " << Bit << " flipped without detection";
    } catch (const ChetError &E) {
      EXPECT_TRUE(E.code() == ErrorCode::DataCorruption ||
                  E.code() == ErrorCode::MalformedCiphertext)
          << E.what();
    }
  }

  // Every truncation length must be rejected, never crash.
  for (size_t Len = 0; Len < Blob.size(); Len += 7) {
    ByteBuffer Short(Blob.begin(), Blob.begin() + Len);
    EXPECT_THROW((void)decodeCheckpointOrThrow(Short), ChetError)
        << "truncated to " << Len << " bytes";
  }
}

TEST(Session, FileStoreSurvivesCrashRecovery) {
  PoolGuard Guard;
  TensorCircuit Circ = makeLeNet5Small(/*Reduction=*/2);
  ScaleConfig S;
  Tensor3 Image = randomImageFor(Circ, 49);
  std::string Dir =
      (std::filesystem::temp_directory_path() /
       ("chet_session_store_" + std::to_string(::getpid())))
          .string();
  FileCheckpointStore Store(Dir);
  Store.clear();

  using PlainChaos = FaultInjectionBackend<PlainBackend>;
  auto Run = [&](const FaultPlan &Plan, SessionReport *RepOut) {
    PlainBackend Backend(12);
    PlainChaos Chaos(Backend, Plan);
    TensorLayout L =
        circuitInputLayout(Circ, LayoutPolicy::AllHW, Chaos.slotCount());
    auto Enc = retag<PlainChaos>(encryptTensor(Backend, Image, L, S));
    SessionConfig Cfg;
    Cfg.Checkpoint = CheckpointPolicy::everyN(2);
    Cfg.Store = &Store;
    InferenceSession<PlainChaos> Sess(Chaos, Circ, Cfg);
    auto Out = Sess.run(Enc, S, LayoutPolicy::AllHW);
    if (RepOut)
      *RepOut = Sess.report();
    return serializeAll(Out.Cts);
  };

  std::vector<ByteBuffer> Ref = Run(FaultPlan{}, nullptr);
  EXPECT_GT(Store.bytesStored(), 0u);

  long TotalOps;
  {
    PlainBackend Backend(12);
    PlainChaos Chaos(Backend, FaultPlan{});
    TensorLayout L =
        circuitInputLayout(Circ, LayoutPolicy::AllHW, Chaos.slotCount());
    auto Enc = retag<PlainChaos>(encryptTensor(Backend, Image, L, S));
    InferenceSession<PlainChaos> Sess(Chaos, Circ, SessionConfig{});
    (void)Sess.run(Enc, S, LayoutPolicy::AllHW);
    TotalOps = Chaos.stats().OpsSeen;
  }

  FaultPlan CrashPlan;
  CrashPlan.CrashAtOps = {(TotalOps * 3) / 4};
  SessionReport Rep;
  std::vector<ByteBuffer> Got = Run(CrashPlan, &Rep);
  expectSameBytes(Ref, Got, "file-store crash recovery");
  EXPECT_EQ(Rep.Restarts, 1);
  EXPECT_EQ(Rep.CheckpointsRestored, 1);
  EXPECT_GT(Rep.NodesExecuted, Rep.NodesReplayed);

  Store.clear();
  EXPECT_EQ(Store.bytesStored(), 0u);
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Provenance, classification, and configuration validation
//===----------------------------------------------------------------------===//

TEST(Session, TransientFaultsCarryLayerProvenance) {
  PoolGuard Guard;
  TensorCircuit Circ = smallCircuit();
  ScaleConfig S;
  FaultPlan Plan;
  Plan.Seed = 91;
  Plan.TransientRate = 1.0;
  Plan.MaxTransientFaults = 1;
  PlainBackend Backend(12);
  FaultInjectionBackend<PlainBackend> Chaos(Backend, Plan);
  TensorLayout L =
      circuitInputLayout(Circ, LayoutPolicy::AllHW, Chaos.slotCount());
  auto Enc = retag<FaultInjectionBackend<PlainBackend>>(
      encryptTensor(Backend, randomImageFor(Circ, 51), L, S));

  InferenceSession<FaultInjectionBackend<PlainBackend>> Sess(Chaos, Circ,
                                                             SessionConfig{});
  (void)Sess.run(Enc, S, LayoutPolicy::AllHW);
  const SessionReport &Rep = Sess.report();
  EXPECT_EQ(Rep.NodeRetries, 1);
  ASSERT_EQ(Rep.Faults.size(), 1u);
  EXPECT_EQ(Rep.Faults[0].Class, FaultClass::Transient);
  EXPECT_EQ(Rep.Faults[0].Code, ErrorCode::TransientBackendFault);
  EXPECT_GE(Rep.Faults[0].NodeId, 0);
  EXPECT_EQ(Rep.Faults[0].Layer, Circ.label(Rep.Faults[0].NodeId));
  EXPECT_NE(Rep.Faults[0].Message.find("node"), std::string::npos);

  ASSERT_EQ(Chaos.stats().Sites.size(), 1u);
  const FaultSite &Site = Chaos.stats().Sites[0];
  EXPECT_EQ(Site.Kind, FaultKind::TransientOpFailure);
  EXPECT_EQ(Site.NodeId, Rep.Faults[0].NodeId);
  EXPECT_EQ(Site.Label, Rep.Faults[0].Layer);
  EXPECT_GE(Site.OpOrdinal, 0);
  EXPECT_NE(Sess.report().str().find(Site.Label), std::string::npos);
}

TEST(Session, FaultClassificationTaxonomy) {
  EXPECT_EQ(classifyFault(ErrorCode::TransientBackendFault),
            FaultClass::Transient);
  EXPECT_EQ(classifyFault(ErrorCode::SimulatedCrash), FaultClass::Transient);
  EXPECT_EQ(classifyFault(ErrorCode::DataCorruption), FaultClass::Corruption);
  EXPECT_EQ(classifyFault(ErrorCode::MalformedCiphertext),
            FaultClass::Corruption);
  EXPECT_EQ(classifyFault(ErrorCode::DeadlineExceeded), FaultClass::Deadline);
  EXPECT_EQ(classifyFault(ErrorCode::ScaleMismatch), FaultClass::Permanent);
  EXPECT_EQ(classifyFault(ErrorCode::InvalidArgument), FaultClass::Permanent);
  EXPECT_STREQ(faultClassName(FaultClass::Corruption), "Corruption");
  // SimulatedCrash is recoverable work-wise but not retryable in place.
  SimulatedCrashError Crash("boom");
  EXPECT_FALSE(Crash.isTransient());
  EXPECT_EQ(Crash.faultClass(), FaultClass::Transient);
}

TEST(Session, ConfigurationIsValidatedUpFront) {
  TensorCircuit Circ = smallCircuit();
  PlainBackend Backend(10);
  SessionConfig NoStore;
  NoStore.Checkpoint = CheckpointPolicy::everyNode();
  EXPECT_THROW((InferenceSession<PlainBackend>(Backend, Circ, NoStore)),
               InvalidArgumentError);

  // PlainBackend has no verifyCt: an integrity interval is a misuse.
  SessionConfig NoVerify;
  NoVerify.IntegrityCheckEveryNodes = 4;
  EXPECT_THROW((InferenceSession<PlainBackend>(Backend, Circ, NoVerify)),
               InvalidArgumentError);

  SessionConfig BadRetry;
  BadRetry.Retry.MaxAttempts = 0;
  EXPECT_THROW((InferenceSession<PlainBackend>(Backend, Circ, BadRetry)),
               InvalidArgumentError);
}

} // namespace
