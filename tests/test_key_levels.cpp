//===- test_key_levels.cpp - Level-trimmed Galois keys end to end ----------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Gates on the compiler's level-trimmed rotation keys (DESIGN.md section
/// 5m), over a whole LeNet-5-small(1/2) inference on both schemes:
///
///   - the output ciphertexts are byte-identical to a run with every
///     selected key at the top level, at 1/2/8 threads and with the limb
///     pool off;
///   - every key's recorded level is exactly the highest level the real
///     backend switches it at in that run (no key over- or
///     under-provisioned);
///   - the backend's key bytes equal the compiler's footprint prediction.
///
//===----------------------------------------------------------------------===//

#include "ckks/Serialization.h"
#include "core/Compiler.h"
#include "core/Evaluate.h"
#include "hisa/Adapter.h"
#include "nn/Networks.h"
#include "runtime/ReferenceOps.h"
#include "support/LimbPool.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <map>
#include <mutex>

using namespace chet;

namespace chet {

/// Forwards every instruction to the wrapped backend and records, per
/// normalized rotation step, the highest level a rotation by it ran at.
/// It keeps the wrapped backend's kernel schedule (parallel trait below),
/// so it sees the rotations the real run issues.
template <typename B>
class KeyLevelRecorder : public HisaAdapter<KeyLevelRecorder<B>, B> {
  using Base = HisaAdapter<KeyLevelRecorder<B>, B>;
  friend Base;

public:
  using Ct = typename B::Ct;

  explicit KeyLevelRecorder(B &Inner) : Base(Inner) {}

  std::map<int, int> levels() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Levels;
  }

private:
  template <HisaOp Op, typename F, typename... Args>
  decltype(auto) onOp(F &&Forward, Args &...Operands) {
    if constexpr (Op == HisaOp::RotLeft || Op == HisaOp::RotRight ||
                  Op == HisaOp::RotLeftMany)
      note(Op, Operands...);
    return Forward();
  }

  void note(HisaOp Op, const Ct &C, int Steps) {
    note(Op, C, std::vector<int>{Op == HisaOp::RotRight ? -Steps : Steps});
  }
  void note(HisaOp, const Ct &C, const std::vector<int> &Steps) {
    B &Inner = this->inner();
    int Level;
    if constexpr (std::is_same_v<B, RnsCkksBackend>)
      Level = Inner.levelOf(C);
    else
      Level = Inner.logQOf(C);
    std::lock_guard<std::mutex> Lock(Mu);
    for (int Step : Steps) {
      int S = normalizeRotation(Step, Inner.slotCount());
      if (S == 0)
        continue;
      auto [It, New] = Levels.emplace(S, Level);
      if (!New)
        It->second = std::max(It->second, Level);
    }
  }

  mutable std::mutex Mu;
  std::map<int, int> Levels;
};

template <typename B>
inline constexpr bool BackendSupportsParallelKernels<KeyLevelRecorder<B>> =
    BackendSupportsParallelKernels<B>;

static_assert(HisaAdapterOf<KeyLevelRecorder<RnsCkksBackend>, RnsCkksBackend>);
static_assert(HisaAdapterOf<KeyLevelRecorder<BigCkksBackend>, BigCkksBackend>);
static_assert(BackendSupportsParallelKernels<KeyLevelRecorder<RnsCkksBackend>>);
static_assert(BackendSupportsParallelKernels<KeyLevelRecorder<BigCkksBackend>>);

} // namespace chet

namespace {

/// Restores the process-wide thread count and limb pool on scope exit.
struct PoolsGuard {
  unsigned Threads = globalThreadCount();
  ~PoolsGuard() {
    setGlobalThreadCount(Threads);
    LimbPool::instance().setEnabled(true);
  }
};

template <typename Ct>
std::vector<ByteBuffer> serializeAll(const std::vector<Ct> &Cts) {
  std::vector<ByteBuffer> Out;
  for (const Ct &C : Cts)
    Out.push_back(serialize(C));
  return Out;
}

template <typename B>
B makeBackend(const CompiledCircuit &C) {
  if constexpr (std::is_same_v<B, RnsCkksBackend>)
    return makeRnsBackend(C);
  else
    return makeBigBackend(C);
}

/// Compiles LeNet-5-small(1/2), runs it once with every selected key at
/// the top level and then with the compiled (trimmed) keys at 1/2/8
/// threads and with the limb pool off, and checks the gates listed in the
/// file comment.
template <typename B>
void expectTrimmedKeysExact(SchemeKind Scheme, SecurityLevel Security,
                            int LogN) {
  PoolsGuard Guard;
  TensorCircuit Circ = makeLeNet5Small(/*Reduction=*/2);
  CompilerOptions O;
  O.Scheme = Scheme;
  O.Security = Security;
  O.Scales = ScaleConfig::fromExponents(25, 25, 25, 12);
  CompiledCircuit Trimmed = compileCircuit(Circ, O);
  ASSERT_EQ(Trimmed.LogN, LogN);
  ASSERT_FALSE(Trimmed.RotationKeys.empty());
  const int Top = Trimmed.Rns ? Trimmed.Rns->levels() : Trimmed.Big->LogQ;
  CompiledCircuit Full = Trimmed;
  size_t Lowered = 0;
  for (RotationKeySpec &K : Full.RotationKeys) {
    Lowered += K.Level < Top;
    K.Level = Top;
  }
  EXPECT_GT(Lowered, 0u) << "no key serves only lower levels";

  Tensor3 Image = randomImageFor(Circ, 7);
  std::vector<ByteBuffer> RefIn, RefOut;
  uint64_t FullKeyBytes = 0;
  {
    setGlobalThreadCount(4);
    B Backend = makeBackend<B>(Full);
    FullKeyBytes = Backend.keyBytes();
    auto Enc = encryptTensor(
        Backend, Image,
        circuitInputLayout(Circ, Full.Policy, Backend.slotCount()),
        Full.Scales);
    RefIn = serializeAll(Enc.Cts);
    RefOut = serializeAll(
        evaluateCircuit(Backend, Circ, Enc, Full.Scales, Full.Policy).Cts);
  }

  B Backend = makeBackend<B>(Trimmed);
  EXPECT_EQ(Backend.keyBytes(), Trimmed.Footprint.KeyBytes);
  EXPECT_LT(Backend.keyBytes(), FullKeyBytes);
  std::map<int, int> Recorded;
  for (const RotationKeySpec &K : Trimmed.RotationKeys)
    Recorded[K.Step] = K.Level;

  KeyLevelRecorder<B> Recorder(Backend);
  auto Enc = encryptTensor(
      Recorder, Image,
      circuitInputLayout(Circ, Trimmed.Policy, Recorder.slotCount()),
      Trimmed.Scales);
  // Keygen left the stream where the full-level keys left it.
  ASSERT_TRUE(serializeAll(Enc.Cts) == RefIn);
  auto Run = [&](const char *Mode) {
    auto Out =
        evaluateCircuit(Recorder, Circ, Enc, Trimmed.Scales, Trimmed.Policy);
    EXPECT_TRUE(serializeAll(Out.Cts) == RefOut) << Mode;
    EXPECT_EQ(Recorder.levels(), Recorded) << Mode;
  };
  for (unsigned Threads : {1u, 2u, 8u}) {
    setGlobalThreadCount(Threads);
    Run(Threads == 1 ? "1 thread" : Threads == 2 ? "2 threads" : "8 threads");
  }
  setGlobalThreadCount(2);
  LimbPool::instance().setEnabled(false);
  Run("CHET_LIMB_POOL=off");
}

TEST(KeyLevels, RnsLeNetBytesMatchFullLevelKeys) {
  expectTrimmedKeysExact<RnsCkksBackend>(
      SchemeKind::RnsCkks, SecurityLevel::Classical128, /*LogN=*/15);
}

TEST(KeyLevels, BigLeNetBytesMatchFullLevelKeys) {
  expectTrimmedKeysExact<BigCkksBackend>(SchemeKind::BigCkks,
                                         SecurityLevel::None, /*LogN=*/12);
}

} // namespace
