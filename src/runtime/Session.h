//===- Session.h - Checkpointed, deadline-aware inference ------*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// InferenceSession: a resilient driver around the tensor-circuit
/// evaluator. An encrypted inference on a real network runs for minutes;
/// a transient backend fault, a flipped bit, or a blown latency budget
/// near the end should not cost the whole computation. The session layer
/// adds, without touching any kernel:
///
///   * Layer-boundary checkpointing. After a tensor-circuit node
///     completes, the live ciphertext frontier (values still needed by a
///     later node) can be serialized into a CheckpointStore keyed by
///     (checkpoint key, node id). On a fault that loses or taints the
///     in-memory state, the session rolls back to the newest intact
///     checkpoint and replays only the suffix of the circuit.
///
///   * Fault-class recovery (support/Error.h FaultClass): transient
///     faults get a bounded in-place retry with exponential backoff and
///     deterministic seeded jitter (operands are never mutated by
///     kernels, so retrying a node is sound and byte-identical);
///     corruption and simulated crashes roll back to a checkpoint;
///     permanent faults and deadline overruns fail fast -- all leaving a
///     structured SessionReport behind.
///
///   * Early corruption detection. When the backend exposes verifyCt()
///     (IntegrityBackend), every value is verified before it is
///     checkpointed -- so stored checkpoints are known-good and rollback
///     is always sound -- and optionally re-verified every
///     IntegrityCheckEveryNodes nodes so a bit flip surfaces at the layer
///     it strikes.
///
///   * Cooperative deadlines. TimeBudgetSeconds > 0 installs a
///     thread-local Deadline (support/Deadline.h) observed at node
///     boundaries and inside parallelReduce folds. No budget, no check:
///     behavior is bit-identical to bare evaluateCircuit.
///
/// Determinism contract: recovery never re-randomizes anything. Replayed
/// nodes recompute from checkpointed bytes or from the caller's input
/// ciphertexts (which model data that arrived over the wire and survive a
/// simulated crash), so a recovered run's output is byte-identical to the
/// fault-free run at any thread count.
///
/// Layering note: this header lives in runtime/ next to the stores it
/// drives, but the InferenceSession template includes core/Evaluate.h for
/// the per-node dispatch (detail::evaluateNode). That is a header-only
/// dependency; Session.cpp -- the code compiled into chet_runtime --
/// contains only the byte-level checkpoint codec, the stores, and report
/// formatting, and links against nothing new. Ciphertext serialization is
/// resolved by ADL at template instantiation (ckks/Serialization.h for
/// the real schemes, the PlainBackend overloads below for the reference
/// backend), so chet_runtime itself never depends on chet_ckks.
///
//===----------------------------------------------------------------------===//

#ifndef CHET_RUNTIME_SESSION_H
#define CHET_RUNTIME_SESSION_H

#include "core/Evaluate.h"
#include "core/Ir.h"
#include "hisa/Hisa.h"
#include "hisa/PlainBackend.h"
#include "runtime/CipherTensor.h"
#include "runtime/Layout.h"
#include "support/Deadline.h"
#include "support/Error.h"
#include "support/MemoryGovernor.h"
#include "support/Prng.h"
#include "support/Timer.h"

#include <algorithm>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace chet {

/// Byte buffer shared with ckks/Serialization.h (same alias, either
/// header may be seen first).
using ByteBuffer = std::vector<uint8_t>;

/// FNV-1a over raw bytes; used for checkpoint blob and per-ciphertext
/// checksums.
inline uint64_t fnv1aBytes(const uint8_t *Data, size_t N) {
  uint64_t H = 1469598103934665603ull;
  for (size_t I = 0; I < N; ++I) {
    H ^= Data[I];
    H *= 1099511628211ull;
  }
  return H;
}

/// Serialized form of the plain reference backend's ciphertext, so
/// sessions over PlainBackend checkpoint exactly like the real schemes.
/// Defined in Session.cpp with the same tagged little-endian discipline
/// as ckks/Serialization.
ByteBuffer serialize(const PlainBackend::Ct &Ct);
void deserializeOrThrow(const ByteBuffer &Bytes, PlainBackend::Ct &Ct);

//===----------------------------------------------------------------------===//
// Checkpoints and stores
//===----------------------------------------------------------------------===//

/// One live value inside a checkpoint: the producing node, its layout,
/// and each ciphertext as serialized bytes plus an FNV-1a checksum.
struct CheckpointValue {
  int NodeId = -1;
  TensorLayout L;
  std::vector<ByteBuffer> Cts;
  std::vector<uint64_t> Sums;
};

/// The full live frontier after a node: everything a resumed evaluation
/// needs to continue from NodeId + 1.
struct Checkpoint {
  uint64_t Key = 0; ///< Session checkpoint key (circuit + run context).
  int NodeId = -1;  ///< Last node whose output is reflected here.
  std::vector<CheckpointValue> Values;
};

/// Encodes a checkpoint into a self-validating blob: tagged little-endian
/// fields, per-ciphertext checksums, and a trailing whole-blob FNV-1a
/// checksum.
ByteBuffer encodeCheckpoint(const Checkpoint &Ck);

/// Decodes and validates a checkpoint blob. Throws DataCorruptionError on
/// any checksum mismatch and MalformedCiphertextError on structural
/// damage (bad magic, impossible sizes, truncation). Never crashes and
/// never silently accepts damaged input.
Checkpoint decodeCheckpointOrThrow(const ByteBuffer &Blob);

/// Durable home for checkpoint blobs. The store only ever sees opaque
/// encoded bytes -- in the crash fault model it is the *only* state that
/// survives, so nothing decoded may be cached outside it. Stores are not
/// synchronized; a session uses its store from one thread.
class CheckpointStore {
public:
  virtual ~CheckpointStore() = default;
  virtual void put(uint64_t Key, int NodeId, ByteBuffer Blob) = 0;
  /// Returns the blob for (Key, NodeId), or nullopt if absent.
  virtual std::optional<ByteBuffer> fetch(uint64_t Key, int NodeId) = 0;
  /// Node ids checkpointed under \p Key, ascending.
  virtual std::vector<int> nodeIds(uint64_t Key) const = 0;
  virtual void erase(uint64_t Key, int NodeId) = 0;
  virtual uint64_t bytesStored() const = 0;
  virtual void clear() = 0;
};

/// In-memory store. Holds encoded blobs only (decode on fetch), so the
/// "only the store survives a crash" discipline is real even in tests.
class MemoryCheckpointStore : public CheckpointStore {
public:
  void put(uint64_t Key, int NodeId, ByteBuffer Blob) override;
  std::optional<ByteBuffer> fetch(uint64_t Key, int NodeId) override;
  std::vector<int> nodeIds(uint64_t Key) const override;
  void erase(uint64_t Key, int NodeId) override;
  uint64_t bytesStored() const override;
  void clear() override;

  /// Test hook: flip one bit of a stored blob, simulating storage rot.
  bool corruptBlob(uint64_t Key, int NodeId, size_t BitIndex);

  /// Test hook: flip one bit in *every* stored blob (keys are opaque to
  /// callers, so whole-store rot is the practical way to simulate a bad
  /// disk). Returns the number of blobs corrupted.
  size_t corruptAllBlobs(size_t BitIndex);

private:
  std::map<std::pair<uint64_t, int>, ByteBuffer> Blobs;
};

/// On-disk store: one file per checkpoint under a directory, written via
/// a temporary file and renamed so a crash mid-write never leaves a
/// half-blob under the final name.
class FileCheckpointStore : public CheckpointStore {
public:
  /// Creates \p Dir (and parents) if needed.
  explicit FileCheckpointStore(std::string Dir);

  void put(uint64_t Key, int NodeId, ByteBuffer Blob) override;
  std::optional<ByteBuffer> fetch(uint64_t Key, int NodeId) override;
  std::vector<int> nodeIds(uint64_t Key) const override;
  void erase(uint64_t Key, int NodeId) override;
  uint64_t bytesStored() const override;
  void clear() override;

  const std::string &directory() const { return Dir; }

private:
  std::string pathFor(uint64_t Key, int NodeId) const;
  std::string Dir;
};

//===----------------------------------------------------------------------===//
// Session configuration and report
//===----------------------------------------------------------------------===//

/// When to cut a checkpoint.
struct CheckpointPolicy {
  enum class Mode {
    Off,       ///< Never checkpoint (default: zero overhead, zero change).
    EveryNode, ///< After every tensor-circuit node.
    EveryN     ///< After every N-th node since the last checkpoint.
  };
  Mode Kind = Mode::Off;
  int N = 4; ///< Node stride for Mode::EveryN.
  /// When > 0, additionally require at least this many (estimated)
  /// ciphertext bytes produced since the last checkpoint, so cheap layers
  /// don't trigger back-to-back serialization. The first due checkpoint
  /// of a run is always taken.
  uint64_t MinBytesBetween = 0;

  static CheckpointPolicy off() { return {}; }
  static CheckpointPolicy everyNode() {
    return {Mode::EveryNode, 1, 0};
  }
  static CheckpointPolicy everyN(int N) { return {Mode::EveryN, N, 0}; }
};

/// Per-fault-class recovery budgets: RetryPolicy's per-node budget and
/// deterministic jittered backoff for transient faults (MaxAttempts
/// counts attempts per node), plus a rollback budget for the run.
struct SessionRetryPolicy : RetryPolicy {
  /// Rollback budget for crashes / detected corruption across the whole
  /// run (each rollback restores a checkpoint or restarts from the
  /// input).
  int MaxRestarts = 8;
};

struct SessionConfig {
  CheckpointPolicy Checkpoint;
  SessionRetryPolicy Retry;
  /// > 0 installs a cooperative deadline for run(); <= 0 means none (and
  /// exactly no behavior change).
  double TimeBudgetSeconds = 0;
  /// > 0: force-verify the live frontier every N nodes (requires a
  /// backend with verifyCt, i.e. IntegrityBackend in the stack). 0: only
  /// verify before checkpoints and on operand reads.
  int IntegrityCheckEveryNodes = 0;
  /// Required when checkpointing is enabled; borrowed, not owned.
  CheckpointStore *Store = nullptr;
};

/// One fault observed by the session, with op -> node -> layer
/// provenance.
struct FaultEvent {
  FaultClass Class = FaultClass::Permanent;
  ErrorCode Code = ErrorCode::InvalidArgument;
  int NodeId = -1;
  std::string Layer; ///< Node label, or "checkpoint-store".
  int Attempt = 0;   ///< Per-node attempt number (0: outside node retry).
  std::string Message;
};

/// Everything a caller needs to understand what a session run did:
/// attempts, checkpoints taken/restored, per-phase time, and each fault
/// with its provenance. Populated even when run() rethrows.
struct SessionReport {
  bool Succeeded = false;
  bool DeadlineExpired = false;
  int NodesExecuted = 0; ///< Node evaluations completed, incl. replays.
  int NodesReplayed = 0; ///< Re-executions caused by rollback.
  int NodeRetries = 0;   ///< In-place transient retries.
  int Restarts = 0;      ///< Rollbacks (checkpoint restore or restart).
  int CheckpointsTaken = 0;
  int CheckpointsRestored = 0;
  int CorruptCheckpointsDiscarded = 0;
  int CheckpointsPruned = 0; ///< Older checkpoints dropped under memory
                             ///< pressure (degradation stage 2).
  uint64_t CheckpointBytes = 0; ///< Total bytes written to the store.
  double EvalSeconds = 0;
  double CheckpointSeconds = 0;
  double RestoreSeconds = 0;
  double IntegritySeconds = 0;
  double BackoffSeconds = 0;
  double TotalSeconds = 0;
  static constexpr size_t MaxFaults = 256;
  std::vector<FaultEvent> Faults;
  size_t FaultsDropped = 0;

  /// Human-readable multi-line rendering.
  std::string str() const;
};

//===----------------------------------------------------------------------===//
// InferenceSession
//===----------------------------------------------------------------------===//

/// Satisfied when the backend's ciphertexts round-trip through the ADL
/// serialize / deserializeOrThrow pair (real schemes via
/// ckks/Serialization.h, PlainBackend via the overloads above, adapter
/// wrappers like IntegrityCt via their own forwarding overloads).
template <typename B>
concept SessionCheckpointable =
    requires(const typename B::Ct &C, const ByteBuffer &Bytes,
             typename B::Ct &Out) {
      { serialize(C) } -> std::same_as<ByteBuffer>;
      deserializeOrThrow(Bytes, Out);
    };

/// Resilient evaluateCircuit driver. See file comment. One session is
/// bound to one backend + circuit; run() may be called repeatedly (each
/// call resets the report).
template <HisaBackend B> class InferenceSession {
public:
  InferenceSession(B &BackendIn, const TensorCircuit &CircIn,
                   SessionConfig CfgIn = {})
      : Backend(BackendIn), Circ(CircIn), Cfg(CfgIn) {
    CHET_CHECK(Cfg.Retry.MaxAttempts >= 1, InvalidArgument,
               "SessionRetryPolicy::MaxAttempts must be >= 1, got ",
               Cfg.Retry.MaxAttempts);
    CHET_CHECK(Cfg.Retry.MaxRestarts >= 0, InvalidArgument,
               "SessionRetryPolicy::MaxRestarts must be >= 0, got ",
               Cfg.Retry.MaxRestarts);
    if (Cfg.Checkpoint.Kind != CheckpointPolicy::Mode::Off) {
      CHET_CHECK(Cfg.Store != nullptr, InvalidArgument,
                 "checkpointing enabled but SessionConfig::Store is null");
      if (Cfg.Checkpoint.Kind == CheckpointPolicy::Mode::EveryN)
        CHET_CHECK(Cfg.Checkpoint.N >= 1, InvalidArgument,
                   "CheckpointPolicy::N must be >= 1, got ",
                   Cfg.Checkpoint.N);
      if constexpr (!SessionCheckpointable<B>)
        CHET_CHECK(false, InvalidArgument,
                   "backend ciphertexts are not serializable; disable "
                   "checkpointing or add serialize/deserializeOrThrow "
                   "overloads");
    }
    if constexpr (!BackendHasVerifyCt<B>)
      CHET_CHECK(Cfg.IntegrityCheckEveryNodes == 0, InvalidArgument,
                 "IntegrityCheckEveryNodes set but the backend has no "
                 "verifyCt; wrap it in IntegrityBackend");
  }

  const SessionReport &report() const { return Report; }

  /// Evaluates the circuit on \p Input with the configured resilience
  /// policies. On unrecoverable faults rethrows the ChetError; report()
  /// stays populated either way. The input ciphertexts model data that
  /// arrived over the wire: they survive simulated crashes, so recovery
  /// never re-encrypts (which would re-randomize and break byte
  /// identity).
  CipherTensor<B> run(const CipherTensor<B> &Input, const ScaleConfig &S,
                      LayoutPolicy Policy,
                      FcAlgorithm FcAlg = FcAlgorithm::Auto,
                      EncodedPlaintextCache<B> *PtCache = nullptr) {
    Report = SessionReport{};
    const auto &Ops = Circ.ops();
    CHET_CHECK(!Ops.empty(), InvalidArgument,
               "cannot run a session over an empty circuit");
    Key = checkpointKey(Input, S, Policy, FcAlg);
    NeedsMask = detail::computeMaskNeeds(Circ, Policy);
    LastUse.assign(Ops.size(), -1);
    for (const OpNode &Node : Ops)
      for (int In : Node.Inputs)
        LastUse[In] = std::max(LastUse[In], Node.Id);
    if (PtCache)
      PtCache->noteScales(S);

    std::optional<DeadlineScope> Scope;
    if (Cfg.TimeBudgetSeconds > 0)
      Scope.emplace(Deadline::afterSeconds(Cfg.TimeBudgetSeconds));

    Prng Jitter(Cfg.Retry.JitterSeed);
    std::vector<std::optional<CipherTensor<B>>> Vals(Ops.size());
    int Next = 0;
    LastCkptNode = -1;
    Farthest = -1;
    CtsSinceCkpt = 0;
    AvgCtBytes = 0;

    Timer Total;
    for (;;) {
      try {
        CipherTensor<B> Out =
            evalFrom(Next, Vals, Input, S, Policy, FcAlg, PtCache, Jitter);
        Report.Succeeded = true;
        Report.TotalSeconds = Total.seconds();
        return Out;
      } catch (const ChetError &E) {
        FaultClass Class = classifyFault(E.code());
        if (Class == FaultClass::Deadline)
          Report.DeadlineExpired = true;
        // Only state loss (simulated crash) and detected corruption are
        // recoverable by rollback; transient exhaustion, permanent
        // faults, and deadline overruns fail fast.
        bool Recoverable = E.code() == ErrorCode::SimulatedCrash ||
                           Class == FaultClass::Corruption;
        if (!Recoverable || Report.Restarts >= Cfg.Retry.MaxRestarts) {
          Report.TotalSeconds = Total.seconds();
          throw;
        }
        ++Report.Restarts;
        Next = restore(Vals);
      }
    }
  }

private:
  /// Checkpoints are only valid for the exact computation that produced
  /// them, so the key mixes the circuit's structural hash with everything
  /// else the intermediate values depend on: the input ciphertext bytes
  /// (when serializable), the layout policy, the FC algorithm, and the
  /// scale configuration. A stale checkpoint from a different input or
  /// policy can then never be restored into this run.
  uint64_t checkpointKey(const CipherTensor<B> &Input, const ScaleConfig &S,
                         LayoutPolicy Policy, FcAlgorithm FcAlg) const {
    uint64_t H = Circ.structuralHash();
    auto Mix = [&H](uint64_t V) {
      for (int I = 0; I < 8; ++I) {
        H ^= (V >> (8 * I)) & 0xff;
        H *= 1099511628211ull;
      }
    };
    Mix(static_cast<uint64_t>(Policy));
    Mix(static_cast<uint64_t>(FcAlg));
    auto MixDouble = [&](double V) {
      uint64_t Bits;
      static_assert(sizeof(Bits) == sizeof(V));
      std::memcpy(&Bits, &V, sizeof(Bits));
      Mix(Bits);
    };
    MixDouble(S.Image);
    MixDouble(S.Weight);
    MixDouble(S.Scalar);
    MixDouble(S.Mask);
    if constexpr (SessionCheckpointable<B>) {
      if (Cfg.Checkpoint.Kind != CheckpointPolicy::Mode::Off) {
        Mix(Input.Cts.size());
        for (const auto &Ct : Input.Cts) {
          ByteBuffer Bytes = serialize(Ct);
          Mix(fnv1aBytes(Bytes.data(), Bytes.size()));
        }
      }
    }
    return H;
  }

  CipherTensor<B>
  evalFrom(int Next, std::vector<std::optional<CipherTensor<B>>> &Vals,
           const CipherTensor<B> &Input, const ScaleConfig &S,
           LayoutPolicy Policy, FcAlgorithm FcAlg,
           EncodedPlaintextCache<B> *PtCache, Prng &Jitter) {
    const auto &Ops = Circ.ops();
    for (size_t Idx = static_cast<size_t>(Next); Idx < Ops.size(); ++Idx) {
      const OpNode &Node = Ops[Idx];
      checkActiveDeadline("session node boundary");
      if (Node.Kind == OpKind::Output) {
        if constexpr (HisaProvenanceSink<B>)
          Backend.beginNode(Node.Id, Node.Label);
        return std::move(*Vals[Node.Inputs[0]]);
      }
      evalNodeWithRetry(Node, Vals, Input, S, Policy, FcAlg, PtCache,
                        Jitter);
      ++Report.NodesExecuted;
      if (Node.Id <= Farthest)
        ++Report.NodesReplayed;
      else
        Farthest = Node.Id;
      if (Vals[Node.Id])
        CtsSinceCkpt += Vals[Node.Id]->Cts.size();
      maybeIntegrityCheck(Node.Id, Vals);
      maybeCheckpoint(Node.Id, Vals);
      // Release values past their last use: the live frontier -- exactly
      // the set forEachLive checkpoints -- bounds peak memory, matching
      // both the static footprint analysis and restore(), which rebuilds
      // precisely this frontier.
      for (int J = 0; J <= Node.Id; ++J)
        if (Vals[J] && LastUse[J] <= Node.Id)
          Vals[J].reset();
    }
    throw InvalidArgumentError("circuit has no output node");
  }

  /// Runs one node, retrying transient faults in place. Kernels never
  /// mutate their operands (they copy first), so after a failed attempt
  /// every operand in Vals is intact and only Vals[Node.Id] is
  /// (re)assigned -- the retry recomputes exactly the same bytes.
  void evalNodeWithRetry(const OpNode &Node,
                         std::vector<std::optional<CipherTensor<B>>> &Vals,
                         const CipherTensor<B> &Input, const ScaleConfig &S,
                         LayoutPolicy Policy, FcAlgorithm FcAlg,
                         EncodedPlaintextCache<B> *PtCache, Prng &Jitter) {
    for (int Attempt = 1;; ++Attempt) {
      try {
        Timer T;
        detail::evaluateNode(Backend, Node, Vals, NeedsMask, Input, S,
                             Policy, FcAlg, PtCache);
        Report.EvalSeconds += T.seconds();
        return;
      } catch (const ChetError &E) {
        noteFault(E, Node.Id, Node.Label, Attempt);
        if (!E.isTransient() || Attempt >= Cfg.Retry.MaxAttempts)
          throw;
        ++Report.NodeRetries;
        backoff(Attempt, Jitter);
      } catch (const std::bad_alloc &) {
        // Allocation failure at the HISA boundary: contain it as a typed
        // transient, shed every droppable byte (caches, pool free
        // lists), and retry. Operands in Vals are intact (kernels copy
        // before assigning), so the retry recomputes identical bytes.
        ResourceExhaustedError E(
            formatError("allocation failure in node ", Node.Id, " ('",
                        Node.Label, "'); reclaiming caches and pools"));
        noteFault(E, Node.Id, Node.Label, Attempt);
        MemoryGovernor::instance().reclaim();
        if (Attempt >= Cfg.Retry.MaxAttempts)
          throw E;
        ++Report.NodeRetries;
        backoff(Attempt, Jitter);
      }
    }
  }

  void backoff(int Attempt, Prng &Jitter) {
    Timer T;
    detail::retryBackoff(Cfg.Retry, Attempt, Jitter);
    Report.BackoffSeconds += T.seconds();
  }

  void noteFault(const ChetError &E, int NodeId, const std::string &Layer,
                 int Attempt) {
    if (Report.Faults.size() >= SessionReport::MaxFaults) {
      ++Report.FaultsDropped;
      return;
    }
    Report.Faults.push_back(
        {E.faultClass(), E.code(), NodeId, Layer, Attempt, E.what()});
  }

  /// Applies \p Fn to every value still needed after node \p K.
  template <typename F>
  void forEachLive(int K,
                   const std::vector<std::optional<CipherTensor<B>>> &Vals,
                   F &&Fn) const {
    for (int J = 0; J <= K; ++J)
      if (Vals[J] && LastUse[J] > K)
        Fn(J, *Vals[J]);
  }

  void
  maybeIntegrityCheck(int K,
                      const std::vector<std::optional<CipherTensor<B>>> &Vals) {
    if (Cfg.IntegrityCheckEveryNodes <= 0)
      return;
    if constexpr (BackendHasVerifyCt<B>) {
      if ((K + 1) % Cfg.IntegrityCheckEveryNodes != 0)
        return;
      Timer T;
      try {
        forEachLive(K, Vals, [&](int, const CipherTensor<B> &V) {
          for (const auto &C : V.Cts)
            Backend.verifyCt(C);
        });
      } catch (const ChetError &E) {
        noteFault(E, K, Circ.ops()[K].Label, 0);
        Report.IntegritySeconds += T.seconds();
        throw;
      }
      Report.IntegritySeconds += T.seconds();
    }
  }

  void maybeCheckpoint(int K,
                       const std::vector<std::optional<CipherTensor<B>>> &Vals) {
    if (Cfg.Checkpoint.Kind == CheckpointPolicy::Mode::Off)
      return;
    if constexpr (SessionCheckpointable<B>) {
      bool Due = Cfg.Checkpoint.Kind == CheckpointPolicy::Mode::EveryNode ||
                 K - LastCkptNode >= Cfg.Checkpoint.N;
      if (!Due)
        return;
      if (Cfg.Checkpoint.MinBytesBetween > 0 && LastCkptNode >= 0 &&
          AvgCtBytes > 0 &&
          static_cast<uint64_t>(double(CtsSinceCkpt) * AvgCtBytes) <
              Cfg.Checkpoint.MinBytesBetween)
        return;
      try {
        // Verify everything about to be persisted: a checkpoint that
        // captured a corrupted value would make rollback unsound.
        if constexpr (BackendHasVerifyCt<B>) {
          Timer TV;
          forEachLive(K, Vals, [&](int, const CipherTensor<B> &V) {
            for (const auto &C : V.Cts)
              Backend.verifyCt(C);
          });
          Report.IntegritySeconds += TV.seconds();
        }
        Timer T;
        Checkpoint Ck;
        Ck.Key = Key;
        Ck.NodeId = K;
        uint64_t Bytes = 0, Cts = 0;
        forEachLive(K, Vals, [&](int J, const CipherTensor<B> &V) {
          CheckpointValue CV;
          CV.NodeId = J;
          CV.L = V.L;
          for (const auto &C : V.Cts) {
            ByteBuffer Buf = serialize(C);
            Bytes += Buf.size();
            ++Cts;
            CV.Sums.push_back(fnv1aBytes(Buf.data(), Buf.size()));
            CV.Cts.push_back(std::move(Buf));
          }
          Ck.Values.push_back(std::move(CV));
        });
        Cfg.Store->put(Key, K, encodeCheckpoint(Ck));
        // Degradation stage 2: under memory pressure keep only the
        // newest checkpoint. Sound -- restore() prefers the newest
        // intact blob anyway; older ones only add resilience depth
        // against corruption of the newest.
        if (MemoryGovernor::instance().underPressure())
          for (int Old : Cfg.Store->nodeIds(Key))
            if (Old != K) {
              Cfg.Store->erase(Key, Old);
              ++Report.CheckpointsPruned;
            }
        ++Report.CheckpointsTaken;
        Report.CheckpointBytes += Bytes;
        if (Cts > 0)
          AvgCtBytes = double(Bytes) / double(Cts);
        CtsSinceCkpt = 0;
        LastCkptNode = K;
        Report.CheckpointSeconds += T.seconds();
      } catch (const ChetError &E) {
        noteFault(E, K, Circ.ops()[K].Label, 0);
        throw;
      }
    }
  }

  /// Discards the (lost or untrusted) in-memory state and rebuilds the
  /// newest intact checkpoint from the store; corrupt blobs are recorded,
  /// erased, and skipped in favor of older ones. Returns the node index
  /// to resume from (0 when no usable checkpoint remains: full restart
  /// from the input, which survives by the fault model).
  int restore(std::vector<std::optional<CipherTensor<B>>> &Vals) {
    Timer T;
    for (auto &V : Vals)
      V.reset();
    CtsSinceCkpt = 0;
    LastCkptNode = -1;
    int Resume = 0;
    if constexpr (SessionCheckpointable<B>) {
      if (Cfg.Store && Cfg.Checkpoint.Kind != CheckpointPolicy::Mode::Off) {
        std::vector<int> Nodes = Cfg.Store->nodeIds(Key);
        for (auto It = Nodes.rbegin(); It != Nodes.rend(); ++It) {
          std::optional<ByteBuffer> Blob = Cfg.Store->fetch(Key, *It);
          if (!Blob)
            continue;
          try {
            Checkpoint Ck = decodeCheckpointOrThrow(*Blob);
            CHET_CHECK(Ck.Key == Key && Ck.NodeId == *It, DataCorruption,
                       "checkpoint key mismatch: stored (", Ck.Key, ", ",
                       Ck.NodeId, "), expected (", Key, ", ", *It, ")");
            std::vector<std::optional<CipherTensor<B>>> NewVals(Vals.size());
            for (CheckpointValue &CV : Ck.Values) {
              CHET_CHECK(CV.NodeId >= 0 &&
                             CV.NodeId < static_cast<int>(NewVals.size()),
                         MalformedCiphertext,
                         "checkpoint names node ", CV.NodeId,
                         " outside the circuit");
              CipherTensor<B> V;
              V.L = CV.L;
              for (const ByteBuffer &Buf : CV.Cts) {
                typename B::Ct C{};
                deserializeOrThrow(Buf, C);
                V.Cts.push_back(std::move(C));
              }
              NewVals[CV.NodeId] = std::move(V);
            }
            Vals = std::move(NewVals);
            ++Report.CheckpointsRestored;
            LastCkptNode = *It;
            Resume = *It + 1;
            break;
          } catch (const ChetError &E) {
            ++Report.CorruptCheckpointsDiscarded;
            noteFault(E, *It, "checkpoint-store", 0);
            Cfg.Store->erase(Key, *It);
          }
        }
      }
    }
    Report.RestoreSeconds += T.seconds();
    return Resume;
  }

  B &Backend;
  const TensorCircuit &Circ;
  SessionConfig Cfg;
  SessionReport Report;
  uint64_t Key = 0;
  std::vector<bool> NeedsMask;
  std::vector<int> LastUse;
  int LastCkptNode = -1;
  int Farthest = -1;
  uint64_t CtsSinceCkpt = 0;
  double AvgCtBytes = 0;
};

} // namespace chet

#endif // CHET_RUNTIME_SESSION_H
