//===- Evaluate.h - Homomorphic tensor-circuit evaluator -------*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a tensor circuit against any HISA backend under one of the
/// paper's four pruned layout policies (Section 5.3). This single
/// template is the heart of CHET's re-interpretation design (Section 5.1):
/// run it with a real CKKS backend and it performs encrypted inference;
/// run it with the PlainBackend and it is the reference engine; run it
/// with an analysis backend and it *is* the dataflow analysis -- the
/// "dynamically unrolled" circuit never exists as an explicit graph.
///
//===----------------------------------------------------------------------===//

#ifndef CHET_CORE_EVALUATE_H
#define CHET_CORE_EVALUATE_H

#include "core/Ir.h"
#include "runtime/Kernels.h"
#include "support/Error.h"
#include "support/Prng.h"

#include <chrono>
#include <optional>
#include <thread>

namespace chet {

/// The four layout policies the compiler searches (Section 5.3):
///   AllHW   -- every operation in HW;
///   AllCHW  -- every operation in CHW;
///   ConvHW  -- "HW-conv, CHW-rest": switch to HW before each convolution
///              and back to CHW after it;
///   FcCHW   -- "CHW-fc, HW-before": HW until the first fully connected
///              layer, CHW from there on.
enum class LayoutPolicy { AllHW, AllCHW, ConvHW, FcCHW };

inline const char *layoutPolicyName(LayoutPolicy P) {
  switch (P) {
  case LayoutPolicy::AllHW:
    return "HW";
  case LayoutPolicy::AllCHW:
    return "CHW";
  case LayoutPolicy::ConvHW:
    return "HW-conv,CHW-rest";
  case LayoutPolicy::FcCHW:
    return "CHW-fc,HW-before";
  }
  return "?";
}

inline constexpr LayoutPolicy kAllLayoutPolicies[] = {
    LayoutPolicy::AllHW, LayoutPolicy::AllCHW, LayoutPolicy::ConvHW,
    LayoutPolicy::FcCHW};

/// Layout the encryptor must use for the circuit input under a policy.
inline TensorLayout circuitInputLayout(const TensorCircuit &Circ,
                                       LayoutPolicy Policy, size_t Slots) {
  const OpNode &In = Circ.ops().front();
  LayoutKind Kind = Policy == LayoutPolicy::AllCHW ? LayoutKind::CHW
                                                   : LayoutKind::HW;
  return makeInputLayout(Kind, In.C, In.H, In.W, Circ.padPhysNeeded(),
                         Slots);
}

namespace detail {

/// Computes, per node, whether its output must have zeroed margins: true
/// iff a padded convolution will (transitively) read its margins.
/// Activations and concatenations are margin-transparent -- they preserve
/// zeros but cannot create them -- so the need propagates up through
/// them. Unmasked outputs skip one multiplicative level (Section 3.1's
/// masking-cost discussion).
inline std::vector<bool> computeMaskNeeds(const TensorCircuit &Circ,
                                          LayoutPolicy Policy) {
  const auto &Ops = Circ.ops();
  std::vector<bool> Needs(Ops.size(), false);
  // Consumers follow their operands (ops are topologically ordered), so
  // walking backwards finishes each node before it pushes to its inputs.
  for (int Id = static_cast<int>(Ops.size()) - 1; Id >= 0; --Id) {
    const OpNode &Node = Ops[Id];
    // Under ConvHW every convolution output is converted HW -> CHW, which
    // sums channel blocks and therefore requires zero slack.
    if (Policy == LayoutPolicy::ConvHW && Node.Kind == OpKind::Conv2d)
      Needs[Id] = true;
    bool Transparent = Node.Kind == OpKind::ConcatChannels ||
                       Node.Kind == OpKind::PolyActivation ||
                       Node.Kind == OpKind::Output;
    if ((Node.Kind == OpKind::Conv2d && Node.Pad > 0) ||
        (Transparent && Needs[Id]))
      for (int In : Node.Inputs)
        Needs[In] = true;
  }
  return Needs;
}

/// Evaluates one non-Output node of \p Circ into \p Vals, reading its
/// operands from earlier entries. This is the single-step form of
/// evaluateCircuit below, factored out so the InferenceSession layer
/// (runtime/Session.h) can drive the node loop itself -- inserting
/// checkpoint, integrity-check, retry, and deadline logic at node
/// boundaries -- while the per-node kernel dispatch stays in exactly one
/// place. Announces the node to provenance-sink backends, so injected
/// faults and verifier diagnostics carry op -> node -> layer attribution.
///
/// Operands in \p Vals are never mutated (kernels copy before assigning),
/// so a node whose evaluation throws can be retried in place: only
/// Vals[Node.Id] is (re)assigned.
template <HisaBackend B>
void evaluateNode(B &Backend, const OpNode &Node,
                  std::vector<std::optional<CipherTensor<B>>> &Vals,
                  const std::vector<bool> &NeedsMask,
                  const CipherTensor<B> &Input, const ScaleConfig &S,
                  LayoutPolicy Policy, FcAlgorithm FcAlg = FcAlgorithm::Auto,
                  EncodedPlaintextCache<B> *PtCache = nullptr) {
  if constexpr (HisaProvenanceSink<B>)
    Backend.beginNode(Node.Id, Node.Label);
  KernelCache<B> KC{PtCache, static_cast<uint64_t>(Node.Id)};
  switch (Node.Kind) {
  case OpKind::Input: {
    CipherTensor<B> V;
    V.L = Input.L;
    for (const auto &Ct : Input.Cts)
      V.Cts.push_back(Backend.copy(Ct));
    Vals[Node.Id] = std::move(V);
    break;
  }
  case OpKind::Conv2d: {
    const CipherTensor<B> &Src = *Vals[Node.Inputs[0]];
    if (Policy == LayoutPolicy::ConvHW &&
        Src.L.Kind != LayoutKind::HW) {
      CipherTensor<B> AsHw =
          convertLayout(Backend, Src, LayoutKind::HW, S, KC);
      CipherTensor<B> Conv = conv2d(Backend, AsHw, Node.Conv, Node.Stride,
                                    Node.Pad, S, NeedsMask[Node.Id], KC);
      Vals[Node.Id] = convertLayout(Backend, Conv, LayoutKind::CHW, S, KC);
    } else {
      CipherTensor<B> Conv = conv2d(Backend, Src, Node.Conv, Node.Stride,
                                    Node.Pad, S, NeedsMask[Node.Id], KC);
      if (Policy == LayoutPolicy::ConvHW)
        Vals[Node.Id] = convertLayout(Backend, Conv, LayoutKind::CHW, S, KC);
      else
        Vals[Node.Id] = std::move(Conv);
    }
    break;
  }
  case OpKind::AveragePool:
  case OpKind::GlobalAveragePool:
    Vals[Node.Id] =
        averagePool(Backend, *Vals[Node.Inputs[0]], Node.PoolK,
                    Node.PoolStride, S, NeedsMask[Node.Id], KC);
    break;
  case OpKind::PolyActivation:
    Vals[Node.Id] = polyActivation(Backend, *Vals[Node.Inputs[0]],
                                   Node.A2, Node.A1, S);
    break;
  case OpKind::FullyConnected: {
    LayoutKind OutKind = Policy == LayoutPolicy::AllHW ? LayoutKind::HW
                                                       : LayoutKind::CHW;
    Vals[Node.Id] = fullyConnected(Backend, *Vals[Node.Inputs[0]],
                                   Node.Fc, S, OutKind, FcAlg, KC);
    break;
  }
  case OpKind::ConcatChannels:
    Vals[Node.Id] = concatChannels(Backend, *Vals[Node.Inputs[0]],
                                   *Vals[Node.Inputs[1]], S, KC);
    break;
  case OpKind::Output:
    break; // handled by the caller (the value is Vals[Node.Inputs[0]])
  }
}

} // namespace detail

/// Evaluates \p Circ on the encrypted \p Input (packed per
/// circuitInputLayout for the same policy). Returns the encrypted output
/// tensor. When \p PtCache is non-null, every weight/mask/bias encoding
/// goes through it keyed by the producing node's id, so repeated
/// inferences of the same circuit encode each plaintext once.
///
/// Honors a cooperative deadline (support/Deadline.h) installed on the
/// calling thread: checked at every node boundary (and inside
/// parallelReduce folds), aborting with DeadlineExceededError. With no
/// deadline installed the check is a null-pointer load -- behavior is
/// unchanged.
template <HisaBackend B>
CipherTensor<B> evaluateCircuit(B &Backend, const TensorCircuit &Circ,
                                const CipherTensor<B> &Input,
                                const ScaleConfig &S, LayoutPolicy Policy,
                                FcAlgorithm FcAlg = FcAlgorithm::Auto,
                                EncodedPlaintextCache<B> *PtCache = nullptr) {
  const auto &Ops = Circ.ops();
  std::vector<bool> NeedsMask = detail::computeMaskNeeds(Circ, Policy);
  std::vector<std::optional<CipherTensor<B>>> Vals(Ops.size());
  if (PtCache)
    PtCache->noteScales(S);

  // Last consumer of each value, so dead entries are released as soon as
  // evaluation passes them: the live frontier -- not the whole table --
  // bounds peak memory, matching the static footprint analysis' model
  // (core/FootprintAnalysis.h). Values are plain data, so early release
  // cannot change any computed byte.
  std::vector<int> LastUse(Ops.size(), -1);
  for (const OpNode &Node : Ops)
    for (int In : Node.Inputs)
      LastUse[In] = std::max(LastUse[In], Node.Id);

  for (const OpNode &Node : Ops) {
    checkActiveDeadline("node boundary");
    if (Node.Kind == OpKind::Output) {
      if constexpr (HisaProvenanceSink<B>)
        Backend.beginNode(Node.Id, Node.Label);
      return std::move(*Vals[Node.Inputs[0]]);
    }
    detail::evaluateNode(Backend, Node, Vals, NeedsMask, Input, S, Policy,
                         FcAlg, PtCache);
    for (int J = 0; J <= Node.Id; ++J)
      if (Vals[J] && LastUse[J] <= Node.Id)
        Vals[J].reset();
  }
  // A well-formed circuit ends in an Output node.
  throw InvalidArgumentError("circuit has no output node");
}

/// Convenience wrapper: encrypt, evaluate, decrypt (used by tests, the
/// examples, and the profile-guided scale search).
template <HisaBackend B>
Tensor3 runEncryptedInference(B &Backend, const TensorCircuit &Circ,
                              const Tensor3 &Image, const ScaleConfig &S,
                              LayoutPolicy Policy,
                              FcAlgorithm FcAlg = FcAlgorithm::Auto,
                              EncodedPlaintextCache<B> *PtCache = nullptr) {
  TensorLayout L = circuitInputLayout(Circ, Policy, Backend.slotCount());
  CipherTensor<B> Enc = encryptTensor(Backend, Image, L, S);
  CipherTensor<B> Out =
      evaluateCircuit(Backend, Circ, Enc, S, Policy, FcAlg, PtCache);
  return decryptTensor(Backend, Out);
}

/// Bounded-retry policy for transient backend faults (dropped network
/// packets, injected TransientBackendFault, ...). Attempt k > 1 is
/// preceded by a backoff sleep of
///   min(BackoffBaseSeconds * BackoffFactor^(k-2), BackoffMaxSeconds)
/// scaled by (0.5 + 0.5 * jitter) with jitter drawn from a Prng seeded by
/// JitterSeed -- exponential backoff that de-synchronizes retry storms
/// while staying exactly reproducible. BackoffBaseSeconds = 0 restores
/// the immediate-retry behavior.
struct RetryPolicy {
  /// Total attempts, including the first; must be >= 1.
  int MaxAttempts = 3;
  double BackoffBaseSeconds = 0.0005;
  double BackoffFactor = 2.0;
  double BackoffMaxSeconds = 0.05;
  uint64_t JitterSeed = 0x5e551077;
};

namespace detail {
/// Sleeps the deterministic jittered backoff before retry \p Attempt
/// (the attempt that just failed). Shared by runEncryptedInferenceWithRetry
/// and the InferenceSession layer.
inline void retryBackoff(const RetryPolicy &Retry, int Attempt,
                         Prng &Jitter) {
  double D = Retry.BackoffBaseSeconds;
  for (int I = 1; I < Attempt; ++I)
    D *= Retry.BackoffFactor;
  D = std::min(D, Retry.BackoffMaxSeconds);
  D *= 0.5 + 0.5 * Jitter.nextDouble();
  if (D > 0)
    std::this_thread::sleep_for(std::chrono::duration<double>(D));
}
} // namespace detail

/// Like runEncryptedInference, but retries the whole encrypt -> evaluate
/// -> decrypt round trip when the backend raises a *transient* ChetError
/// (ChetError::isTransient()), waiting out an exponentially growing,
/// deterministically jittered backoff between attempts. Each attempt
/// re-encrypts the input from scratch, so a corrupted ciphertext never
/// survives into the retry. Non-transient errors and exhaustion of the
/// attempt budget rethrow the last error to the caller.
template <HisaBackend B>
Tensor3 runEncryptedInferenceWithRetry(B &Backend, const TensorCircuit &Circ,
                                       const Tensor3 &Image,
                                       const ScaleConfig &S,
                                       LayoutPolicy Policy,
                                       const RetryPolicy &Retry = {},
                                       FcAlgorithm FcAlg = FcAlgorithm::Auto,
                                       int *AttemptsOut = nullptr,
                                       EncodedPlaintextCache<B> *PtCache =
                                           nullptr) {
  CHET_CHECK(Retry.MaxAttempts >= 1, InvalidArgument,
             "retry policy needs at least one attempt, got ",
             Retry.MaxAttempts);
  Prng Jitter(Retry.JitterSeed);
  for (int Attempt = 1;; ++Attempt) {
    if (AttemptsOut)
      *AttemptsOut = Attempt;
    try {
      return runEncryptedInference(Backend, Circ, Image, S, Policy, FcAlg,
                                   PtCache);
    } catch (const ChetError &E) {
      if (!E.isTransient() || Attempt >= Retry.MaxAttempts)
        throw;
      detail::retryBackoff(Retry, Attempt, Jitter);
    }
  }
}

} // namespace chet

#endif // CHET_CORE_EVALUATE_H
