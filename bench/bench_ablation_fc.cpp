//===- bench_ablation_fc.cpp - Ablation: FC algorithm choice -------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation study for a runtime design choice DESIGN.md calls out: the
/// fully-connected kernel. The per-row replicate-and-sum kernel pays
/// Out * log2(slots) rotations; the shared-tree kernel (DESIGN.md §5l)
/// packs the rows into copies of the input and pays about log2(slots)
/// (Cts * copy bits + groups * sum bits); the Halevi-Shoup
/// baby-step/giant-step diagonal method pays ~2*sqrt(slots) rotations plus
/// one plaintext multiplication per nonzero generalized diagonal. The
/// dispatcher's heuristic (fcAlgorithmFor) still prices the per-row
/// kernel.
///
/// Sweeps the output width of a single FC layer on one 8x8 channel under
/// RNS-CKKS and prints each kernel's latency and key-switch count
/// (rotations, counting every power-of-two hop under the stock key set)
/// and the heuristic's choice.
///
/// Usage: bench_ablation_fc
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace chet;
using namespace chet::bench;

namespace {

FcWeights fcWeights(int Out, uint64_t Seed) {
  Prng Rng(Seed);
  FcWeights Wt(Out, 8 * 8);
  for (double &V : Wt.W)
    V = Rng.nextDouble(-0.3, 0.3);
  return Wt;
}

TensorCircuit fcCircuit(const FcWeights &Wt) {
  TensorCircuit Circ("fc" + std::to_string(Wt.Out));
  int X = Circ.input(1, 8, 8);
  X = Circ.fullyConnected(X, Wt);
  Circ.output(X);
  return Circ;
}

enum class Kernel { PerRow, Packed, Bsgs };

template <HisaBackend B>
CipherTensor<B> runKernel(B &Backend, const CipherTensor<B> &In,
                          const FcWeights &Wt, const ScaleConfig &S,
                          Kernel K) {
  switch (K) {
  case Kernel::PerRow:
    return fullyConnectedPlanned(Backend, In, Wt, S,
                                 perRowFcPlan(In.L, Wt, LayoutKind::CHW));
  case Kernel::Packed:
    return fullyConnectedReplicate(Backend, In, Wt, S);
  case Kernel::Bsgs:
    return fullyConnectedBsgs(Backend, In, Wt, S);
  }
  return {};
}

} // namespace

int main() {
  printHeader("Ablation: fully-connected kernel -- per-row vs shared-tree "
              "replicate vs baby-step/giant-step");
  std::printf("%-8s %12s %6s %12s %6s %12s %6s %10s\n", "outputs",
              "per-row (s)", "rots", "packed (s)", "rots", "BSGS (s)", "rots",
              "heuristic");

  // One 8x8 channel spans 6 slot bits, so up to slots/64 rows fit the
  // shared tree's copies; wider layers fall back to per-row.
  for (int Out : {4, 16, 64, 256}) {
    FcWeights Wt = fcWeights(Out, 100 + Out);
    TensorCircuit Circ = fcCircuit(Wt);
    CompilerOptions O;
    O.Scheme = SchemeKind::RnsCkks;
    O.Security = SecurityLevel::None;
    O.Scales = benchScales();
    O.SearchLayouts = false;
    O.FixedPolicy = LayoutPolicy::AllCHW;
    // Stock power-of-two keys: every kernel runs under identical key
    // material (the selected-key sets would differ per kernel).
    O.SelectRotationKeys = false;
    CompiledCircuit C = compileCircuit(Circ, O);
    RnsCkksBackend Backend = makeRnsBackend(C);
    TensorLayout L = circuitInputLayout(Circ, C.Policy, Backend.slotCount());

    Tensor3 Image = randomImageFor(Circ, Out);
    Tensor3 Want = Circ.evaluatePlain(Image);
    auto Enc = encryptTensor(Backend, Image, L, C.Scales);
    std::printf("%-8d", Out);
    for (Kernel K : {Kernel::PerRow, Kernel::Packed, Kernel::Bsgs}) {
      AnalysisConfig Cfg;
      Cfg.Scheme = SchemeKind::RnsCkks;
      Cfg.LogN = C.LogN;
      Cfg.ScalePrimeCandidates.assign(16, uint64_t(1) << 30);
      Cfg.SelectedRotationKeys = false;
      AnalysisBackend AB(Cfg);
      (void)runKernel(AB, encryptTensor(AB, Image, L, C.Scales), Wt, C.Scales,
                      K);
      uint64_t Rots = AB.opCounts().count("rotate")
                          ? AB.opCounts().at("rotate")
                          : 0;
      if (AB.opCounts().count("rotateHops"))
        Rots += AB.opCounts().at("rotateHops");

      Timer T;
      Tensor3 Got =
          decryptTensor(Backend, runKernel(Backend, Enc, Wt, C.Scales, K));
      double Seconds = T.seconds();
      if (maxAbsDiff(Got, Want) > 0.5)
        std::printf("  WARNING: large error\n");
      std::printf(" %12.2f %6llu", Seconds,
                  static_cast<unsigned long long>(Rots));
      std::fflush(stdout);
    }
    FcAlgorithm Chosen = fcAlgorithmFor(L, Wt, LayoutKind::CHW);
    std::printf(" %10s\n", Chosen == FcAlgorithm::Bsgs ? "BSGS" : "replicate");
    std::fflush(stdout);
  }
  std::printf("\nShape check: per-row scales linearly with the output "
              "count; the shared tree stays near log2(slots) while the rows "
              "fit one ciphertext's copies; BSGS is flat.\n");
  return 0;
}
