//===- bench_table3_networks.cpp - Table 3: the network zoo --------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Table 3 of the paper: per network, the number of
/// convolutional / fully connected / activation layers and the number of
/// floating-point operations of one inference, next to the paper's
/// figures. Layer counts must match the paper exactly; FP-operation
/// counts are of the same magnitude (our LeNet feature-map sizes are
/// reconstructed -- the paper does not list them).
///
/// The paper's accuracy column is replaced by the encrypted-vs-plain
/// prediction agreement measured across the other benches (trained MNIST /
/// CIFAR weights are not available offline; see DESIGN.md).
///
/// Additionally measures end-to-end encrypted-inference latency on the
/// selected networks (default: the LeNet-5-small variant) at the thread
/// count given by `--threads N` (default: CHET_NUM_THREADS / hardware),
/// emitting one JSON line per run to the `--json FILE` trajectory so a
/// threads=1,2,4,8 sweep accumulates a speedup curve.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/Verifier.h"

#include <sstream>

using namespace chet;
using namespace chet::bench;

namespace {
struct PaperRow {
  const char *Name;
  int Conv, Fc, Act;
  long long FpOps;
  double Accuracy;
};
constexpr PaperRow kPaper[] = {
    {"LeNet-5-small", 2, 2, 4, 159960, 98.5},
    {"LeNet-5-medium", 2, 2, 4, 5791168, 99.0},
    {"LeNet-5-large", 2, 2, 4, 21385674, 99.3},
    {"Industrial", 5, 2, 6, -1, -1},
    {"SqueezeNet-CIFAR", 10, 0, 9, 37759754, 81.5},
};
} // namespace

int main(int Argc, char **Argv) {
  unsigned Threads = applyThreadsFlag(Argc, Argv);
  std::string JsonPath = stripJsonFlag(Argc, Argv);

  printHeader("Table 3: deep neural networks used in the evaluation");
  std::printf("%-20s | %4s %4s %4s %12s | paper: %4s %4s %4s %12s %6s\n",
              "network", "conv", "fc", "act", "#FP ops", "conv", "fc",
              "act", "#FP ops", "acc%");
  auto Zoo = networkZoo();
  for (size_t I = 0; I < Zoo.size(); ++I) {
    TensorCircuit Circ = Zoo[I].Build(1); // full-size models
    const PaperRow &P = kPaper[I];
    std::printf("%-20s | %4d %4d %4d %12llu | %11d %4d %4d %12lld %6.1f\n",
                Zoo[I].Name.c_str(), Circ.convLayerCount(),
                Circ.fcLayerCount(), Circ.activationLayerCount(),
                static_cast<unsigned long long>(Circ.fpOperationCount()),
                P.Conv, P.Fc, P.Act, P.FpOps, P.Accuracy);
  }
  std::printf("\nDepth (ct-ct multiplications): ");
  for (const auto &Entry : Zoo)
    std::printf("%s=%d  ", Entry.Name.c_str(),
                Entry.Build(1).ctMultiplicativeDepth());
  std::printf("\n");

  // Encrypted-inference latency at the requested thread count.
  std::vector<NetChoice> Nets =
      chooseNetworks(Argc, Argv, {"LeNet-5-small"});
  unsigned HostCores = std::thread::hardware_concurrency();
  printHeader("Encrypted-inference latency (RNS-CKKS)");
  std::printf("threads=%u  host_cores=%u\n", Threads, HostCores);
  for (const NetChoice &Net : Nets) {
    TensorCircuit Circ = Net.build();
    CompilerOptions Options;
    Options.Scheme = SchemeKind::RnsCkks;
    Options.Security = SecurityLevel::None;
    Options.Scales = benchScales();
    RunResult R = runOnce(Circ, Options);
    std::printf("%-24s compile=%.2fs keygen=%.2fs infer=%.3fs maxErr=%.2g "
                "agree=%d\n",
                Net.label().c_str(), R.CompileSec, R.KeygenSec, R.InferSec,
                R.MaxErr, R.PredictionAgrees);

    // Post-compile audit budget: one audit pass over the compiled
    // artifact (verifyCircuit is a view of it, along with the noise and
    // footprint reports) must stay under 5% of compile time. Both sides
    // are the best of five back-to-back runs: the first call after a
    // multi-second inference pays a one-time allocator warmup, and one
    // millisecond-scale compile timing swings by more than the margin.
    double CompileSec = 0, VerifySec = 0;
    VerificationReport VR;
    for (int Rep = 0; Rep < 5; ++Rep) {
      Timer CT;
      compileCircuit(Circ, Options);
      double Sec = CT.seconds();
      if (Rep == 0 || Sec < CompileSec)
        CompileSec = Sec;
    }
    for (int Rep = 0; Rep < 5; ++Rep) {
      Timer VT;
      VR = verifyCircuit(Circ, R.Compiled);
      double Sec = VT.seconds();
      if (Rep == 0 || Sec < VerifySec)
        VerifySec = Sec;
    }
    std::printf("    audit=%.3fs (%.1f%% of compile, %zu diagnostics)\n",
                VerifySec, 100.0 * VerifySec / CompileSec,
                VR.Diagnostics.size());
    std::printf("%s", VR.depthTableStr().c_str());
    if (VerifySec >= 0.05 * CompileSec) {
      std::fprintf(stderr,
                   "FAIL: the post-compile audit took %.3fs, >= 5%% of the "
                   "%.3fs compile time\n",
                   VerifySec, CompileSec);
      return 1;
    }

    std::ostringstream JS;
    JS << "{\"bench\":\"table3_latency\",\"network\":\"" << Net.label()
       << "\",\"threads\":" << Threads << ",\"host_cores\":" << HostCores
       << ",\"compile_sec\":" << R.CompileSec
       << ",\"keygen_sec\":" << R.KeygenSec
       << ",\"infer_sec\":" << R.InferSec
       << ",\"verify_sec\":" << VerifySec << ",\"max_err\":" << R.MaxErr
       << ",\"prediction_agrees\":" << (R.PredictionAgrees ? "true" : "false")
       << "}";
    appendLine(JsonPath, JS.str());
    if (!JsonPath.empty())
      std::printf("    appended JSON line to %s\n", JsonPath.c_str());
  }
  return 0;
}
