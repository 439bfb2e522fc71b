//===- BenchUtil.h - Shared benchmark-harness helpers ----------*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the per-table/per-figure benchmark binaries: network
/// selection with per-network default reductions (sized for a single-core
/// container; pass --full to run the paper-size models), one-shot
/// compile/keygen/inference timing, and simple table printing.
///
//===----------------------------------------------------------------------===//

#ifndef CHET_BENCH_BENCHUTIL_H
#define CHET_BENCH_BENCHUTIL_H

#include "core/Compiler.h"
#include "nn/Networks.h"
#include "runtime/ReferenceOps.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

namespace chet {
namespace bench {

/// A network selected for benchmarking, with its reduction factor.
struct NetChoice {
  std::string Name;
  int Reduction = 1;
  std::function<TensorCircuit(int)> Build;

  TensorCircuit build() const { return Build(Reduction); }
  std::string label() const {
    return Reduction == 1 ? Name
                          : Name + "(1/" + std::to_string(Reduction) + ")";
  }
};

/// Default per-network reductions that keep a full bench run tractable on
/// one core while preserving every structural property the experiments
/// measure. --full sets all reductions to 1 (paper-size models).
inline std::vector<NetChoice> chooseNetworks(int Argc, char **Argv,
                                             std::vector<std::string>
                                                 Defaults) {
  bool Full = false;
  std::vector<std::string> Wanted;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--full"))
      Full = true;
    else if (Argv[I][0] != '-')
      Wanted.push_back(Argv[I]);
  }
  if (Wanted.empty())
    Wanted = std::move(Defaults);

  auto DefaultReduction = [&](const std::string &Name) {
    if (Full)
      return 1;
    if (Name == "LeNet-5-small")
      return 2;
    if (Name == "LeNet-5-medium")
      return 4;
    if (Name == "LeNet-5-large")
      return 8;
    if (Name == "Industrial")
      return 8;
    return 8; // SqueezeNet-CIFAR
  };

  std::vector<NetChoice> Out;
  for (const NetworkEntry &Entry : networkZoo()) {
    for (const std::string &W : Wanted) {
      if (W != Entry.Name)
        continue;
      Out.push_back({Entry.Name, DefaultReduction(Entry.Name), Entry.Build});
    }
  }
  return Out;
}

/// Strips a `--threads N` (or `--threads=N`) flag out of (Argc, Argv) and
/// resizes the global pool accordingly (0 / absent keeps the
/// CHET_NUM_THREADS / hardware default). Returns the active lane count.
/// A value parseThreadCount rejects throws InvalidArgumentError before
/// the pool is touched. Call before handing the arguments to any other
/// parser.
inline unsigned applyThreadsFlag(int &Argc, char **Argv) {
  unsigned Requested = 0;
  int W = 1;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--threads") && I + 1 < Argc) {
      Requested = parseThreadCount(Argv[I + 1]);
      ++I;
      continue;
    }
    if (!std::strncmp(Argv[I], "--threads=", 10)) {
      Requested = parseThreadCount(Argv[I] + 10);
      continue;
    }
    Argv[W++] = Argv[I];
  }
  Argc = W;
  setGlobalThreadCount(Requested);
  return globalThreadCount();
}

/// Strips `--json FILE` (or `--json=FILE`) out of (Argc, Argv); returns
/// the file path or "" when absent.
inline std::string stripJsonFlag(int &Argc, char **Argv) {
  std::string Path;
  int W = 1;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--json") && I + 1 < Argc) {
      Path = Argv[I + 1];
      ++I;
      continue;
    }
    if (!std::strncmp(Argv[I], "--json=", 7)) {
      Path = Argv[I] + 7;
      continue;
    }
    Argv[W++] = Argv[I];
  }
  Argc = W;
  return Path;
}

/// Appends one line to \p Path (no-op on an empty path). Benches emit
/// their measurements as JSON lines so trajectories accumulate across
/// runs with different --threads values.
inline void appendLine(const std::string &Path, const std::string &Line) {
  if (Path.empty())
    return;
  if (std::FILE *F = std::fopen(Path.c_str(), "a")) {
    std::fprintf(F, "%s\n", Line.c_str());
    std::fclose(F);
  }
}

/// Fast-mode fixed-point scales: small enough to keep ring dimensions
/// tractable, large enough for prediction agreement.
inline ScaleConfig benchScales() {
  return ScaleConfig::fromExponents(25, 25, 25, 12);
}

struct RunResult {
  double CompileSec = 0;
  double KeygenSec = 0;
  double InferSec = 0; ///< Encrypt + evaluate + decrypt (batch size 1).
  double MaxErr = 0;
  bool PredictionAgrees = false;
  CompiledCircuit Compiled;
};

/// Compiles, instantiates the backend (key generation), and runs one
/// encrypted inference, checking the result against the plain reference.
inline RunResult runOnce(const TensorCircuit &Circ,
                         const CompilerOptions &Options, uint64_t Seed = 1) {
  RunResult R;
  Timer T;
  R.Compiled = compileCircuit(Circ, Options);
  R.CompileSec = T.seconds();

  Tensor3 Image = randomImageFor(Circ, Seed);
  Tensor3 Want = Circ.evaluatePlain(Image);

  auto Finish = [&](Tensor3 Got) {
    R.MaxErr = maxAbsDiff(Got, Want);
    R.PredictionAgrees = argmax(Got) == argmax(Want);
  };

  if (Options.Scheme == SchemeKind::RnsCkks) {
    T.reset();
    RnsCkksBackend Backend = makeRnsBackend(R.Compiled);
    R.KeygenSec = T.seconds();
    T.reset();
    Tensor3 Got = runEncryptedInference(Backend, Circ, Image,
                                        R.Compiled.Scales,
                                        R.Compiled.Policy);
    R.InferSec = T.seconds();
    Finish(std::move(Got));
  } else {
    T.reset();
    BigCkksBackend Backend = makeBigBackend(R.Compiled);
    R.KeygenSec = T.seconds();
    T.reset();
    Tensor3 Got = runEncryptedInference(Backend, Circ, Image,
                                        R.Compiled.Scales,
                                        R.Compiled.Policy);
    R.InferSec = T.seconds();
    Finish(std::move(Got));
  }
  return R;
}

inline void printHeader(const char *Title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", Title);
  std::printf("================================================================\n");
}

} // namespace bench
} // namespace chet

#endif // CHET_BENCH_BENCHUTIL_H
