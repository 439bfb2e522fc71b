//===- bench_noise.cpp - Static noise bound vs measured error -------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The soundness gate of the static range/noise analysis
/// (core/NoiseAnalysis.h): for every zoo network and both CKKS variants
/// it compiles the circuit, reads the static worst-case output error
/// bound off the artifact, then measures the real encrypted-vs-plain
/// error at 1, 2, and 8 threads. The bound must dominate every
/// measurement; the looseness ratio (bound / measured) is reported so
/// regressions in the model's tightness are visible across runs.
///
/// Modes:
///   (default)      soundness table + per-network JSON lines (--json)
///   --check-only   same sweep as a hard gate, plus the scale-search
///                  pruning demonstration (static accepts must shrink
///                  the number of encrypted trial runs without changing
///                  the chosen scales) and the post-compile audit budget
///                  (one audit pass -- analyzeNoise is a view of it --
///                  under 5% of compile time on the largest network of
///                  the sweep); exits nonzero on any violation
///   --analyze-only static analysis only, no keys and no ciphertexts:
///                  compiles every network with MaxOutputError set to
///                  its zoo PrecisionTarget, so a model regression that
///                  blows the bound past the target fails the run (the
///                  Debug CI job's cheap full-zoo pass)
///
/// Shares the other benches' fast-mode configuration (benchScales,
/// SecurityLevel::None, per-network default reductions; --full for the
/// paper-size models). The zoo's PrecisionTarget values are calibrated
/// against exactly this configuration.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/NoiseAnalysis.h"

#include <cstring>
#include <sstream>

using namespace chet;
using namespace chet::bench;

namespace {

/// Strips every occurrence of \p Flag out of (Argc, Argv); returns
/// whether it appeared.
bool stripFlag(int &Argc, char **Argv, const char *Flag) {
  bool Found = false;
  int W = 1;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], Flag)) {
      Found = true;
      continue;
    }
    Argv[W++] = Argv[I];
  }
  Argc = W;
  return Found;
}

CompilerOptions baseOptions(SchemeKind Scheme) {
  CompilerOptions Options;
  Options.Scheme = Scheme;
  Options.Security = SecurityLevel::None;
  Options.Scales = benchScales();
  return Options;
}

const char *schemeTag(SchemeKind S) {
  return S == SchemeKind::RnsCkks ? "rns" : "big";
}

double precisionTargetFor(const std::string &Name) {
  for (const NetworkEntry &Entry : networkZoo())
    if (Entry.Name == Name)
      return Entry.PrecisionTarget;
  return 0;
}

/// Static-only pass: every network must compile with its PrecisionTarget
/// enforced (a PrecisionBound throw is a model regression). Returns the
/// number of failures.
int analyzeOnly(const std::vector<NetChoice> &Nets) {
  printHeader("Static noise analysis over the network zoo (no ciphertexts)");
  int Failures = 0;
  for (const NetChoice &Net : Nets) {
    TensorCircuit Circ = Net.build();
    for (SchemeKind Scheme : {SchemeKind::RnsCkks, SchemeKind::BigCkks}) {
      CompilerOptions Options = baseOptions(Scheme);
      Options.MaxOutputError = precisionTargetFor(Net.Name);
      try {
        Timer T;
        CompiledCircuit Compiled = compileCircuit(Circ, Options);
        std::printf("%-24s %-4s bound=%.3e target=%.0e (compile %.2fs) ok\n",
                    Net.label().c_str(), schemeTag(Scheme),
                    Compiled.Noise.ErrorBound, Options.MaxOutputError,
                    T.seconds());
      } catch (const ChetError &E) {
        std::fprintf(stderr, "FAIL: %s [%s]: %s\n", Net.label().c_str(),
                     schemeTag(Scheme), E.what());
        ++Failures;
      }
    }
  }
  return Failures;
}

/// The scale-search pruning demonstration: with a tolerance the starting
/// point's own static bound already satisfies, the static-accept path
/// must skip at least one encrypted trial while choosing exactly the
/// scales the encrypted-only search chooses.
int pruningDemo(const std::string &JsonPath) {
  printHeader("Scale search: static-accept pruning (LeNet-5-small)");
  TensorCircuit Circ = makeLeNet5Small(2);
  CompilerOptions Options = baseOptions(SchemeKind::RnsCkks);
  CompiledCircuit Compiled = compileCircuit(Circ, Options);

  ScaleSearchOptions Search;
  Search.Tolerance = Compiled.Noise.ErrorBound * 2;
  // A shallow descent keeps the demo to a handful of trials; the point
  // is the accounting, not the final exponents.
  Search.MinExponent = 21;
  std::vector<Tensor3> Inputs = {randomImageFor(Circ, 11)};

  ScaleSearchOptions Baseline = Search;
  Baseline.UseStaticBound = false;
  ScaleSearchResult Ref = selectScales(Circ, Options, Inputs, Baseline);
  ScaleSearchResult Got = selectScales(Circ, Options, Inputs, Search);

  bool SameScales = Got.Scales.Image == Ref.Scales.Image &&
                    Got.Scales.Weight == Ref.Scales.Weight &&
                    Got.Scales.Scalar == Ref.Scales.Scalar &&
                    Got.Scales.Mask == Ref.Scales.Mask;
  std::printf("encrypted-only: trials=%d encrypted=%d static=%d\n",
              Ref.Trials, Ref.EncryptedRuns, Ref.StaticAccepts);
  std::printf("with bound:     trials=%d encrypted=%d static=%d\n",
              Got.Trials, Got.EncryptedRuns, Got.StaticAccepts);
  std::printf("final scales identical: %s\n", SameScales ? "yes" : "NO");

  std::ostringstream JS;
  JS << "{\"bench\":\"noise_pruning\",\"network\":\"LeNet-5-small(1/2)\""
     << ",\"trials\":" << Got.Trials
     << ",\"encrypted_runs\":" << Got.EncryptedRuns
     << ",\"static_accepts\":" << Got.StaticAccepts
     << ",\"baseline_encrypted_runs\":" << Ref.EncryptedRuns
     << ",\"scales_identical\":" << (SameScales ? "true" : "false") << "}";
  appendLine(JsonPath, JS.str());

  int Failures = 0;
  if (Got.StaticAccepts < 1) {
    std::fprintf(stderr, "FAIL: no candidate was accepted statically\n");
    ++Failures;
  }
  if (Got.EncryptedRuns >= Ref.EncryptedRuns) {
    std::fprintf(stderr,
                 "FAIL: static bound saved no encrypted runs (%d vs %d)\n",
                 Got.EncryptedRuns, Ref.EncryptedRuns);
    ++Failures;
  }
  if (!SameScales) {
    std::fprintf(stderr, "FAIL: static accepts changed the chosen scales\n");
    ++Failures;
  }
  return Failures;
}

} // namespace

int main(int Argc, char **Argv) {
  bool CheckOnly = stripFlag(Argc, Argv, "--check-only");
  bool AnalyzeOnly = stripFlag(Argc, Argv, "--analyze-only");
  applyThreadsFlag(Argc, Argv); // accepted for interface symmetry
  std::string JsonPath = stripJsonFlag(Argc, Argv);

  std::vector<NetChoice> Nets = chooseNetworks(
      Argc, Argv,
      {"LeNet-5-small", "LeNet-5-medium", "LeNet-5-large", "Industrial",
       "SqueezeNet-CIFAR"});

  if (AnalyzeOnly)
    return analyzeOnly(Nets) == 0 ? 0 : 1;

  int Failures = 0;
  printHeader("Static noise bound vs measured encrypted error");
  std::printf("%-24s %-4s %10s | %10s %10s %10s | %9s %8s\n", "network",
              "sch", "bound", "err(t=1)", "err(t=2)", "err(t=8)",
              "looseness", "analyze");

  // Analysis-overhead budget, checked on the largest network of the
  // sweep (the last zoo entry present).
  double LastAnalyzeSec = 0, LastCompileSec = 0;
  std::string LastLabel;

  const unsigned ThreadCounts[] = {1, 2, 8};
  for (const NetChoice &Net : Nets) {
    TensorCircuit Circ = Net.build();
    Tensor3 Image = randomImageFor(Circ, 7);
    Tensor3 Want = Circ.evaluatePlain(Image);
    double Target = precisionTargetFor(Net.Name);

    for (SchemeKind Scheme : {SchemeKind::RnsCkks, SchemeKind::BigCkks}) {
      CompilerOptions Options = baseOptions(Scheme);
      Options.MaxOutputError = Target;
      Timer CT;
      CompiledCircuit Compiled = compileCircuit(Circ, Options);
      double CompileSec = CT.seconds();
      double Bound = Compiled.Noise.ErrorBound;

      // The audit re-run is what the <5%-of-compile budget prices
      // (compileCircuit already ran the pass once; analyzeNoise is one
      // whole audit). Best of three to shed allocator warmup.
      double AnalyzeSec = 0;
      for (int Rep = 0; Rep < 3; ++Rep) {
        Timer AT;
        analyzeNoise(Circ, Compiled);
        double Sec = AT.seconds();
        if (Rep == 0 || Sec < AnalyzeSec)
          AnalyzeSec = Sec;
      }
      LastAnalyzeSec = AnalyzeSec;
      LastCompileSec = CompileSec;
      LastLabel = Net.label();

      // One key generation per scheme; the thread count only affects
      // kernel execution, not the keys.
      double Measured[3] = {0, 0, 0};
      auto MeasureAll = [&](auto &Backend) {
        for (size_t TI = 0; TI < 3; ++TI) {
          setGlobalThreadCount(ThreadCounts[TI]);
          Tensor3 Got = runEncryptedInference(
              Backend, Circ, Image, Compiled.Scales, Compiled.Policy);
          Measured[TI] = maxAbsDiff(Got, Want);
        }
        setGlobalThreadCount(0);
      };
      if (Scheme == SchemeKind::RnsCkks) {
        RnsCkksBackend Backend = makeRnsBackend(Compiled);
        MeasureAll(Backend);
      } else {
        BigCkksBackend Backend = makeBigBackend(Compiled);
        MeasureAll(Backend);
      }

      double Worst = std::max({Measured[0], Measured[1], Measured[2]});
      double Looseness = Worst > 0 ? Bound / Worst : 0;
      bool Sound = Worst <= Bound;
      if (!Sound) {
        std::fprintf(stderr,
                     "FAIL: %s [%s]: measured error %.3e exceeds the "
                     "static bound %.3e\n",
                     Net.label().c_str(), schemeTag(Scheme), Worst, Bound);
        ++Failures;
      }
      std::printf("%-24s %-4s %10.3e | %10.3e %10.3e %10.3e | %9.1e %7.3fs%s\n",
                  Net.label().c_str(), schemeTag(Scheme), Bound, Measured[0],
                  Measured[1], Measured[2], Looseness, AnalyzeSec,
                  Sound ? "" : "  UNSOUND");

      std::ostringstream JS;
      JS << "{\"bench\":\"noise\",\"network\":\"" << Net.label()
         << "\",\"scheme\":\"" << schemeTag(Scheme)
         << "\",\"bound\":" << Bound << ",\"quant\":" << Compiled.Noise.QuantBound
         << ",\"noise\":" << Compiled.Noise.NoiseBound
         << ",\"target\":" << Target << ",\"measured_t1\":" << Measured[0]
         << ",\"measured_t2\":" << Measured[1]
         << ",\"measured_t8\":" << Measured[2]
         << ",\"looseness\":" << Looseness
         << ",\"analyze_sec\":" << AnalyzeSec
         << ",\"compile_sec\":" << CompileSec
         << ",\"sound\":" << (Sound ? "true" : "false") << "}";
      appendLine(JsonPath, JS.str());
    }
  }

  if (CheckOnly) {
    Failures += pruningDemo(JsonPath);
    printHeader("Post-compile audit budget");
    std::printf("%s: audit=%.3fs compile=%.3fs (%.1f%%)\n",
                LastLabel.c_str(), LastAnalyzeSec, LastCompileSec,
                100.0 * LastAnalyzeSec / LastCompileSec);
    if (LastAnalyzeSec >= 0.05 * LastCompileSec) {
      std::fprintf(stderr,
                   "FAIL: the post-compile audit took %.3fs, >= 5%% of "
                   "the %.3fs "
                   "compile on %s\n",
                   LastAnalyzeSec, LastCompileSec, LastLabel.c_str());
      ++Failures;
    }
  }

  if (Failures)
    std::fprintf(stderr, "\n%d gate failure(s)\n", Failures);
  else
    std::printf("\nall gates passed\n");
  return Failures == 0 ? 0 : 1;
}
