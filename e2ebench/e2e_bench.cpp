//===- e2e_bench.cpp - End-to-end and per-layer benchmark -----------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Runs one named workload in this process and prints, as the last line of
// standard output, one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (setup_s, infer_s,
// compile_s, key_mb, peak_rss_mb, max_abs_err); with --trace 1 they are the
// per-layer ones, taken from a run that wraps the backend in the tracing
// adapter of TracingBackend.h and writes its spans as Chrome trace-event
// JSON to --trace-out. Workloads:
//
//   lenet-rns-128  LeNet-5-small(1/2), RNS-CKKS at 128-bit security.
//   lenet-big-n12  The same network on big-CKKS at SecurityLevel::None.
//   compile-zoo    compileCircuit on the full zoo for both schemes, plus a
//                  plain-backend run of every compiled program.
//
// Every layer is timed from outside, through public calls into nn, core,
// ckks and runtime, and through counters those layers already expose.
// README.md in this directory documents the workloads and metrics.
//
//===----------------------------------------------------------------------===//

#include "TracingBackend.h"

#include "ckks/Serialization.h"
#include "core/Compiler.h"
#include "core/FootprintAnalysis.h"
#include "core/NoiseAnalysis.h"
#include "core/Validate.h"
#include "core/Verifier.h"
#include "hisa/PlainBackend.h"
#include "nn/Networks.h"
#include "runtime/PlaintextCache.h"
#include "runtime/ReferenceOps.h"
#include "support/LimbPool.h"
#include "support/ThreadPool.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace chet;
using namespace chet::e2e;

namespace {

/// Environment variables that silently change the program being measured
/// (thread count, prime-chain width, allocator, NTT kernel, cache budget).
constexpr const char *kRefusedEnv[] = {
    "CHET_NUM_THREADS", "CHET_NARROW_PRIMES", "CHET_LIMB_POOL",
    "CHET_SCALAR_NTT", "CHET_MEMORY_BUDGET_MB"};

/// The paper's tolerance (ScaleSearchOptions::Tolerance): an inference
/// whose output differs from the plain reference by more fails.
constexpr double kTolerance = 0.1;

/// Compiles timed for compile_s on the inference workloads, after set-up
/// and after every warm inference, so the samples span the whole run.
constexpr int kCompileBatch = 10;

/// Fixed images, the same in every run, on which max_abs_err is measured;
/// an inference run starts with them, the cold inference first. Encrypted
/// evaluation is data-oblivious, so images change only the output error,
/// and the largest error over a few random images is an extreme value: over
/// ten seeded images per run it spread 0.14-0.24 (interquartile range over
/// median, ten seeds) on lenet-big-n12, as wide as the metric's bound.
/// Fixed images make max_abs_err a deterministic function of the program,
/// so any change in it is a change in precision.
constexpr int kReferenceImages = 2;

/// Seeded images the inference loop cycles through after the reference
/// ones.
constexpr int kSeededImages = 8;

/// Plain-backend passes over the compiled zoo per compile-zoo run, each on
/// its own reference image per program; infer_s is their median.
constexpr int kPlainPasses = 3;

constexpr double kMiB = 1024.0 * 1024.0;

const char *const kHisaOps[] = {"rotLeftMany", "rotLeft", "mul",
                                "mulPlain", "add", "addPlain",
                                "rescale", "encode", "encrypt",
                                "decrypt"};

/// Node labels of LeNet-5-small, in evaluation order (the default labels
/// TensorCircuit assigns).
const char *const kLeNetNodes[] = {"input", "conv1", "act1", "pool1",
                                   "conv2", "act2", "pool2", "fc1",
                                   "act3",  "fc2",  "act4", "output"};

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Decisions = "e2ebench/expected_decisions.tsv";
  std::string TraceOut; ///< Required with --trace 1.
  std::string WriteDecisions;
};

double secondsBetween(int64_t A, int64_t B) { return double(B - A) * 1e-9; }

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Resident set size now, in MiB.
double rssMb() {
  std::ifstream F("/proc/self/statm");
  long Size = 0, Resident = 0;
  F >> Size >> Resident;
  return double(Resident) * double(sysconf(_SC_PAGESIZE)) / kMiB;
}

/// Peak resident set size of the process, in MiB.
double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0;
}

uint64_t splitmix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

/// Seed of input image \p I of a run seeded with \p Seed.
uint64_t imageSeed(uint64_t Seed, uint64_t I) {
  return splitmix64(splitmix64(Seed) + I);
}

/// Seed of reference image \p I, the same in every run.
uint64_t referenceImageSeed(uint64_t I) { return imageSeed(~0ull, I); }

/// Space-separated samples, for the informational lines.
std::string joined(const std::vector<double> &V) {
  std::string Out;
  char Buf[32];
  for (double X : V) {
    std::snprintf(Buf, sizeof(Buf), "%s%.3f", Out.empty() ? "" : " ", X);
    Out += Buf;
  }
  return Out;
}

ScaleConfig benchScales() { return ScaleConfig::fromExponents(25, 25, 25, 12); }

const char *schemeTag(SchemeKind K) {
  return K == SchemeKind::RnsCkks ? "rns" : "big";
}

/// The plain backend with the fixed-point rounding of the CKKS encoders:
/// encodings, scalar operands and rescaled ciphertexts hold every slot as
/// a multiple of 1/scale. Running a compiled program on it measures the
/// precision the compiler's scale and layout decisions leave, without
/// keys or RLWE noise, and independently of float summation order.
class FixedPointBackend : public PlainBackend {
public:
  using PlainBackend::PlainBackend;

  Pt encode(const std::vector<double> &Values, double Scale) const {
    std::vector<double> Rounded(Values);
    for (double &V : Rounded)
      V = roundTo(V, Scale);
    return PlainBackend::encode(Rounded, Scale);
  }
  void addScalarAssign(Ct &C, double X) const {
    PlainBackend::addScalarAssign(C, roundTo(X, C.Scale));
  }
  void subScalarAssign(Ct &C, double X) const {
    PlainBackend::subScalarAssign(C, roundTo(X, C.Scale));
  }
  void mulScalarAssign(Ct &C, double X, uint64_t Scale) const {
    PlainBackend::mulScalarAssign(C, roundTo(X, double(Scale)), Scale);
  }
  void rescaleAssign(Ct &C, uint64_t Divisor) const {
    PlainBackend::rescaleAssign(C, Divisor);
    for (double &V : C.Values)
      V = roundTo(V, C.Scale);
  }

private:
  static double roundTo(double V, double Scale) {
    return std::nearbyint(V * Scale) / Scale;
  }
};

} // namespace

template <>
inline constexpr bool chet::BackendSupportsParallelKernels<FixedPointBackend> =
    true;

namespace {

/// Ordered metric list plus the run's operation accounting; prints the
/// one-line JSON result.
class Result {
public:
  uint64_t Attempted = 0, Failed = 0;
  bool Correct = true;

  void add(const std::string &Name, double Value, const char *Unit) {
    Metrics.push_back({Name, std::isfinite(Value) ? Value : 0.0, Unit});
  }

  void print() const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                Correct && Failed == 0 ? "true" : "false",
                (unsigned long long)Attempted, (unsigned long long)Failed);
    for (size_t I = 0; I < Metrics.size(); ++I)
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  I ? ", " : "", Metrics[I].Name.c_str(), Metrics[I].Value,
                  Metrics[I].Unit);
    std::printf("}}\n");
    std::fflush(stdout);
  }

private:
  struct Metric {
    std::string Name;
    double Value;
    const char *Unit;
  };
  std::vector<Metric> Metrics;
};

//===----------------------------------------------------------------------===//
// Per-layer bookkeeping shared by the workloads
//===----------------------------------------------------------------------===//

/// Everything the traced run reports. Layers a workload does not exercise
/// keep their zero defaults (the per-layer list is the same for every
/// workload).
struct LayerMetrics {
  double NnBuild = 0;
  double CoreCompile = 0;
  std::map<std::string, double> ZooCompile; ///< "<net>.<scheme>" -> s.
  double Validate = 0, Verify = 0, Noise = 0, Footprint = 0;
  double CostEstimate = 0, NoiseBound = 0, FootprintPredMb = 0;
  double Keygen = 0, RotationKeys = 0, ChainPrimes = 0, LogN = 0;
  double NttFwd = 0, NttInv = 0, HoistedAmounts = 0, NttFwdPerRot = 0;
  std::map<std::string, double> HisaCount, HisaSec;
  double FirstInfer = 0, Infer = 0, TracedInfer = 0, TraceOverhead = 0;
  double Encrypt = 0, Evaluate = 0, Decrypt = 0;
  std::map<std::string, double> NodeSelf, NodeTotal;
  double PtHits = 0, PtHitRatio = 0, MaxAbsErr = 0, ArgmaxAgree = 0;
  double PoolAcquires = 0, PoolHitRatio = 0, PoolHighWaterMb = 0;

  void emit(Result &R) const {
    R.add("nn.build_s", NnBuild, "s");
    R.add("core.compile_s", CoreCompile, "s");
    for (const NetworkEntry &E : networkZoo())
      for (const char *S : {"rns", "big"}) {
        std::string Key = E.Name + "." + S;
        auto It = ZooCompile.find(Key);
        R.add("core.compile_s." + Key, It == ZooCompile.end() ? 0 : It->second,
              "s");
      }
    R.add("core.validate_s", Validate, "s");
    R.add("core.verify_s", Verify, "s");
    R.add("core.noise_s", Noise, "s");
    R.add("core.footprint_s", Footprint, "s");
    R.add("core.cost_estimate", CostEstimate, "cost");
    R.add("core.noise_bound", NoiseBound, "abs");
    R.add("core.footprint_pred_mb", FootprintPredMb, "MiB");
    R.add("ckks.keygen_s", Keygen, "s");
    R.add("ckks.rotation_keys", RotationKeys, "count");
    R.add("ckks.chain_primes", ChainPrimes, "count");
    R.add("ckks.log_n", LogN, "log2");
    R.add("ckks.ntt_fwd", NttFwd, "count");
    R.add("ckks.ntt_inv", NttInv, "count");
    R.add("ckks.hoisted_amounts", HoistedAmounts, "count");
    R.add("ckks.ntt_fwd_per_rotation", NttFwdPerRot, "ratio");
    for (const char *Op : kHisaOps) {
      auto C = HisaCount.find(Op);
      auto S = HisaSec.find(Op);
      R.add(std::string("hisa.") + Op + ".count",
            C == HisaCount.end() ? 0 : C->second, "count");
      R.add(std::string("hisa.") + Op + ".s",
            S == HisaSec.end() ? 0 : S->second, "s");
    }
    R.add("runtime.first_infer_s", FirstInfer, "s");
    R.add("runtime.infer_s", Infer, "s");
    R.add("runtime.traced_infer_s", TracedInfer, "s");
    R.add("runtime.trace_overhead", TraceOverhead, "ratio");
    R.add("runtime.encrypt_s", Encrypt, "s");
    R.add("runtime.evaluate_s", Evaluate, "s");
    R.add("runtime.decrypt_s", Decrypt, "s");
    for (const char *Label : kLeNetNodes) {
      auto It = NodeSelf.find(Label);
      R.add(std::string("runtime.node.") + Label + ".s",
            It == NodeSelf.end() ? 0 : It->second, "s");
      It = NodeTotal.find(Label);
      R.add(std::string("runtime.node.") + Label + ".total_s",
            It == NodeTotal.end() ? 0 : It->second, "s");
    }
    R.add("runtime.ptcache.hits", PtHits, "count");
    R.add("runtime.ptcache.hit_ratio", PtHitRatio, "ratio");
    R.add("runtime.max_abs_err", MaxAbsErr, "abs");
    R.add("runtime.argmax_agree", ArgmaxAgree, "count");
    R.add("support.pool.acquires", PoolAcquires, "count");
    R.add("support.pool.hit_ratio", PoolHitRatio, "ratio");
    R.add("support.pool.high_water_mb", PoolHighWaterMb, "MiB");
    R.add("support.peak_rss_mb", peakRssMb(), "MiB");
  }
};

/// Times the four post-compile analyses of core on one compiled circuit
/// (each run on its own, outside compileCircuit) and accumulates them.
void timeAnalyses(const TensorCircuit &Circ, const CompilerOptions &Options,
                  const CompiledCircuit &Compiled, LayerMetrics &L,
                  Tracer *T) {
  auto Time = [&](const char *Phase, auto &&Fn) {
    PhaseScope P(T, Phase);
    int64_t T0 = nowNs();
    Fn();
    return secondsBetween(T0, nowNs());
  };
  L.Validate += Time("validate", [&] { validateCircuit(Circ, Options); });
  L.Verify += Time("verify", [&] { verifyCircuit(Circ, Compiled); });
  L.Noise += Time("noise", [&] { analyzeNoise(Circ, Compiled); });
  L.Footprint +=
      Time("footprint", [&] { analyzeFootprint(Circ, Compiled); });
}

/// Median HISA counts/seconds, node self times and phase durations over
/// the traced inferences whose ids are in \p Ids.
void summarizeSpans(const Tracer &T, const std::vector<int> &Ids,
                    LayerMetrics &L) {
  std::vector<Tracer::Span> S = T.spans();
  std::vector<double> Self = Tracer::selfSeconds(S);
  std::map<std::string, std::vector<double>> Count, Sec, Node, NodeAll,
      Phase;
  for (int Id : Ids) {
    std::map<std::string, double> C, Sc, N, NAll, P;
    for (size_t I = 0; I < S.size(); ++I) {
      if (S[I].Inference != Id)
        continue;
      double Dur = secondsBetween(S[I].BeginNs, S[I].EndNs);
      if (S[I].Cat == "hisa") {
        C[S[I].Name] += 1;
        Sc[S[I].Name] += Dur;
      } else if (S[I].Cat == "node") {
        N[S[I].Name] += Self[I];
        NAll[S[I].Name] += Dur;
      } else {
        P[S[I].Name] += Dur;
      }
    }
    for (const char *Op : kHisaOps) {
      Count[Op].push_back(C[Op]);
      Sec[Op].push_back(Sc[Op]);
    }
    for (const char *Label : kLeNetNodes) {
      Node[Label].push_back(N[Label]);
      NodeAll[Label].push_back(NAll[Label]);
    }
    for (const char *Ph : {"encrypt", "evaluate", "decrypt"})
      Phase[Ph].push_back(P[Ph]);
  }
  for (auto &[K, V] : Count)
    L.HisaCount[K] = median(V);
  for (auto &[K, V] : Sec)
    L.HisaSec[K] = median(V);
  for (auto &[K, V] : Node)
    L.NodeSelf[K] = median(V);
  for (auto &[K, V] : NodeAll)
    L.NodeTotal[K] = median(V);
  L.Encrypt = median(Phase["encrypt"]);
  L.Evaluate = median(Phase["evaluate"]);
  L.Decrypt = median(Phase["decrypt"]);
}

//===----------------------------------------------------------------------===//
// Inference workloads
//===----------------------------------------------------------------------===//

struct InferenceConfig {
  SchemeKind Scheme;
  SecurityLevel Security;
  int SetupRepeats;   ///< Compile + keygen rounds; setup_s is their median.
};

/// Counters read around one warm untraced inference, so the per-layer rows
/// describe one inference rather than however many fit in a run.
template <typename B> struct Counters {
  typename B::KeySwitchNttStats Ntt{};
  LimbPool::Stats Pool{};
  uint64_t CacheHits = 0, CacheMisses = 0;
};

/// One encrypt -> evaluate -> decrypt round trip and its check.
template <typename BE> struct Inference {
  CipherTensor<BE> In, Out;
  Tensor3 Got;
  double Seconds = 0;
};

template <typename BE>
Inference<BE> inferOnce(BE &Backend, EncodedPlaintextCache<BE> *Cache,
                        const TensorCircuit &Circ,
                        const CompiledCircuit &Compiled, const Tensor3 &Image,
                        Tracer *T) {
  Inference<BE> R;
  int64_t T0 = nowNs();
  {
    PhaseScope P(T, "encrypt");
    R.In = encryptTensor(
        Backend, Image,
        circuitInputLayout(Circ, Compiled.Policy, Backend.slotCount()),
        Compiled.Scales);
  }
  {
    PhaseScope P(T, "evaluate");
    R.Out = evaluateCircuit(Backend, Circ, R.In, Compiled.Scales,
                            Compiled.Policy, FcAlgorithm::Auto, Cache);
  }
  {
    PhaseScope P(T, "decrypt");
    R.Got = decryptTensor(Backend, R.Out);
  }
  R.Seconds = secondsBetween(T0, nowNs());
  return R;
}

template <typename Ct> std::vector<uint8_t> serializeAll(
    const std::vector<Ct> &Cts) {
  std::vector<uint8_t> Bytes;
  for (const Ct &C : Cts) {
    ByteBuffer B = serialize(C);
    Bytes.insert(Bytes.end(), B.begin(), B.end());
  }
  return Bytes;
}

template <typename B, typename MakeFn>
void runInferenceWorkload(const Args &A, const InferenceConfig &Cfg,
                          MakeFn Make, Result &R) {
  std::optional<Tracer> TraceStore;
  if (A.Trace)
    TraceStore.emplace();
  Tracer *T = A.Trace ? &*TraceStore : nullptr;
  LayerMetrics L;

  // nn: build the network.
  int64_t B0 = nowNs();
  TensorCircuit Circ = [&] {
    PhaseScope P(T, "build");
    return makeLeNet5Small(2);
  }();
  L.NnBuild = secondsBetween(B0, nowNs());

  CompilerOptions Options;
  Options.Scheme = Cfg.Scheme;
  Options.Security = Cfg.Security;
  Options.Scales = benchScales();

  // Set-up: compile + keygen, repeated; the first round in this fresh
  // process gives key_mb.
  std::vector<double> Setup, Compile, Keygen;
  double KeyMb = 0;
  CompiledCircuit Compiled;
  std::optional<B> Backend;
  for (int Round = 0; Round < Cfg.SetupRepeats; ++Round) {
    Backend.reset();
    int64_t T0 = nowNs();
    {
      PhaseScope P(T, "compile");
      Compiled = compileCircuit(Circ, Options);
    }
    int64_t T1 = nowNs();
    double Before = rssMb();
    {
      PhaseScope P(T, "keygen");
      Backend.emplace(Make(Compiled));
    }
    int64_t T2 = nowNs();
    if (Round == 0)
      KeyMb = rssMb() - Before;
    Setup.push_back(secondsBetween(T0, T2));
    Compile.push_back(secondsBetween(T0, T1));
    Keygen.push_back(secondsBetween(T1, T2));
  }
  auto CompileBatch = [&] {
    for (int I = 0; I < kCompileBatch; ++I) {
      int64_t T0 = nowNs();
      CompiledCircuit Again = compileCircuit(Circ, Options);
      Compile.push_back(secondsBetween(T0, nowNs()));
    }
  };
  CompileBatch();

  // The reference images first, then the seeded ones; the loop cycles
  // through all of them.
  std::vector<Tensor3> Images, Want;
  for (int I = 0; I < kReferenceImages + kSeededImages; ++I) {
    Images.push_back(randomImageFor(
        Circ, I < kReferenceImages ? referenceImageSeed(I)
                                   : imageSeed(A.Seed, I - kReferenceImages)));
    Want.push_back(Circ.evaluatePlain(Images.back()));
  }

  LimbPool::instance().resetStats();
  EncodedPlaintextCache<B> Cache;
  // Error of each reference image's first inference. A later inference of
  // the same image draws other encryption noise; it is only gated.
  std::vector<double> RefErr(kReferenceImages, -1);
  int Agree = 0;
  // Checks one finished inference against the plain reference.
  auto Check = [&](const Tensor3 &Got, int Img) {
    double Err = maxAbsDiff(Got, Want[Img]);
    if (!(Err <= kTolerance))
      ++R.Failed;
    else if (Img < kReferenceImages && RefErr[Img] < 0)
      RefErr[Img] = Err;
    Agree += argmax(Got) == argmax(Want[Img]);
  };
  // Runs one untraced inference of image \p Img; returns its seconds, or
  // a negative value when it threw.
  auto Untraced = [&](int Img) -> double {
    ++R.Attempted;
    try {
      Inference<B> Inf = inferOnce(*Backend, &Cache, Circ, Compiled,
                                   Images[Img], nullptr);
      Check(Inf.Got, Img);
      return Inf.Seconds;
    } catch (const std::exception &E) {
      std::fprintf(stderr, "inference failed: %s\n", E.what());
      ++R.Failed;
      return -1;
    }
  };

  double First = Untraced(0);
  std::vector<double> Warm, TracedWarm;
  int Next = 1;
  Counters<B> Before, After;
  auto ReadCounters = [&] {
    return Counters<B>{Backend->keySwitchNttStats(),
                       LimbPool::instance().stats(), Cache.hits(),
                       Cache.misses()};
  };

  if (!T) {
    int64_t Start = nowNs();
    while (Next < kReferenceImages ||
           secondsBetween(Start, nowNs()) < A.Seconds) {
      double S = Untraced(Next++ % int(Images.size()));
      if (S < 0)
        break;
      Warm.push_back(S);
      CompileBatch();
    }
  } else {
    using TB = TracingBackend<B>;
    TB Traced(*Backend, *T);
    EncodedPlaintextCache<TB> TracedCache;
    std::vector<int> WarmIds;
    std::optional<Inference<TB>> LastTraced;
    int InferenceId = 1;
    auto RunTraced = [&](int Img) -> bool {
      ++R.Attempted;
      T->setInference(InferenceId);
      try {
        Inference<TB> Inf =
            inferOnce(Traced, &TracedCache, Circ, Compiled, Images[Img], T);
        T->setInference(0);
        Check(Inf.Got, Img);
        TracedWarm.push_back(Inf.Seconds);
        LastTraced = std::move(Inf);
        return true;
      } catch (const std::exception &E) {
        T->setInference(0);
        std::fprintf(stderr, "traced inference failed: %s\n", E.what());
        ++R.Failed;
        return false;
      }
    };
    // Cold traced inference warms the adapter's own plaintext cache.
    RunTraced(0);
    TracedWarm.clear();
    int64_t Start = nowNs();
    while (Warm.empty() || secondsBetween(Start, nowNs()) < A.Seconds) {
      int Img = Next++ % int(Images.size());
      Before = ReadCounters();
      double S = Untraced(Img);
      After = ReadCounters();
      ++InferenceId;
      if (S < 0 || !RunTraced(Img))
        break;
      Warm.push_back(S);
      WarmIds.push_back(InferenceId);
    }
    // The adapter must not change the program: evaluating the traced
    // run's encrypted input without the adapter gives the same bytes.
    if (LastTraced) {
      ++R.Attempted;
      CipherTensor<B> In;
      In.L = LastTraced->In.L;
      In.Cts = LastTraced->In.Cts;
      CipherTensor<B> Out =
          evaluateCircuit(*Backend, Circ, In, Compiled.Scales,
                          Compiled.Policy, FcAlgorithm::Auto, &Cache);
      if (serializeAll(Out.Cts) != serializeAll(LastTraced->Out.Cts)) {
        std::fprintf(stderr, "traced and untraced output ciphertexts "
                             "differ\n");
        ++R.Failed;
        R.Correct = false;
      }
    }
    summarizeSpans(*T, WarmIds, L);
  }

  double MaxErr = *std::max_element(RefErr.begin(), RefErr.end());
  if (!T) {
    R.add("setup_s", median(Setup), "s");
    R.add("infer_s", median(Warm), "s");
    R.add("compile_s", median(Compile), "s");
    R.add("key_mb", KeyMb, "MiB");
    R.add("peak_rss_mb", peakRssMb(), "MiB");
    R.add("max_abs_err", MaxErr, "abs");
  } else {
    timeAnalyses(Circ, Options, Compiled, L, T);
    L.CoreCompile = median(Compile);
    L.CostEstimate = Compiled.EstimatedCost;
    L.NoiseBound = Compiled.Noise.ErrorBound;
    L.FootprintPredMb = double(Compiled.Footprint.PeakBytes) / kMiB;
    L.Keygen = median(Keygen);
    L.RotationKeys = double(Backend->rotationKeyCount());
    L.ChainPrimes = Compiled.Rns ? double(Compiled.Rns->ChainPrimes.size()) : 0;
    L.LogN = Compiled.LogN;
    L.NttFwd = double(After.Ntt.ForwardNtts - Before.Ntt.ForwardNtts);
    L.NttInv = double(After.Ntt.InverseNtts - Before.Ntt.InverseNtts);
    L.HoistedAmounts =
        double(After.Ntt.HoistedAmounts - Before.Ntt.HoistedAmounts);
    uint64_t Rot = After.Ntt.Rotations - Before.Ntt.Rotations;
    L.NttFwdPerRot = Rot ? L.NttFwd / double(Rot) : 0;
    L.FirstInfer = First;
    L.Infer = median(Warm);
    L.TracedInfer = median(TracedWarm);
    L.TraceOverhead = L.Infer > 0 ? L.TracedInfer / L.Infer : 0;
    L.MaxAbsErr = MaxErr;
    L.ArgmaxAgree = Agree;
    uint64_t Hits = After.CacheHits - Before.CacheHits;
    uint64_t Lookups = Hits + After.CacheMisses - Before.CacheMisses;
    L.PtHits = double(Hits);
    L.PtHitRatio = Lookups ? double(Hits) / double(Lookups) : 0;
    uint64_t Acquires = After.Pool.Acquires - Before.Pool.Acquires;
    L.PoolAcquires = double(Acquires);
    L.PoolHitRatio =
        Acquires ? double(After.Pool.Hits - Before.Pool.Hits) / double(Acquires)
                 : 0;
    L.PoolHighWaterMb = double(After.Pool.HighWaterBytes) / kMiB;
    L.emit(R);
  }
  std::printf("# attempted=%llu argmax_agree=%d log_n=%d rotation_keys=%zu "
              "max_abs_err=%.6g first_infer_s=%.3f warm_s=[%s] "
              "setup_s=[%s]\n",
              (unsigned long long)R.Attempted, Agree, Compiled.LogN,
              Backend->rotationKeyCount(), MaxErr, First,
              joined(Warm).c_str(), joined(Setup).c_str());
  if (T && !T->writeChromeJson(A.TraceOut))
    std::fprintf(stderr, "cannot write trace file %s\n", A.TraceOut.c_str());
}

//===----------------------------------------------------------------------===//
// compile-zoo
//===----------------------------------------------------------------------===//

/// The compiler decisions the expected table pins, one line per program.
std::string decisionLine(const std::string &Net, SchemeKind Scheme,
                         const CompiledCircuit &C) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf), "%s\t%s\t%s\t%d\t%.6f\t%zu\t%zu",
                Net.c_str(), schemeTag(Scheme), layoutPolicyName(C.Policy),
                C.LogN, C.LogQ, C.Rns ? C.Rns->ChainPrimes.size() : size_t(0),
                C.RotationKeys.size());
  return Buf;
}

std::map<std::string, std::string> readDecisions(const std::string &Path) {
  std::map<std::string, std::string> Table;
  std::ifstream F(Path);
  std::string Line;
  while (std::getline(F, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    size_t Tab1 = Line.find('\t');
    size_t Tab2 = Line.find('\t', Tab1 + 1);
    Table[Line.substr(0, Tab2)] = Line;
  }
  return Table;
}

CompilerOptions zooOptions(SchemeKind Scheme) {
  CompilerOptions O;
  O.Scheme = Scheme;
  O.Security = SecurityLevel::Classical128;
  O.Scales = benchScales();
  return O;
}

struct ZooProgram {
  std::string Net;
  SchemeKind Scheme;
  const TensorCircuit *Circ;
  CompiledCircuit Compiled;
};

int writeDecisions(const std::string &Path) {
  std::ofstream F(Path);
  F << "# Expected compiler decisions for the compile-zoo workload: full-size\n"
       "# zoo, bench scales 2^(25,25,25,12), Classical128. Columns: net,\n"
       "# scheme, layout policy, logN, logQ, chain primes, rotation keys.\n";
  for (const NetworkEntry &E : networkZoo()) {
    TensorCircuit Circ = E.Build(1);
    for (SchemeKind S : {SchemeKind::RnsCkks, SchemeKind::BigCkks})
      F << decisionLine(E.Name, S, compileCircuit(Circ, zooOptions(S)))
        << "\n";
  }
  return F ? 0 : 1;
}

void runCompileZoo(const Args &A, Result &R) {
  std::optional<Tracer> TraceStore;
  if (A.Trace)
    TraceStore.emplace();
  Tracer *T = A.Trace ? &*TraceStore : nullptr;
  LayerMetrics L;

  std::map<std::string, std::string> Expected = readDecisions(A.Decisions);
  if (Expected.size() != 10) {
    std::fprintf(stderr, "expected-decision table %s has %zu rows, want 10\n",
                 A.Decisions.c_str(), Expected.size());
    std::exit(1);
  }

  // Set-up: construct the five full-size networks, repeated.
  std::vector<NetworkEntry> Zoo = networkZoo();
  std::vector<TensorCircuit> Nets;
  std::vector<double> Setup;
  double KeyMb = 0;
  for (int Round = 0; Round < 5; ++Round) {
    Nets.clear();
    double Before = rssMb();
    int64_t T0 = nowNs();
    {
      PhaseScope P(T, "build");
      for (const NetworkEntry &E : Zoo)
        Nets.push_back(E.Build(1));
    }
    Setup.push_back(secondsBetween(T0, nowNs()));
    if (Round == 0)
      KeyMb = rssMb() - Before;
  }

  // A compile pass compiles every network for both schemes and checks
  // each decision against the committed table.
  auto CompilePass = [&](Tracer *PT, std::vector<ZooProgram> &Out) {
    int64_t T0 = nowNs();
    for (size_t I = 0; I < Nets.size(); ++I)
      for (SchemeKind S : {SchemeKind::RnsCkks, SchemeKind::BigCkks}) {
        ++R.Attempted;
        std::string Key = Zoo[I].Name + "." + schemeTag(S);
        try {
          int64_t C0 = nowNs();
          CompiledCircuit C;
          {
            PhaseScope P(PT, "compile " + Key);
            C = compileCircuit(Nets[I], zooOptions(S));
          }
          if (!PT)
            L.ZooCompile[Key] = secondsBetween(C0, nowNs());
          std::string Got = decisionLine(Zoo[I].Name, S, C);
          std::string Want = Expected[Zoo[I].Name + "\t" + schemeTag(S)];
          if (Got != Want) {
            std::fprintf(stderr, "decision mismatch:\n  got  %s\n  want %s\n",
                         Got.c_str(), Want.c_str());
            ++R.Failed;
          }
          Out.push_back({Zoo[I].Name, S, &Nets[I], std::move(C)});
        } catch (const std::exception &E) {
          std::fprintf(stderr, "compile %s failed: %s\n", Key.c_str(),
                       E.what());
          ++R.Failed;
        }
      }
    return secondsBetween(T0, nowNs());
  };

  // A plain pass runs every RNS-CKKS program through the runtime kernels
  // on the fixed-point plain backend (no keys, no plaintext cache) and
  // checks each output against the network's reference evaluation. The
  // big-CKKS programs carry the same scales, so on this backend they round
  // the same values to the same errors. The passes use reference images,
  // so nothing in this workload depends on --seed: the largest rounding
  // error per image is heavy tailed (2.6e-8 to 7.3e-8 over 40 images).
  double MaxErr = 0;
  int Agree = 0;
  auto PlainPass = [&](const std::vector<ZooProgram> &Progs, uint64_t Iter) {
    double Sec = 0;
    for (const ZooProgram &Prog : Progs) {
      if (Prog.Scheme != SchemeKind::RnsCkks)
        continue;
      Tensor3 Image = randomImageFor(*Prog.Circ, referenceImageSeed(Iter));
      Tensor3 Want = Prog.Circ->evaluatePlain(Image);
      ++R.Attempted;
      try {
        FixedPointBackend Plain(Prog.Compiled.LogN);
        Inference<FixedPointBackend> Inf = inferOnce<FixedPointBackend>(
            Plain, nullptr, *Prog.Circ, Prog.Compiled, Image, nullptr);
        Sec += Inf.Seconds;
        double Err = maxAbsDiff(Inf.Got, Want);
        if (!(Err <= kTolerance))
          ++R.Failed;
        else
          MaxErr = std::max(MaxErr, Err);
        Agree += argmax(Inf.Got) == argmax(Want);
      } catch (const std::exception &E) {
        std::fprintf(stderr, "plain run of %s failed: %s\n",
                     Prog.Net.c_str(), E.what());
        ++R.Failed;
      }
    }
    return Sec;
  };

  std::vector<ZooProgram> Programs;
  std::vector<double> PassSec, TracedPassSec, PlainSec;
  int64_t Start = nowNs();
  while (PassSec.empty() || secondsBetween(Start, nowNs()) < A.Seconds) {
    Programs.clear();
    PassSec.push_back(CompilePass(nullptr, Programs));
    if (T) {
      std::vector<ZooProgram> Traced;
      TracedPassSec.push_back(CompilePass(T, Traced));
    }
  }
  for (uint64_t Iter = 0; Iter < kPlainPasses; ++Iter)
    PlainSec.push_back(PlainPass(Programs, Iter));

  if (!T) {
    R.add("setup_s", median(Setup), "s");
    R.add("infer_s", median(PlainSec), "s");
    R.add("compile_s", median(PassSec), "s");
    R.add("key_mb", KeyMb, "MiB");
    R.add("peak_rss_mb", peakRssMb(), "MiB");
    R.add("max_abs_err", MaxErr, "abs");
  } else {
    for (const ZooProgram &Prog : Programs)
      timeAnalyses(*Prog.Circ, zooOptions(Prog.Scheme), Prog.Compiled, L, T);
    L.NnBuild = median(Setup);
    L.CoreCompile = median(PassSec);
    L.FirstInfer = PlainSec.front();
    L.Infer = median(PlainSec);
    // No inference is traced here: the overhead compares traced and
    // untraced compile passes.
    L.TraceOverhead = L.CoreCompile > 0 ? median(TracedPassSec) / L.CoreCompile
                                        : 0;
    L.MaxAbsErr = MaxErr;
    L.ArgmaxAgree = Agree;
    L.emit(R);
    if (!T->writeChromeJson(A.TraceOut))
      std::fprintf(stderr, "cannot write trace file %s\n",
                   A.TraceOut.c_str());
  }
  std::printf("# programs=%zu argmax_agree=%d max_abs_err=%.6g "
              "compile_pass_s=[%s] plain_pass_s=[%s] setup_s=[%s]\n",
              Programs.size(), Agree, MaxErr, joined(PassSec).c_str(),
              joined(PlainSec).c_str(), joined(Setup).c_str());
}

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "error: %s\nusage: e2e_bench --workload "
               "{lenet-rns-128|lenet-big-n12|compile-zoo} --seed N "
               "--seconds S --trace {0|1} [--decisions FILE] "
               "[--trace-out FILE, required with --trace 1]\n"
               "       e2e_bench --write-decisions FILE\n",
               Msg);
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    std::string V = Argv[++I];
    if (Flag == "--workload")
      A.Workload = V;
    else if (Flag == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      A.Seconds = std::atof(V.c_str());
    else if (Flag == "--trace")
      A.Trace = V == "1";
    else if (Flag == "--decisions")
      A.Decisions = V;
    else if (Flag == "--trace-out")
      A.TraceOut = V;
    else if (Flag == "--write-decisions")
      A.WriteDecisions = V;
    else
      usage(("unknown flag " + Flag).c_str());
  }
  if (A.Trace && A.TraceOut.empty())
    usage("--trace 1 needs --trace-out");
  return A;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  for (const char *Name : kRefusedEnv)
    if (std::getenv(Name)) {
      std::fprintf(stderr,
                   "refusing to run: %s is set, which changes the program "
                   "being measured\n",
                   Name);
      return 2;
    }
  if (!A.WriteDecisions.empty()) {
    setGlobalThreadCount(1);
    return writeDecisions(A.WriteDecisions);
  }

  // Kernel lanes per workload, capped at the host's cores.
  unsigned Cores = std::max(1u, std::thread::hardware_concurrency());
  unsigned Want = A.Workload == "compile-zoo" ? 1 : 4;
  setGlobalThreadCount(std::min(Want, Cores));
  std::printf("# e2ebench workload=%s seed=%llu seconds=%g trace=%d "
              "threads=%u env=clean\n",
              A.Workload.c_str(), (unsigned long long)A.Seed, A.Seconds,
              int(A.Trace), globalThreadCount());

  Result R;
  try {
    if (A.Workload == "lenet-rns-128") {
      runInferenceWorkload<RnsCkksBackend>(
          A,
          {SchemeKind::RnsCkks, SecurityLevel::Classical128,
           /*SetupRepeats=*/1},
          [](const CompiledCircuit &C) { return makeRnsBackend(C); }, R);
    } else if (A.Workload == "lenet-big-n12") {
      runInferenceWorkload<BigCkksBackend>(
          A,
          {SchemeKind::BigCkks, SecurityLevel::None, /*SetupRepeats=*/3},
          [](const CompiledCircuit &C) { return makeBigBackend(C); }, R);
    } else if (A.Workload == "compile-zoo") {
      runCompileZoo(A, R);
    } else {
      usage(("unknown workload '" + A.Workload + "'").c_str());
    }
  } catch (const std::exception &E) {
    std::fprintf(stderr, "workload aborted: %s\n", E.what());
    return 1;
  }
  R.print();
  return 0;
}
