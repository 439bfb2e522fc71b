//===- bench_memory.cpp - Footprint prediction and budget soak ------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Memory-governance benchmark, mirroring bench_server_load's shape:
///
///  1. Correctness gates (always run; the only thing that runs under
///     --check-only):
///       a. Footprint soundness: for every zoo network on both CKKS
///          schemes, the compiler's static peak-footprint prediction
///          must upper-bound the limb-pool high-water measured over a
///          real encrypted inference, and its key-material prediction
///          must equal the bytes the backend's (level-trimmed) keys
///          hold.
///       b. Pressure soak: a three-tenant chaos schedule is run once
///          unconstrained (budget 0; the governor's ledger still
///          records the reservation peak), then again under a budget of
///          60% of that peak. Every admitted request must complete
///          byte-identically to a fault-free reference, with zero
///          failures and the governor's high-water within the budget.
///
///  2. Without --check-only: per-network footprint hotspot reports and
///     a degradation sweep across budget fractions.
///
/// Usage: bench_memory [--threads N] [--json FILE] [--check-only]
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "ckks/Serialization.h"
#include "core/Evaluate.h"
#include "core/FootprintAnalysis.h"
#include "hisa/FaultInjectionBackend.h"
#include "hisa/IntegrityBackend.h"
#include "server/Server.h"
#include "support/LimbPool.h"
#include "support/MemoryGovernor.h"

#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace chet;
using namespace chet::bench;

namespace {

using RnsInteg = IntegrityBackend<RnsCkksBackend>;
using RnsChaos = FaultInjectionBackend<RnsInteg>;

constexpr uint64_t BackendSeed = 991;

[[noreturn]] void failGate(const char *Gate, const std::string &What) {
  std::fprintf(stderr, "bench_memory: %s gate FAILED: %s\n", Gate,
               What.c_str());
  std::exit(1);
}

double asMb(uint64_t Bytes) { return double(Bytes) / (1024.0 * 1024.0); }

//===----------------------------------------------------------------------===//
// Gate (a): static prediction upper-bounds measured pool high-water
//===----------------------------------------------------------------------===//

struct SoundnessRow {
  std::string Net;
  const char *Scheme;
  uint64_t PredictedBytes = 0;
  uint64_t MeasuredPoolBytes = 0;
  uint64_t KeyBytes = 0; ///< Evaluation keys the backend holds.
};

template <typename Backend>
uint64_t measuredPoolHighWater(Backend &Bk, const TensorCircuit &Circ,
                               const CompiledCircuit &C) {
  TensorLayout L = circuitInputLayout(Circ, C.Policy, Bk.slotCount());
  Tensor3 Image = randomImageFor(Circ, 1);
  auto Enc = encryptTensor(Bk, Image, L, C.Scales);
  // Keygen scratch is one-time setup, not per-request state.
  LimbPool::instance().resetStats();
  auto Out = evaluateCircuit(Bk, Circ, Enc, C.Scales, C.Policy);
  if (Out.Cts.empty())
    failGate("footprint", "inference produced no output ciphertexts");
  return LimbPool::instance().stats().HighWaterBytes;
}

std::vector<SoundnessRow> gateFootprintSoundness(
    const std::vector<NetChoice> &Nets, bool Verbose) {
  std::vector<SoundnessRow> Rows;
  for (const NetChoice &Net : Nets) {
    TensorCircuit Circ = Net.build();
    for (SchemeKind Scheme : {SchemeKind::RnsCkks, SchemeKind::BigCkks}) {
      CompilerOptions O;
      O.Scheme = Scheme;
      O.Security = SecurityLevel::Classical128;
      O.Scales = benchScales();
      CompiledCircuit C = compileCircuit(Circ, O);
      if (!C.Footprint.Analyzed || C.Footprint.PeakBytes == 0)
        failGate("footprint", Net.label() + ": compiler recorded no "
                                            "footprint summary");
      SoundnessRow Row;
      Row.Net = Net.label();
      Row.Scheme = Scheme == SchemeKind::RnsCkks ? "rns" : "big";
      Row.PredictedBytes = C.Footprint.PeakBytes;
      if (Scheme == SchemeKind::RnsCkks) {
        RnsCkksBackend Bk = makeRnsBackend(C, BackendSeed);
        Row.MeasuredPoolBytes = measuredPoolHighWater(Bk, Circ, C);
        Row.KeyBytes = Bk.keyBytes();
      } else {
        BigCkksBackend Bk = makeBigBackend(C, BackendSeed);
        Row.MeasuredPoolBytes = measuredPoolHighWater(Bk, Circ, C);
        Row.KeyBytes = Bk.keyBytes();
      }
      if (Row.KeyBytes != C.Footprint.KeyBytes)
        failGate("footprint",
                 Row.Net + " (" + Row.Scheme + "): backend holds " +
                     std::to_string(Row.KeyBytes) +
                     " B of keys, footprint predicted " +
                     std::to_string(C.Footprint.KeyBytes) + " B");
      if (Row.PredictedBytes < Row.MeasuredPoolBytes)
        failGate("footprint",
                 Row.Net + " (" + Row.Scheme + "): predicted " +
                     std::to_string(Row.PredictedBytes) +
                     " B < measured pool high-water " +
                     std::to_string(Row.MeasuredPoolBytes) + " B");
      if (Verbose)
        std::printf("%s\n", analyzeFootprint(Circ, C).str().c_str());
      Rows.push_back(Row);
    }
  }
  return Rows;
}

//===----------------------------------------------------------------------===//
// Gate (b): 60%-budget pressure soak stays byte-identical
//===----------------------------------------------------------------------===//

TensorCircuit tinyCircuit(uint64_t Seed = 50) {
  Prng Rng(Seed);
  TensorCircuit Circ("memory-soak-tiny");
  ConvWeights Conv(2, 1, 3, 3);
  for (double &V : Conv.W)
    V = Rng.nextDouble(-0.5, 0.5);
  FcWeights Fc(4, 2 * 4 * 4);
  for (double &V : Fc.W)
    V = Rng.nextDouble(-0.3, 0.3);
  int X = Circ.input(1, 8, 8);
  X = Circ.conv2d(X, Conv, 1, 1);
  X = Circ.polyActivation(X, 0.25, 0.5);
  X = Circ.averagePool(X, 2, 2);
  X = Circ.fullyConnected(X, Fc);
  Circ.output(X);
  return Circ;
}

template <typename To, typename From>
CipherTensor<To> retag(CipherTensor<From> T) {
  static_assert(std::is_same_v<typename To::Ct, typename From::Ct>);
  CipherTensor<To> Out;
  Out.L = T.L;
  Out.Cts = std::move(T.Cts);
  return Out;
}

struct SoakFixture {
  TensorCircuit Circ{"memory-soak"};
  CompiledCircuit C;
  std::vector<std::vector<Tensor3>> Images; ///< Per tenant.
  std::vector<std::vector<std::vector<ByteBuffer>>> Refs;
  std::vector<FaultPlan> Plans;

  static SoakFixture make(int Tenants, int RequestsPerTenant) {
    SoakFixture F;
    F.Circ = tinyCircuit();
    CompilerOptions O;
    O.Scheme = SchemeKind::RnsCkks;
    O.Security = SecurityLevel::Classical128;
    O.Scales = benchScales();
    F.C = compileCircuit(F.Circ, O);
    if (!F.C.Footprint.Analyzed)
      failGate("soak", "tiny circuit has no footprint summary");
    for (int TI = 0; TI < Tenants; ++TI) {
      FaultPlan Plan;
      Plan.Seed = 0x600d + uint64_t(TI);
      Plan.TransientRate = TI == 0 ? 0.0 : 0.01;
      Plan.MaxTransientFaults = 3;
      F.Plans.push_back(Plan);
      std::vector<Tensor3> Imgs;
      for (int S = 0; S < RequestsPerTenant; ++S)
        Imgs.push_back(randomImageFor(F.Circ, 700 + 10 * uint64_t(TI) +
                                                  uint64_t(S)));
      F.Images.push_back(std::move(Imgs));
    }
    // Fault-free reference bytes through the same integrity stack.
    for (int TI = 0; TI < Tenants; ++TI) {
      RnsCkksBackend Raw = makeRnsBackend(F.C, BackendSeed);
      RnsInteg Integ(Raw);
      TensorLayout L =
          circuitInputLayout(F.Circ, F.C.Policy, Integ.slotCount());
      std::vector<std::vector<ByteBuffer>> TenantRefs;
      for (const Tensor3 &Image : F.Images[TI]) {
        auto Enc = encryptTensor(Integ, Image, L, F.C.Scales);
        auto Res =
            evaluateCircuit(Integ, F.Circ, Enc, F.C.Scales, F.C.Policy);
        std::vector<ByteBuffer> Bytes;
        for (const auto &Ct : Res.Cts)
          Bytes.push_back(serialize(Ct));
        TenantRefs.push_back(std::move(Bytes));
      }
      F.Refs.push_back(std::move(TenantRefs));
    }
    return F;
  }
};

struct SoakResult {
  uint64_t Completed = 0;
  uint64_t Failed = 0;
  uint64_t Rejected = 0;
  uint64_t Mismatches = 0;
  uint64_t GovernorHighWater = 0;
  uint64_t GovernorBudget = 0;
  uint64_t Reclaims = 0;
};

/// Runs the fixture's schedule under \p BudgetBytes (0 = unconstrained;
/// the ledger still records the reservation peak).
SoakResult runSoak(const SoakFixture &F, uint64_t BudgetBytes) {
  MemoryGovernor &G = MemoryGovernor::instance();
  G.setBudgetBytes(BudgetBytes);
  G.resetStats();

  ServerConfig Cfg;
  Cfg.Lanes = 2;
  Cfg.Retry.MaxAttempts = 4;
  Cfg.Retry.BackoffBaseSeconds = 1e-6;
  Cfg.Retry.BackoffMaxSeconds = 1e-5;
  Cfg.MemoryBudgetBytes = BudgetBytes;
  InferenceServer<RnsChaos> Server(Cfg);

  size_t Tenants = F.Images.size();
  std::vector<std::unique_ptr<RnsCkksBackend>> Raws;
  std::vector<std::unique_ptr<RnsInteg>> Integs;
  std::vector<std::unique_ptr<RnsChaos>> Chaoses;
  TensorLayout L;
  for (size_t TI = 0; TI < Tenants; ++TI) {
    Raws.push_back(
        std::make_unique<RnsCkksBackend>(makeRnsBackend(F.C, BackendSeed)));
    Integs.push_back(std::make_unique<RnsInteg>(*Raws.back()));
    Chaoses.push_back(std::make_unique<RnsChaos>(*Integs.back(), F.Plans[TI]));
    std::string Id = "tenant-" + std::to_string(TI);
    Chaoses.back()->setFaultScope("tenant:" + Id);
    TenantOptions TO;
    TO.Scales = F.C.Scales;
    TO.Policy = F.C.Policy;
    TO.PredictedPeakBytes = F.C.Footprint.PeakBytes;
    Server.registerTenant(Id, *Chaoses.back(), F.Circ, TO);
    L = circuitInputLayout(F.Circ, F.C.Policy, Chaoses.back()->slotCount());
  }

  std::vector<std::pair<size_t, RequestTicket>> Tickets;
  for (size_t R = 0; R < F.Images[0].size(); ++R)
    for (size_t TI = 0; TI < Tenants; ++TI) {
      auto Enc = retag<RnsChaos>(
          encryptTensor(*Integs[TI], F.Images[TI][R], L, F.C.Scales));
      Tickets.emplace_back(TI, Server.submit("tenant-" + std::to_string(TI),
                                             std::move(Enc)));
    }

  SoakResult Out;
  std::vector<size_t> Seen(Tenants, 0);
  for (auto &[TI, Ticket] : Tickets) {
    const ServerResponse &R = Ticket.wait();
    size_t Index = Seen[TI]++;
    if (R.Status == RequestStatus::Completed) {
      ++Out.Completed;
      const std::vector<ByteBuffer> &Want = F.Refs[TI][Index];
      if (R.Output.size() != Want.size()) {
        ++Out.Mismatches;
      } else {
        for (size_t I = 0; I < Want.size(); ++I)
          if (R.Output[I] != Want[I]) {
            ++Out.Mismatches;
            break;
          }
      }
    } else if (R.Status == RequestStatus::Failed) {
      ++Out.Failed;
    } else {
      ++Out.Rejected;
    }
  }

  ServerReport Rep = Server.shutdown();
  Out.GovernorHighWater = Rep.Governor.HighWaterBytes;
  Out.GovernorBudget = Rep.Governor.BudgetBytes;
  Out.Reclaims = Rep.Governor.Reclaims;
  G.setBudgetBytes(0); // restore the process-wide default
  return Out;
}

uint64_t gatePressureSoak(std::string &JsonLine) {
  SoakFixture F = SoakFixture::make(/*Tenants=*/3, /*RequestsPerTenant=*/3);

  // Unconstrained pass measures the reservation peak to budget against.
  SoakResult Free = runSoak(F, 0);
  if (Free.Completed != 9 || Free.Failed != 0 || Free.Rejected != 0)
    failGate("soak", "unconstrained run did not complete all 9 requests");
  if (Free.Mismatches != 0)
    failGate("soak", "unconstrained run diverged from fault-free bytes");
  if (Free.GovernorHighWater == 0)
    failGate("soak", "budget-0 ledger recorded no reservation peak");

  uint64_t Budget = Free.GovernorHighWater * 6 / 10;
  if (Budget < F.C.Footprint.PeakBytes)
    Budget = F.C.Footprint.PeakBytes; // one request must always fit
  SoakResult Tight = runSoak(F, Budget);
  if (Tight.Completed != 9)
    failGate("soak",
             "60%-budget run completed " + std::to_string(Tight.Completed) +
                 "/9 admitted requests");
  if (Tight.Failed != 0 || Tight.Rejected != 0)
    failGate("soak", "60%-budget run failed or shed requests (failed=" +
                         std::to_string(Tight.Failed) + ", rejected=" +
                         std::to_string(Tight.Rejected) + ")");
  if (Tight.Mismatches != 0)
    failGate("soak", "60%-budget responses diverged from fault-free bytes");
  if (Tight.GovernorHighWater > Budget)
    failGate("soak", "governor high-water " +
                         std::to_string(Tight.GovernorHighWater) +
                         " exceeded the " + std::to_string(Budget) +
                         "-byte budget");

  std::printf("pressure soak: unconstrained peak %.1f MB; at %.1f MB budget "
              "(60%%) all 9 requests completed byte-identically, high-water "
              "%.1f MB\n",
              asMb(Free.GovernorHighWater), asMb(Budget),
              asMb(Tight.GovernorHighWater));
  std::ostringstream JS;
  JS << "{\"bench\":\"memory\",\"gate\":\"soak\",\"unconstrained_peak_bytes\":"
     << Free.GovernorHighWater << ",\"budget_bytes\":" << Budget
     << ",\"high_water_bytes\":" << Tight.GovernorHighWater
     << ",\"completed\":" << Tight.Completed
     << ",\"failed\":" << Tight.Failed << ",\"mismatches\":"
     << Tight.Mismatches << "}";
  JsonLine = JS.str();
  return Free.GovernorHighWater;
}

} // namespace

int main(int Argc, char **Argv) {
  applyThreadsFlag(Argc, Argv);
  std::string JsonPath = stripJsonFlag(Argc, Argv);
  bool CheckOnly = false;
  for (int I = 1; I < Argc; ++I)
    if (!std::strcmp(Argv[I], "--check-only"))
      CheckOnly = true;

  std::vector<NetChoice> Nets = chooseNetworks(
      Argc, Argv, {"LeNet-5-small", "LeNet-5-medium", "LeNet-5-large",
                   "Industrial", "SqueezeNet-CIFAR"});

  printHeader("Static footprint prediction vs measured pool high-water");
  std::printf("%-24s %-6s %14s %14s %10s\n", "network", "scheme",
              "predicted(MB)", "pool-peak(MB)", "headroom");
  std::vector<SoundnessRow> Rows =
      gateFootprintSoundness(Nets, /*Verbose=*/!CheckOnly);
  for (const SoundnessRow &Row : Rows) {
    double Headroom = Row.MeasuredPoolBytes == 0
                          ? 0.0
                          : double(Row.PredictedBytes) /
                                double(Row.MeasuredPoolBytes);
    std::printf("%-24s %-6s %14.1f %14.1f %9.1fx\n", Row.Net.c_str(),
                Row.Scheme, asMb(Row.PredictedBytes),
                asMb(Row.MeasuredPoolBytes), Headroom);
    std::ostringstream JS;
    JS << "{\"bench\":\"memory\",\"gate\":\"footprint\",\"net\":\"" << Row.Net
       << "\",\"scheme\":\"" << Row.Scheme
       << "\",\"predicted_bytes\":" << Row.PredictedBytes
       << ",\"pool_high_water_bytes\":" << Row.MeasuredPoolBytes
       << ",\"key_bytes\":" << Row.KeyBytes << "}";
    appendLine(JsonPath, JS.str());
  }
  std::printf("footprint gate passed: predictions upper-bound measured "
              "pool high-water and equal the key bytes on %zu "
              "network/scheme pairs\n",
              Rows.size());

  std::string SoakJson;
  uint64_t UnconstrainedPeak = gatePressureSoak(SoakJson);
  appendLine(JsonPath, SoakJson);

  if (CheckOnly)
    return 0;

  // --- Degradation sweep: completion mix across budget fractions. ---
  printHeader("Budget degradation sweep (3 RNS tenants, 2 lanes)");
  SoakFixture F = SoakFixture::make(3, 3);
  std::printf("%-12s %12s %10s %8s %10s %10s\n", "budget", "high-water",
              "completed", "failed", "rejected", "reclaims");
  for (int Pct : {100, 80, 60}) {
    uint64_t Budget = UnconstrainedPeak * uint64_t(Pct) / 100;
    if (Budget < F.C.Footprint.PeakBytes)
      Budget = F.C.Footprint.PeakBytes;
    SoakResult R = runSoak(F, Budget);
    std::printf("%10d%% %10.1fMB %10llu %8llu %10llu %10llu\n", Pct,
                asMb(R.GovernorHighWater),
                (unsigned long long)R.Completed, (unsigned long long)R.Failed,
                (unsigned long long)R.Rejected,
                (unsigned long long)R.Reclaims);
    std::ostringstream JS;
    JS << "{\"bench\":\"memory\",\"gate\":\"sweep\",\"budget_pct\":" << Pct
       << ",\"budget_bytes\":" << Budget
       << ",\"high_water_bytes\":" << R.GovernorHighWater
       << ",\"completed\":" << R.Completed << ",\"failed\":" << R.Failed
       << ",\"rejected\":" << R.Rejected << "}";
    appendLine(JsonPath, JS.str());
  }
  if (!JsonPath.empty())
    std::printf("appended JSON lines to %s\n", JsonPath.c_str());
  return 0;
}
