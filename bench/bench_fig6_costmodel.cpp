//===- bench_fig6_costmodel.cpp - Figure 6: cost model vs latency --------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Figure 6: the compiler's estimated cost against the
/// observed latency for every (network, layout, scheme) combination, plus
/// the log-log Pearson correlation. The paper reports the two to be
/// "highly correlated" -- the property that makes the layout-selection
/// pass trustworthy.
///
/// Usage: bench_fig6_costmodel [--full] [network names...]
///
//===----------------------------------------------------------------------===//

#include "LayoutTable.h"

#include <algorithm>
#include <array>
#include <cmath>

using namespace chet;
using namespace chet::bench;

namespace {

double logLogCorrelation(const std::vector<LayoutMeasurement> &Points) {
  size_t N = Points.size();
  double SX = 0, SY = 0, SXX = 0, SYY = 0, SXY = 0;
  for (const LayoutMeasurement &P : Points) {
    double X = std::log(P.EstimatedCost);
    double Y = std::log(P.LatencySec);
    SX += X;
    SY += Y;
    SXX += X * X;
    SYY += Y * Y;
    SXY += X * Y;
  }
  double Cov = SXY - SX * SY / N;
  double VarX = SXX - SX * SX / N;
  double VarY = SYY - SY * SY / N;
  return Cov / std::sqrt(VarX * VarY);
}

/// The hoisted key-switch term (CostModel::rotateHoistShared/PerAmount,
/// priced for every rotLeftMany fan-out the analysis counts) lowers each
/// policy's estimate; layout selection is only safe if it lowers them
/// *consistently*. Compiles every network once and prices each policy's
/// counts twice -- hoisted and naive -- checking that (a) the hoisted
/// estimate never exceeds the naive one and (b) sorting the four
/// policies by estimated cost yields the same order either way.
bool checkHoistingPreservesRanking(SchemeKind Scheme,
                                   const std::vector<NetChoice> &Nets) {
  bool Ok = true;
  for (const NetChoice &Net : Nets) {
    TensorCircuit Circ = Net.build();
    CompilerOptions O;
    O.Scheme = Scheme;
    O.Security = SecurityLevel::None;
    O.Scales = benchScales();
    CompiledCircuit Compiled = compileCircuit(Circ, O);
    std::array<double, 4> Hoisted{}, Naive{};
    for (int P = 0; P < 4; ++P) {
      const PolicyAnalysis &A = Compiled.PerPolicy[P];
      Hoisted[P] = A.EstimatedCost;
      Naive[P] = policyCost(A, Scheme, /*Hoisted=*/false);
      if (Hoisted[P] > Naive[P]) {
        std::printf("FAIL: %s %s %s: hoisted estimate %.3e exceeds naive "
                    "%.3e\n",
                    schemeName(Scheme), Net.label().c_str(),
                    layoutPolicyName(kAllLayoutPolicies[P]), Hoisted[P],
                    Naive[P]);
        Ok = false;
      }
    }
    auto Order = [](const std::array<double, 4> &Cost) {
      std::array<int, 4> Idx = {0, 1, 2, 3};
      std::stable_sort(Idx.begin(), Idx.end(),
                       [&](int A, int B) { return Cost[A] < Cost[B]; });
      return Idx;
    };
    std::array<int, 4> WithHoist = Order(Hoisted);
    std::array<int, 4> WithoutHoist = Order(Naive);
    if (WithHoist != WithoutHoist) {
      std::printf("FAIL: %s %s: hoisting term reorders the layout "
                  "policies\n  hoisted:",
                  schemeName(Scheme), Net.label().c_str());
      for (int P : WithHoist)
        std::printf(" %s(%.3e)", layoutPolicyName(kAllLayoutPolicies[P]),
                    Hoisted[P]);
      std::printf("\n  naive:  ");
      for (int P : WithoutHoist)
        std::printf(" %s(%.3e)", layoutPolicyName(kAllLayoutPolicies[P]),
                    Naive[P]);
      std::printf("\n");
      Ok = false;
      continue;
    }
    std::printf("%-10s %-24s ranking stable:", schemeName(Scheme),
                Net.label().c_str());
    for (int P : WithHoist)
      std::printf(" %s", layoutPolicyName(kAllLayoutPolicies[P]));
    std::printf("  (hoisting trims %.1f%% off the winner)\n",
                100.0 * (1.0 - Hoisted[WithHoist[0]] / Naive[WithHoist[0]]));
  }
  return Ok;
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<NetChoice> Nets =
      chooseNetworks(Argc, Argv, {"LeNet-5-small", "LeNet-5-medium"});

  printHeader("Figure 6: estimated cost vs observed latency (log-log)");
  std::vector<LayoutMeasurement> All;
  for (SchemeKind Scheme : {SchemeKind::RnsCkks, SchemeKind::BigCkks}) {
    std::printf("\n--- %s ---\n", schemeName(Scheme));
    auto Points = runLayoutTable(Scheme, Nets, nullptr, 0);
    All.insert(All.end(), Points.begin(), Points.end());
  }

  std::printf("\n%-24s %-18s %-10s %14s %12s\n", "network", "layout",
              "scheme?", "estimated cost", "latency (s)");
  for (const LayoutMeasurement &P : All)
    std::printf("%-24s %-18s %-10s %14.3e %12.3f\n", P.Network.c_str(),
                layoutPolicyName(P.Policy), "", P.EstimatedCost,
                P.LatencySec);

  double R = logLogCorrelation(All);
  std::printf("\nlog-log Pearson correlation (estimated cost vs measured "
              "latency): r = %.3f over %zu points\n",
              R, All.size());
  std::printf("Shape check: the paper's Figure 6 shows the same strong "
              "positive correlation (visually r ~ 0.9+).\n");

  printHeader("Hoisted-rotation cost term: layout ranking stability");
  bool RankingOk = true;
  for (SchemeKind Scheme : {SchemeKind::RnsCkks, SchemeKind::BigCkks})
    RankingOk = checkHoistingPreservesRanking(Scheme, Nets) && RankingOk;
  if (!RankingOk) {
    std::printf("hoisted cost term changed the layout-policy ranking -- "
                "the layout search can no longer be trusted\n");
    return 1;
  }
  std::printf("hoisted cost term preserves the four-policy ranking on every "
              "(scheme, network) swept\n");
  return 0;
}
