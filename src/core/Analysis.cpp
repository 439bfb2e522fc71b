//===- Analysis.cpp - Dataflow-analysis HISA backend ----------------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Analysis.h"

#include "hisa/Hisa.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace chet;

static_assert(HisaBackend<AnalysisBackend>,
              "AnalysisBackend must satisfy the HISA concept");

AnalysisBackend::AnalysisBackend(const AnalysisConfig &ConfigIn)
    : Config(ConfigIn), Core(ConfigIn.Scheme == SchemeKind::RnsCkks,
                             ConfigIn.LogN, ConfigIn.ScalePrimeCandidates) {
  if (Config.Scheme == SchemeKind::RnsCkks)
    CHET_CHECK(!Config.ScalePrimeCandidates.empty(), InvalidArgument,
               "RNS analysis needs the candidate modulus list");
}

void AnalysisBackend::charge(const std::string &Op, double Cost) {
  ++OpCounts[Op];
  if (Config.Cost)
    TotalCost += Cost;
}

double AnalysisBackend::modulusState(const Ct &C) const {
  if (Config.Scheme == SchemeKind::RnsCkks) {
    double R = Config.TotalChainPrimes > 0
                   ? Config.TotalChainPrimes - C.ConsumedPrimes
                   : 4.0; // phase 1: nominal level count
    return R < 1 ? 1 : R;
  }
  double LogQ = Config.TotalLogQ > 0 ? Config.TotalLogQ - C.LogConsumed
                                     : 240.0;
  return LogQ < 30 ? 30 : LogQ;
}

void AnalysisBackend::trackScale(const Ct &C) {
  double L = std::log2(C.Scale);
  if (L > MaxLogScale)
    MaxLogScale = L;
}

AnalysisBackend::Pt AnalysisBackend::encode(const std::vector<double> &Values,
                                            double Scale) {
  charge("encode", Config.Cost ? Config.Cost->encode() : 0);
  return Pt{Scale};
}

std::vector<double> AnalysisBackend::decode(const Pt &P) const {
  return {};
}

AnalysisBackend::Ct AnalysisBackend::encrypt(const Pt &P) {
  ++OpCounts["encrypt"]; // client-side; not priced into server latency
  Ct C;
  C.Scale = P.Scale;
  return C;
}

void AnalysisBackend::rotLeftAssign(Ct &C, int Steps) {
  int S = normalizeRotation(Steps, slotCount());
  if (S == 0)
    return;
  RotationSteps.insert(S);
  // Power-of-two fallback keys: one hop per set bit of the shorter
  // direction (matches RnsCkksBackend::rotLeftAssign).
  int Hops =
      Config.SelectedRotationKeys ? 1 : rotationHopCount(S, slotCount());
  charge("rotate",
         Config.Cost ? Hops * Config.Cost->rotate(modulusState(C)) : 0);
  OpCounts["rotateHops"] += Hops - 1;
}

std::vector<AnalysisBackend::Ct>
AnalysisBackend::rotLeftMany(const Ct &C, const std::vector<int> &Steps) {
  std::vector<Ct> Out;
  Out.reserve(Steps.size());
  int NonZero = 0;
  for (int Raw : Steps) {
    int S = normalizeRotation(Raw, slotCount());
    Out.push_back(C); // rotations change no dataflow facts
    if (S == 0)
      continue;
    if (!Config.SelectedRotationKeys || !Config.HoistedRotationPricing) {
      // Per-amount pricing: either no dedicated keys exist (the real
      // backends fall back to power-of-two hops) or hoisted pricing is
      // disabled (modelling a runtime with hoisting off). rotLeftAssign
      // prices and collects exactly as the loop the runtime would run.
      Ct Tmp = C;
      rotLeftAssign(Tmp, Raw);
      continue;
    }
    RotationSteps.insert(S);
    ++NonZero;
  }
  if (NonZero > 0) {
    charge("rotateHoistShared",
           Config.Cost ? Config.Cost->rotateHoistShared(modulusState(C)) : 0);
    for (int I = 0; I < NonZero; ++I)
      charge("rotate", Config.Cost
                           ? Config.Cost->rotateHoistPerAmount(modulusState(C))
                           : 0);
  }
  return Out;
}

void AnalysisBackend::addAssign(Ct &C, const Ct &Other) {
  CHET_CHECK(scalesMatch(C.Scale, Other.Scale), ScaleMismatch,
             "addition scale mismatch detected during analysis: ", C.Scale,
             " vs ", Other.Scale);
  LevelScaleCore::align(C, Other);
  charge("add", Config.Cost ? Config.Cost->add(modulusState(C)) : 0);
}

void AnalysisBackend::addPlainAssign(Ct &C, const Pt &P) {
  CHET_CHECK(scalesMatch(C.Scale, P.Scale), ScaleMismatch,
             "addPlain scale mismatch detected during analysis: ", C.Scale,
             " vs ", P.Scale);
  charge("addPlain", Config.Cost ? Config.Cost->add(modulusState(C)) : 0);
}

void AnalysisBackend::addScalarAssign(Ct &C, double X) {
  charge("addScalar", Config.Cost ? Config.Cost->add(modulusState(C)) : 0);
}

void AnalysisBackend::mulAssign(Ct &C, const Ct &Other) {
  LevelScaleCore::align(C, Other);
  C.Scale *= Other.Scale;
  trackScale(C);
  charge("mul", Config.Cost ? Config.Cost->mulCipher(modulusState(C)) : 0);
}

void AnalysisBackend::mulPlainAssign(Ct &C, const Pt &P) {
  C.Scale *= P.Scale;
  trackScale(C);
  charge("mulPlain",
         Config.Cost ? Config.Cost->mulPlain(modulusState(C)) : 0);
}

void AnalysisBackend::mulScalarAssign(Ct &C, double X, uint64_t Scale) {
  C.Scale *= static_cast<double>(Scale);
  trackScale(C);
  charge("mulScalar",
         Config.Cost ? Config.Cost->mulScalar(modulusState(C)) : 0);
}

void AnalysisBackend::rescaleAssign(Ct &C, uint64_t Divisor) {
  if (Divisor <= 1)
    return;
  charge("rescale", Config.Cost ? Config.Cost->rescale(modulusState(C)) : 0);
  if (!Core.rns()) {
    assert((Divisor & (Divisor - 1)) == 0 && "CKKS divisor must be 2^k");
    Core.shedBits(C, Divisor);
    MaxLogConsumed = std::max(MaxLogConsumed, C.LogConsumed);
    return;
  }
  while (Divisor > 1 && Core.shedPrime(C, Divisor)) {
  }
  assert(Divisor == 1 && "divisor not from maxRescale or list exhausted");
  MaxConsumedPrimes = std::max(MaxConsumedPrimes, C.ConsumedPrimes);
}
