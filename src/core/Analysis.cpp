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
#include <utility>

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

void AnalysisBackend::count(const Ct &C, CountedOp Op, uint64_t N) {
  Counts.add(Core.rns() ? C.ConsumedPrimes
                        : static_cast<int>(std::lround(C.LogConsumed)),
             Op, N);
}

void AnalysisBackend::countRotation(const Ct &C, int S) {
  RotationSteps.insert(S);
  count(C, CountedOp::Rotate);
  // Power-of-two fallback keys: one hop per set bit of the shorter
  // direction (matches RnsCkksBackend::rotLeftAssign).
  count(C, CountedOp::RotateHop,
        Config.SelectedRotationKeys ? 1 : rotationHopCount(S, slotCount()));
}

std::map<std::string, uint64_t> AnalysisBackend::opCounts() const {
  static constexpr std::pair<const char *, CountedOp> Named[] = {
      {"encode", CountedOp::Encode},       {"encrypt", CountedOp::Encrypt},
      {"add", CountedOp::Add},             {"addPlain", CountedOp::AddPlain},
      {"addScalar", CountedOp::AddScalar}, {"mul", CountedOp::Mul},
      {"mulPlain", CountedOp::MulPlain},   {"mulScalar", CountedOp::MulScalar},
      {"rescale", CountedOp::Rescale},
      {"rotateHoistShared", CountedOp::HoistBatch}};
  std::map<std::string, uint64_t> Out;
  for (auto [Name, Op] : Named)
    if (uint64_t N = Counts.total(Op))
      Out[Name] = N;
  uint64_t Rotations = Counts.total(CountedOp::Rotate);
  if (uint64_t N = Rotations + Counts.total(CountedOp::HoistAmount))
    Out["rotate"] = N;
  if (Rotations)
    Out["rotateHops"] = Counts.total(CountedOp::RotateHop) - Rotations;
  return Out;
}

void AnalysisBackend::trackScale(const Ct &C) {
  double L = std::log2(C.Scale);
  if (L > MaxLogScale)
    MaxLogScale = L;
}

AnalysisBackend::Pt AnalysisBackend::encode(const std::vector<double> &Values,
                                            double Scale) {
  Counts.add(0, CountedOp::Encode);
  return Pt{Scale};
}

std::vector<double> AnalysisBackend::decode(const Pt &P) const {
  return {};
}

AnalysisBackend::Ct AnalysisBackend::encrypt(const Pt &P) {
  Counts.add(0, CountedOp::Encrypt);
  Ct C;
  C.Scale = P.Scale;
  return C;
}

void AnalysisBackend::rotLeftAssign(Ct &C, int Steps) {
  if (int S = normalizeRotation(Steps, slotCount()))
    countRotation(C, S);
}

std::vector<AnalysisBackend::Ct>
AnalysisBackend::rotLeftMany(const Ct &C, const std::vector<int> &Steps) {
  uint64_t NonZero = 0;
  for (int Raw : Steps) {
    int S = normalizeRotation(Raw, slotCount());
    if (S == 0)
      continue;
    if (!Config.SelectedRotationKeys) {
      // No dedicated keys: the real backends run the power-of-two hop
      // loop per amount instead of hoisting.
      countRotation(C, S);
      continue;
    }
    RotationSteps.insert(S);
    ++NonZero;
  }
  if (NonZero > 0) {
    count(C, CountedOp::HoistBatch);
    count(C, CountedOp::HoistAmount, NonZero);
  }
  return std::vector<Ct>(Steps.size(), C); // rotations change no facts
}

void AnalysisBackend::addAssign(Ct &C, const Ct &Other) {
  CHET_CHECK(scalesMatch(C.Scale, Other.Scale), ScaleMismatch,
             "addition scale mismatch detected during analysis: ", C.Scale,
             " vs ", Other.Scale);
  LevelScaleCore::align(C, Other);
  count(C, CountedOp::Add);
}

void AnalysisBackend::addPlainAssign(Ct &C, const Pt &P) {
  CHET_CHECK(scalesMatch(C.Scale, P.Scale), ScaleMismatch,
             "addPlain scale mismatch detected during analysis: ", C.Scale,
             " vs ", P.Scale);
  count(C, CountedOp::AddPlain);
}

void AnalysisBackend::addScalarAssign(Ct &C, double X) {
  count(C, CountedOp::AddScalar);
}

void AnalysisBackend::mulAssign(Ct &C, const Ct &Other) {
  LevelScaleCore::align(C, Other);
  C.Scale *= Other.Scale;
  trackScale(C);
  count(C, CountedOp::Mul);
}

void AnalysisBackend::mulPlainAssign(Ct &C, const Pt &P) {
  C.Scale *= P.Scale;
  trackScale(C);
  count(C, CountedOp::MulPlain);
}

void AnalysisBackend::mulScalarAssign(Ct &C, double X, uint64_t Scale) {
  C.Scale *= static_cast<double>(Scale);
  trackScale(C);
  count(C, CountedOp::MulScalar);
}

void AnalysisBackend::rescaleAssign(Ct &C, uint64_t Divisor) {
  if (Divisor <= 1)
    return;
  count(C, CountedOp::Rescale);
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
