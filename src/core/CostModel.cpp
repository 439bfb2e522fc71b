//===- CostModel.cpp - HISA-primitive cost models -------------------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/CostModel.h"

#include <algorithm>
#include <cmath>

using namespace chet;

// Constants below are nanoseconds per element-operation, measured with the
// bench_table1_hisa_ops microbenchmark on the development machine (single
// core). Only ratios matter for layout selection and Figure 6.
namespace {
// RNS-CKKS: word-level modular arithmetic.
constexpr double RnsAddPerElem = 1.2;
constexpr double RnsMulScalarPerElem = 2.0;
constexpr double RnsMulPlainPerElem = 4.5;
constexpr double RnsNttButterfly = 2.4;
constexpr double RnsEncode = 55.0; // per slot-ish: FFT + rounding

// Big-CKKS: BigInt limb arithmetic and RNS bridging.
constexpr double BigLimbOp = 2.8;
constexpr double BigNttButterfly = 2.4;
constexpr double BigCrtPerPrimeLimb = 1.6;
constexpr double BigEncode = 55.0;
} // namespace

CostModel CostModel::create(SchemeKind Scheme, int LogN, double LogQP) {
  CostModel M;
  M.Scheme = Scheme;
  M.LogN = LogN;
  M.N = std::ldexp(1.0, LogN);
  M.LogQP = LogQP;
  return M;
}

double CostModel::add(double ModulusState) const {
  if (Scheme == SchemeKind::RnsCkks)
    return RnsAddPerElem * N * ModulusState; // O(N r), Table 1
  return BigLimbOp * N * (ModulusState / 64.0 + 1); // O(N log Q)
}

double CostModel::mulScalar(double ModulusState) const {
  if (Scheme == SchemeKind::RnsCkks)
    return RnsMulScalarPerElem * 2 * N * ModulusState; // O(N r)
  // O(N M(Q)): one word multiply per limb per coefficient.
  return BigLimbOp * 2 * N * (ModulusState / 32.0 + 1);
}

double CostModel::mulPlain(double ModulusState) const {
  if (Scheme == SchemeKind::RnsCkks)
    return RnsMulPlainPerElem * 2 * N * ModulusState; // O(N r)
  // O(N log N M(Q)): RNS bridging with np ~ 2 logQ / 59 primes.
  double Np = 2 * ModulusState / 59.0 + 1;
  return 2 * Np *
         (BigNttButterfly * N * LogN +
          BigCrtPerPrimeLimb * N * (ModulusState / 64.0 + 1));
}

double CostModel::mulCipher(double ModulusState) const {
  if (Scheme == SchemeKind::RnsCkks) {
    // Key switching: ~(r+1)(r+2) NTTs of size N.
    double R = ModulusState;
    return RnsNttButterfly * N * LogN * (R + 1) * (R + 2) +
           RnsMulPlainPerElem * 4 * N * R;
  }
  // Tensor products at np ~ (2 logQ)/59 plus a key switch at
  // np ~ (logQ + logQP)/59.
  double NpMul = 2 * ModulusState / 59.0 + 1;
  double NpKs = (ModulusState + LogQP) / 59.0 + 1;
  double PerPrime = BigNttButterfly * N * LogN +
                    BigCrtPerPrimeLimb * N * (ModulusState / 64.0 + 1);
  return (7 * NpMul + 4 * NpKs) * PerPrime;
}

double CostModel::rotate(double ModulusState) const {
  if (Scheme == SchemeKind::RnsCkks) {
    double R = ModulusState;
    return RnsNttButterfly * N * LogN * (R + 1) * (R + 2) +
           RnsAddPerElem * 6 * N * R;
  }
  double NpKs = (ModulusState + LogQP) / 59.0 + 1;
  double PerPrime = BigNttButterfly * N * LogN +
                    BigCrtPerPrimeLimb * N * ((ModulusState + LogQP) / 96.0 + 1);
  return 4 * NpKs * PerPrime;
}

double CostModel::rotateHoistShared(double ModulusState) const {
  if (Scheme == SchemeKind::RnsCkks) {
    // Decompose once: (r+1) inverse NTTs of the input plus (r+1)^2
    // forward NTTs materializing every digit in every output modulus --
    // the same (r+1)(r+2) transforms a single naive rotation spends on
    // its key switch.
    double R = ModulusState;
    return RnsNttButterfly * N * LogN * (R + 1) * (R + 2);
  }
  // One decomposeNtt of c1 at np ~ (logQ + logQP)/59 primes.
  double NpKs = (ModulusState + LogQP) / 59.0 + 1;
  double PerPrime =
      BigNttButterfly * N * LogN +
      BigCrtPerPrimeLimb * N * ((ModulusState + LogQP) / 96.0 + 1);
  return NpKs * PerPrime;
}

double CostModel::rotateHoistPerAmount(double ModulusState) const {
  if (Scheme == SchemeKind::RnsCkks) {
    // Permuting the shared NTT-domain base costs no transforms; the
    // special-modulus division is ~2(r+2) transforms per amount, plus
    // the key inner product's elementwise multiply-accumulates.
    double R = ModulusState;
    return RnsNttButterfly * N * LogN * 2 * (R + 2) +
           RnsAddPerElem * 6 * N * R;
  }
  // Pointwise key products plus two CRT reconstructions per amount
  // (versus 4 np key-switch passes for a naive rotation).
  double NpKs = (ModulusState + LogQP) / 59.0 + 1;
  double PerPrime =
      BigNttButterfly * N * LogN +
      BigCrtPerPrimeLimb * N * ((ModulusState + LogQP) / 96.0 + 1);
  return 3 * NpKs * PerPrime;
}

double CostModel::rescale(double ModulusState) const {
  if (Scheme == SchemeKind::RnsCkks)
    return RnsNttButterfly * 4 * N * LogN * ModulusState;
  return BigLimbOp * 2 * N * (ModulusState / 64.0 + 1);
}

double CostModel::encode() const {
  return (Scheme == SchemeKind::RnsCkks ? RnsEncode : BigEncode) * N;
}

double chet::estimateCost(const LevelOpCounts &Counts, const CostModel &Model,
                          double TopModulus, bool Hoisted) {
  const bool Rns = Model.scheme() == SchemeKind::RnsCkks;
  double Total = 0;
  for (const auto &[Level, Row] : Counts.Rows) {
    auto N = [&](CountedOp Op) {
      return static_cast<double>(Row[static_cast<size_t>(Op)]);
    };
    double M = std::max(TopModulus - Level, Rns ? 1.0 : 30.0);
    Total += N(CountedOp::Encode) * Model.encode() +
             (N(CountedOp::Add) + N(CountedOp::AddPlain) +
              N(CountedOp::AddScalar)) *
                 Model.add(M) +
             N(CountedOp::Mul) * Model.mulCipher(M) +
             N(CountedOp::MulPlain) * Model.mulPlain(M) +
             N(CountedOp::MulScalar) * Model.mulScalar(M) +
             N(CountedOp::Rescale) * Model.rescale(M) +
             N(CountedOp::RotateHop) * Model.rotate(M);
    if (Hoisted)
      Total += N(CountedOp::HoistBatch) * Model.rotateHoistShared(M) +
               N(CountedOp::HoistAmount) * Model.rotateHoistPerAmount(M);
    else
      Total += N(CountedOp::HoistAmount) * Model.rotate(M);
  }
  return Total;
}

NoiseModel NoiseModel::create(SchemeKind Scheme, int LogN,
                              const std::vector<uint64_t> &ChainPrimes,
                              const std::vector<uint64_t> &SpecialPrimes,
                              double LogQ) {
  NoiseModel M;
  M.N = std::ldexp(1.0, LogN);
  if (Scheme == SchemeKind::RnsCkks) {
    // Hybrid key switching cuts the chain into digits of alpha consecutive
    // primes; digit g contributes d_g * e_g / P to the output noise. Its
    // fast-base-converted lift satisfies |d_g| < |g| * Q_g (|g| primes),
    // so the ratio is sum_g |g| Q_g / P, evaluated with interleaved
    // factors because Q_g and P overflow a double for wide digits.
    std::vector<double> P;
    for (uint64_t Pk : SpecialPrimes)
      P.push_back(static_cast<double>(Pk));
    if (P.empty())
      P.push_back(std::ldexp(1.0, 60));
    const size_t Alpha = P.size();
    for (size_t First = 0; First < ChainPrimes.size(); First += Alpha) {
      size_t Size = std::min(Alpha, ChainPrimes.size() - First);
      double Term = static_cast<double>(Size);
      for (size_t I = 0; I < Alpha; ++I) {
        if (I < Size)
          Term *= static_cast<double>(ChainPrimes[First + I]);
        Term /= P[I];
      }
      M.KsDigitRatio += Term;
    }
  } else {
    // Big-CKKS key-switches against a key modulus as wide as Q itself;
    // with 60-bit digits the ratio sum_i 2^60 / 2^logQ is negligible for
    // any realistic chain, leaving the division rounding term dominant.
    double Digits = std::ceil(std::max(LogQ, 60.0) / 60.0);
    M.KsDigitRatio = Digits * std::exp2(60.0 - std::min(LogQ, 300.0));
  }
  return M;
}
