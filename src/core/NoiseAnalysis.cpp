//===- NoiseAnalysis.cpp - Static range/noise-budget analysis -------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/NoiseAnalysis.h"

#include "core/Audit.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

using namespace chet;

namespace {

double maxAbs(const std::vector<double> &V) {
  double M = 0;
  for (double X : V)
    M = std::max(M, std::fabs(X));
  return M;
}

/// Largest row L1 norm of the row-major Rows x Cols matrix \p W -- the
/// exact supremum of the linear map over the unit box -- and its largest
/// |entry|.
std::pair<double, double> rowNorms(const std::vector<double> &W, int Rows,
                                   int Cols) {
  double L1 = 0, Wmax = 0;
  for (int R = 0; R < Rows; ++R) {
    const double *Row = W.data() + static_cast<size_t>(R) * Cols;
    double Sum = 0;
    for (int C = 0; C < Cols; ++C) {
      double A = std::fabs(Row[C]);
      Sum += A;
      Wmax = std::max(Wmax, A);
    }
    L1 = std::max(L1, Sum);
  }
  return {L1, Wmax};
}

} // namespace

std::map<int, RangeEnvelope>
chet::rangeEnvelopes(const TensorCircuit &Circ, double InputAbs) {
  std::map<int, RangeEnvelope> Env;
  const auto &Ops = Circ.ops();
  // Output-magnitude bound per node, in topological order.
  std::vector<double> Out(Ops.size(), 0);
  for (const OpNode &N : Ops) {
    RangeEnvelope E;
    switch (N.Kind) {
    case OpKind::Input: {
      E.OutAbs = InputAbs;
      E.CapAbs = InputAbs;
      break;
    }
    case OpKind::Conv2d: {
      double Xin = Out[N.Inputs[0]];
      // L1 norm of the worst output channel: the exact supremum of the
      // convolution over |x| <= Xin (padding only drops taps).
      auto [L1, Wmax] = rowNorms(N.Conv.W, N.Conv.Cout,
                                 N.Conv.Cin * N.Conv.Kh * N.Conv.Kw);
      E.WeightAbs = Wmax;
      E.BiasAbs = maxAbs(N.Conv.Bias);
      E.OutAbs = Xin * L1 + E.BiasAbs;
      // Intermediates: rotated inputs (<= Xin), tap partial sums
      // (subsums of the L1 bound), masked copies, the bias add; the
      // ConvHW layout conversions around the kernel stay within the
      // same two bounds (masked extracts of the input, disjoint-channel
      // accumulations of the output).
      E.CapAbs = std::max(Xin, Xin * L1) + E.BiasAbs;
      break;
    }
    case OpKind::AveragePool:
    case OpKind::GlobalAveragePool: {
      double Xin = Out[N.Inputs[0]];
      double K = static_cast<double>(N.PoolK);
      E.OutAbs = Xin; // an average never exceeds its window's max
      E.CapAbs = Xin * K * K; // the window sum before the 1/K^2 scalar
      break;
    }
    case OpKind::PolyActivation: {
      double Xin = Out[N.Inputs[0]];
      // y = x * (A2*x + A1), evaluated as U = A2*x + A1; y = x*U
      // (Kernels.h); A2 == 0 collapses to one scalar multiply.
      double U = std::fabs(N.A2) * Xin + std::fabs(N.A1);
      E.OutAbs = N.A2 == 0 ? std::fabs(N.A1) * Xin : Xin * U;
      E.CapAbs = std::max({Xin, U, E.OutAbs});
      break;
    }
    case OpKind::FullyConnected: {
      double Xin = Out[N.Inputs[0]];
      auto [L1, Wmax] = rowNorms(N.Fc.W, N.Fc.Out, N.Fc.In);
      E.WeightAbs = Wmax;
      E.BiasAbs = maxAbs(N.Fc.Bias);
      E.OutAbs = Xin * L1 + E.BiasAbs;
      // Replicate partial dot products and BSGS giant-step folds are
      // subsums of sum_i |w_i x_i| <= L1 * Xin per slot; baby-step
      // rotations stay at Xin; slot masks only shrink values.
      E.CapAbs = std::max(Xin, Xin * L1) + E.BiasAbs;
      break;
    }
    case OpKind::ConcatChannels: {
      double A = Out[N.Inputs[0]];
      double B = Out[N.Inputs[1]];
      // Channel supports are disjoint: per slot the result holds one
      // input's value, never a sum.
      E.OutAbs = std::max(A, B);
      E.CapAbs = E.OutAbs;
      break;
    }
    case OpKind::Output: {
      double Xin = Out[N.Inputs[0]];
      E.OutAbs = Xin;
      E.CapAbs = Xin;
      break;
    }
    }
    Out[N.Id] = E.OutAbs;
    Env[N.Id] = E;
  }
  return Env;
}

std::vector<NoiseNodeReport> NoiseReport::hotspots(size_t K) const {
  std::vector<NoiseNodeReport> Rows = PerNode;
  std::stable_sort(Rows.begin(), Rows.end(),
                   [](const NoiseNodeReport &A, const NoiseNodeReport &B) {
                     return A.PeakErr > B.PeakErr;
                   });
  if (Rows.size() > K)
    Rows.resize(K);
  return Rows;
}

std::string NoiseReport::str() const {
  std::ostringstream OS;
  OS << "static precision analysis (" << layoutPolicyName(Policy)
     << "): |output| <= " << std::scientific << std::setprecision(3)
     << MessageBound << ", worst-case error <= " << ErrorBound
     << " (quantization " << QuantBound << ", noise " << NoiseBound << ")";
  for (const NoiseNodeReport &Row : hotspots()) {
    OS << "\n  layer '" << Row.Label << "' (node #" << Row.NodeId
       << "): peak error " << Row.PeakErr << ", noise introduced "
       << Row.NoiseIntroduced << ", peak |value| " << Row.PeakAbs;
  }
  return OS.str();
}

NoiseReport chet::analyzeNoise(const TensorCircuit &Circ,
                               const CompiledCircuit &Compiled) {
  AuditReport R = auditCircuit(Circ, Compiled);
  if (R.Failure)
    std::rethrow_exception(R.Failure);
  return std::move(R.Noise);
}
