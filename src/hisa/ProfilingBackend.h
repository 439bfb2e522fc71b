//===- ProfilingBackend.h - Per-op timing HISA adapter ---------*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A HISA adapter that forwards every instruction to an inner backend
/// while recording per-op invocation counts and wall-clock totals. Wrap
/// any backend to see where an inference spends its time, broken down by
/// HISA instruction (the granularity of the paper's Table 1 cost model):
///
///   ProfilingBackend Prof(Backend);
///   runEncryptedInference(Prof, Circ, Image, S, Policy);
///   Prof.printReport(std::cout);
///
/// Counters are per-op atomics (nanosecond totals), so profiling composes
/// with the kernel-level parallelism of the wrapped backend: the adapter
/// inherits the inner backend's BackendSupportsParallelKernels setting.
/// Timing individual ops from concurrent lanes measures per-lane time;
/// the sum over ops can exceed wall-clock when lanes overlap.
///
/// The adapter is a HisaAdapter (hisa/Adapter.h) whose op hook times
/// every instruction; the slotCount and scaleOf queries are not timed.
///
//===----------------------------------------------------------------------===//

#ifndef CHET_HISA_PROFILINGBACKEND_H
#define CHET_HISA_PROFILINGBACKEND_H

#include "hisa/Adapter.h"
#include "support/LimbPool.h"
#include "support/MemoryGovernor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

namespace chet {

/// Forwards every HISA instruction to \p Inner, timing it. See file
/// comment.
template <HisaBackend B>
class ProfilingBackend : public HisaAdapter<ProfilingBackend<B>, B> {
  using Base = HisaAdapter<ProfilingBackend<B>, B>;
  friend Base;

public:
  explicit ProfilingBackend(B &Inner) : Base(Inner) {}

  //===--------------------------------------------------------------===//
  // Reporting.
  //===--------------------------------------------------------------===//

  struct OpStats {
    std::string Name;
    uint64_t Count = 0;
    double Seconds = 0;
    /// Pool-miss allocations that occurred while this op was on some
    /// lane's stack (LimbPool misses, i.e. fresh heap allocations the
    /// free lists could not serve). With overlapping lanes attribution
    /// is approximate; the totals are exact.
    uint64_t PoolMisses = 0;
    uint64_t AllocBytes = 0; ///< Limb bytes requested during this op.
  };

  /// Snapshot of every op with at least one invocation, ordered by total
  /// time descending.
  std::vector<OpStats> stats() const {
    std::vector<OpStats> Out;
    for (int Op = 0; Op < HisaOpCount; ++Op) {
      uint64_t N = Counts[Op].load(std::memory_order_relaxed);
      if (N == 0)
        continue;
      Out.push_back({hisaOpName(static_cast<HisaOp>(Op)), N,
                     double(Nanos[Op].load(std::memory_order_relaxed)) *
                         1e-9,
                     OpPoolMisses[Op].load(std::memory_order_relaxed),
                     OpAllocBytes[Op].load(std::memory_order_relaxed)});
    }
    std::sort(Out.begin(), Out.end(), [](const OpStats &A, const OpStats &X) {
      return A.Seconds > X.Seconds;
    });
    return Out;
  }

  uint64_t totalOps() const {
    uint64_t N = 0;
    for (int Op = 0; Op < HisaOpCount; ++Op)
      N += Counts[Op].load(std::memory_order_relaxed);
    return N;
  }

  void reset() {
    for (int Op = 0; Op < HisaOpCount; ++Op) {
      Counts[Op].store(0, std::memory_order_relaxed);
      Nanos[Op].store(0, std::memory_order_relaxed);
      OpPoolMisses[Op].store(0, std::memory_order_relaxed);
      OpAllocBytes[Op].store(0, std::memory_order_relaxed);
    }
    RotManyAmounts.store(0, std::memory_order_relaxed);
  }

  /// Pool-miss allocations across every profiled op since reset(). The
  /// steady-state regression tests assert this stays zero once the pool
  /// is warm.
  uint64_t poolMisses() const {
    uint64_t N = 0;
    for (int Op = 0; Op < HisaOpCount; ++Op)
      N += OpPoolMisses[Op].load(std::memory_order_relaxed);
    return N;
  }

  /// Renders the op-count / total-time table.
  std::string report() const {
    std::ostringstream OS;
    OS << std::left << std::setw(12) << "op" << std::right << std::setw(10)
       << "count" << std::setw(14) << "total(ms)" << std::setw(12)
       << "avg(us)" << std::setw(10) << "misses" << std::setw(12)
       << "alloc(MB)" << "\n";
    double Total = 0;
    uint64_t Ops = 0, TotalMisses = 0, TotalBytes = 0;
    for (const OpStats &S : stats()) {
      OS << std::left << std::setw(12) << S.Name << std::right
         << std::setw(10) << S.Count << std::setw(14) << std::fixed
         << std::setprecision(3) << S.Seconds * 1e3 << std::setw(12)
         << std::setprecision(3) << S.Seconds * 1e6 / double(S.Count)
         << std::setw(10) << S.PoolMisses << std::setw(12)
         << std::setprecision(1) << double(S.AllocBytes) / (1 << 20)
         << "\n";
      Total += S.Seconds;
      Ops += S.Count;
      TotalMisses += S.PoolMisses;
      TotalBytes += S.AllocBytes;
    }
    OS << std::left << std::setw(12) << "total" << std::right
       << std::setw(10) << Ops << std::setw(14) << std::fixed
       << std::setprecision(3) << Total * 1e3 << std::setw(12) << ""
       << std::setw(10) << TotalMisses << std::setw(12)
       << std::setprecision(1) << double(TotalBytes) / (1 << 20) << "\n";
    {
      auto P = LimbPool::instance().stats();
      if (P.Acquires != 0)
        OS << "limb pool: " << std::setprecision(1)
           << 100.0 * double(P.Hits) / double(P.Acquires) << "% hit rate ("
           << P.Hits << "/" << P.Acquires << "), high-water "
           << double(P.HighWaterBytes) / (1 << 20) << " MB, zero-fill avoided "
           << double(P.BytesZeroFillAvoided) / (1 << 20) << " MB\n";
    }
    {
      auto G = MemoryGovernor::instance().stats();
      if (G.Reservations != 0 || G.BudgetBytes != 0) {
        OS << "memory governor: ";
        if (G.BudgetBytes == 0)
          OS << "unlimited budget";
        else
          OS << std::setprecision(1) << double(G.BudgetBytes) / (1 << 20)
             << " MB budget";
        OS << ", high-water " << std::setprecision(1)
           << double(G.HighWaterBytes) / (1 << 20) << " MB over "
           << G.Reservations << " reservations, " << G.Reclaims
           << " reclaims (" << double(G.ReclaimedBytes) / (1 << 20)
           << " MB freed)\n";
      }
    }
    uint64_t ManyCalls = Counts[static_cast<int>(HisaOp::RotLeftMany)].load(
        std::memory_order_relaxed);
    if (ManyCalls != 0) {
      uint64_t Amounts = RotManyAmounts.load(std::memory_order_relaxed);
      OS << "rotLeftMany fan-out: " << Amounts << " amounts over "
         << ManyCalls << " calls (avg "
         << std::setprecision(1) << double(Amounts) / double(ManyCalls)
         << " per call)\n";
    }
    // Key-switch NTT amortization, when the wrapped scheme counts it:
    // hoisted fan-outs share one decomposition, so forward NTTs per
    // rotation fall well below the per-rotation (plain) cost.
    if constexpr (requires(const B &Backend) {
                    Backend.keySwitchNttStats();
                  }) {
      auto S = this->inner().keySwitchNttStats();
      if (S.Rotations != 0) {
        OS << "key-switch NTTs: " << S.ForwardNtts << " forward, "
           << S.InverseNtts << " inverse over " << S.Rotations
           << " rotations (" << std::setprecision(1)
           << double(S.ForwardNtts) / double(S.Rotations)
           << " fwd NTTs/rotation; " << S.HoistedAmounts
           << " rotations hoisted in " << S.HoistedBatches
           << " shared-base batches)\n";
      }
    }
    return OS.str();
  }

  void printReport(std::ostream &OS) const { OS << report(); }

private:
  /// Op hook: times every instruction. A rotLeftMany also counts its
  /// amounts (the fan-out).
  template <HisaOp Op, typename F, typename... Args>
  decltype(auto) onOp(F &&Forward, Args &...Operands) {
    if constexpr (Op == HisaOp::RotLeftMany) {
      const std::vector<int> &Steps = std::get<1>(std::tie(Operands...));
      RotManyAmounts.fetch_add(Steps.size(), std::memory_order_relaxed);
    }
    auto P0 = LimbPool::instance().stats();
    auto T0 = std::chrono::steady_clock::now();
    if constexpr (std::is_void_v<decltype(Forward())>) {
      Forward();
      record(static_cast<int>(Op), T0, P0);
    } else {
      auto R = Forward();
      record(static_cast<int>(Op), T0, P0);
      return R;
    }
  }

  void record(int Op, std::chrono::steady_clock::time_point T0,
              const LimbPool::Stats &P0) {
    auto Dt = std::chrono::steady_clock::now() - T0;
    auto P1 = LimbPool::instance().stats();
    Counts[Op].fetch_add(1, std::memory_order_relaxed);
    Nanos[Op].fetch_add(
        uint64_t(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Dt).count()),
        std::memory_order_relaxed);
    // Global-counter deltas, so overlapping lanes double-attribute; the
    // zero-miss steady-state assertion is unaffected (zero is exact).
    OpPoolMisses[Op].fetch_add(P1.Misses - P0.Misses,
                               std::memory_order_relaxed);
    OpAllocBytes[Op].fetch_add(P1.BytesRequested - P0.BytesRequested,
                               std::memory_order_relaxed);
  }

  std::atomic<uint64_t> Counts[HisaOpCount] = {};
  std::atomic<uint64_t> Nanos[HisaOpCount] = {};
  std::atomic<uint64_t> OpPoolMisses[HisaOpCount] = {};
  std::atomic<uint64_t> OpAllocBytes[HisaOpCount] = {};
  /// Total amounts requested across rotLeftMany calls (the fan-out).
  std::atomic<uint64_t> RotManyAmounts{0};
};

/// Profiling is transparent to threading: counters are atomics, so the
/// adapter is exactly as parallel-safe as the backend it wraps.
template <HisaBackend B>
inline constexpr bool BackendSupportsParallelKernels<ProfilingBackend<B>> =
    BackendSupportsParallelKernels<B>;

} // namespace chet

#endif // CHET_HISA_PROFILINGBACKEND_H
