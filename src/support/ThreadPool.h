//===- ThreadPool.h - Deterministic-partition thread pool -------*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, work-stealing-free thread pool with a `parallelFor` primitive.
/// The iteration space is split into contiguous blocks using a static,
/// deterministic partition (block boundaries depend only on the range, the
/// grain, and the configured thread count — never on runtime timing).
/// Every iteration computes the same value and writes to the same disjoint
/// location regardless of which thread executes its block, so encrypted
/// results are bit-identical to a sequential run (see the "Threading
/// model" section of DESIGN.md for the full determinism contract).
///
/// Sizing: `CHET_NUM_THREADS` in the environment, read on first use;
/// unset or invalid falls back to `std::thread::hardware_concurrency()`.
/// A count of 1 short-circuits every `parallelFor` onto the calling
/// thread with no pool machinery at all — the exact sequential path.
///
/// Nested parallelism: every dispatched region is a job on the issuing
/// thread's stack, listed among the pool's open jobs until all its blocks
/// are claimed. Parked workers claim blocks from the most recently opened
/// job first — the innermost region — so the limb loops under a kernel
/// loop that maps over fewer ciphertexts than there are lanes pick up the
/// idle lanes. The issuer claims its own job's blocks until
/// none are left, then waits only for blocks other threads have already
/// claimed and never runs another job's block while it waits, so every
/// wait depends only on running blocks and cannot deadlock.
///
//===----------------------------------------------------------------------===//

#ifndef CHET_SUPPORT_THREADPOOL_H
#define CHET_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace chet {

/// Largest lane count a pool accepts, from any source.
inline constexpr unsigned kMaxThreadCount = 1024;

/// Parses a lane count written as plain decimal digits: 0 (meaning the
/// CHET_NUM_THREADS / hardware default) through kMaxThreadCount. Signs,
/// other characters, an empty string or a larger value throw
/// InvalidArgumentError. Shared by `CHET_NUM_THREADS` and the benches'
/// `--threads` flag.
unsigned parseThreadCount(const char *Text);

class ThreadPool {
public:
  /// Spawns `Threads - 1` workers; the caller of parallelFor always
  /// participates as the remaining lane. `Threads == 1` spawns nothing.
  /// Throws InvalidArgumentError above kMaxThreadCount, before any thread
  /// is created.
  explicit ThreadPool(unsigned Threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Total number of execution lanes (workers + the calling thread).
  unsigned numThreads() const { return unsigned(Workers.size()) + 1; }

  /// Runs `Fn(Lo, Hi)` over a deterministic partition of [Begin, End)
  /// into contiguous blocks of at least `Grain` iterations. Blocks on
  /// completion. The first exception thrown by any block is rethrown on
  /// the calling thread after all blocks finish.
  void parallelForBlocks(size_t Begin, size_t End, size_t Grain,
                         const std::function<void(size_t, size_t)> &Fn);

  /// Element-wise convenience wrapper: `Fn(I)` for every I in [Begin, End).
  template <typename F>
  void parallelFor(size_t Begin, size_t End, size_t Grain, F &&Fn) {
    parallelForBlocks(Begin, End, Grain, [&Fn](size_t Lo, size_t Hi) {
      for (size_t I = Lo; I < Hi; ++I)
        Fn(I);
    });
  }

private:
  struct Job;

  void workerLoop();
  /// Claims J's next block; Mu must be held.
  size_t claimBlock(Job &J);
  /// Runs block B of J with `Lock` (on Mu) released; returns with it held
  /// after recording completion.
  void runBlock(Job &J, size_t B, std::unique_lock<std::mutex> &Lock);

  std::vector<std::thread> Workers;

  std::mutex Mu;
  std::condition_variable WorkReady;
  /// Jobs that still have unclaimed blocks, in opening order (guarded by
  /// Mu). Workers claim from the back.
  std::vector<Job *> Open;
  bool Stopping = false;
};

/// The process-wide pool shared by the CKKS backends and the runtime
/// kernels. Constructed on first use from `CHET_NUM_THREADS`.
ThreadPool &globalThreadPool();

/// Replaces the global pool with one of `Threads` lanes (0 restores the
/// CHET_NUM_THREADS / hardware default). Throws InvalidArgumentError
/// above kMaxThreadCount and keeps the current pool. Must not be called
/// while parallel work is in flight; intended for benchmarks
/// (`--threads`) and the determinism tests.
void setGlobalThreadCount(unsigned Threads);

/// Lane count of the global pool (constructs it if needed).
unsigned globalThreadCount();

/// `globalThreadPool().parallelFor(...)` shorthand used across the stack.
template <typename F>
inline void parallelFor(size_t Begin, size_t End, size_t Grain, F &&Fn) {
  globalThreadPool().parallelFor(Begin, End, Grain, std::forward<F>(Fn));
}

} // namespace chet

#endif // CHET_SUPPORT_THREADPOOL_H
