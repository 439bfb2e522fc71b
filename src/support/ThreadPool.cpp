//===- ThreadPool.cpp - Deterministic-partition thread pool ---------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "support/Error.h"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>

namespace chet {

/// One dispatched region, living on the issuing thread's stack. Every
/// field but the immutable shape is guarded by the pool's Mu.
struct ThreadPool::Job {
  const std::function<void(size_t, size_t)> *Fn;
  size_t Begin;
  size_t End;
  size_t BlockSize;
  size_t NumBlocks;
  size_t NextBlock = 0; ///< Next unclaimed block.
  size_t Completed = 0; ///< Blocks finished, by any thread.
  std::exception_ptr FirstError{};
  /// Signalled (under Mu) when the last block completes; only the issuer
  /// waits on it.
  std::condition_variable Done{};
};

namespace {
/// parseThreadCount without the throw: nullopt for a malformed value.
std::optional<unsigned> tryParseThreadCount(const char *Text) {
  unsigned Value = 0;
  const char *P = Text;
  for (; *P >= '0' && *P <= '9'; ++P) {
    Value = Value * 10 + unsigned(*P - '0');
    if (Value > kMaxThreadCount)
      return std::nullopt;
  }
  if (P == Text || *P != '\0')
    return std::nullopt;
  return Value;
}

unsigned defaultThreadCount() {
  // An invalid or zero CHET_NUM_THREADS means the hardware default.
  if (const char *Env = std::getenv("CHET_NUM_THREADS"))
    if (std::optional<unsigned> Parsed = tryParseThreadCount(Env);
        Parsed && *Parsed)
      return *Parsed;
  unsigned Hw = std::thread::hardware_concurrency();
  return Hw == 0 ? 1 : Hw;
}

void checkThreadCount(unsigned Threads) {
  if (Threads > kMaxThreadCount)
    throw InvalidArgumentError(formatError("thread count ", Threads,
                                           " exceeds the cap of ",
                                           kMaxThreadCount));
}
} // namespace

unsigned parseThreadCount(const char *Text) {
  if (std::optional<unsigned> Value = tryParseThreadCount(Text))
    return *Value;
  throw InvalidArgumentError(formatError("thread count \"", Text,
                                         "\" is not a number in [0, ",
                                         kMaxThreadCount, "]"));
}

ThreadPool::ThreadPool(unsigned Threads) {
  checkThreadCount(Threads);
  if (Threads == 0)
    Threads = 1;
  Workers.reserve(Threads - 1);
  for (unsigned I = 1; I < Threads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Stopping = true;
  }
  WorkReady.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

size_t ThreadPool::claimBlock(Job &J) {
  size_t B = J.NextBlock++;
  if (J.NextBlock == J.NumBlocks)
    Open.erase(std::find(Open.begin(), Open.end(), &J));
  return B;
}

void ThreadPool::runBlock(Job &J, size_t B,
                          std::unique_lock<std::mutex> &Lock) {
  Lock.unlock();
  size_t Lo = J.Begin + B * J.BlockSize;
  size_t Hi = std::min(J.End, Lo + J.BlockSize);
  std::exception_ptr Err;
  try {
    (*J.Fn)(Lo, Hi);
  } catch (...) {
    Err = std::current_exception();
  }
  Lock.lock();
  if (Err && !J.FirstError)
    J.FirstError = Err;
  // Notified under Mu: the issuer cannot observe completion, return and
  // destroy J until this thread lets go of the lock.
  if (++J.Completed == J.NumBlocks)
    J.Done.notify_one();
}

void ThreadPool::workerLoop() {
  std::unique_lock<std::mutex> Lock(Mu);
  while (true) {
    WorkReady.wait(Lock, [&] { return Stopping || !Open.empty(); });
    if (Stopping)
      return;
    // The most recently opened job is the innermost region in flight.
    Job &J = *Open.back();
    runBlock(J, claimBlock(J), Lock);
  }
}

void ThreadPool::parallelForBlocks(
    size_t Begin, size_t End, size_t Grain,
    const std::function<void(size_t, size_t)> &Fn) {
  if (End <= Begin)
    return;
  size_t Range = End - Begin;
  if (Grain == 0)
    Grain = 1;
  size_t MaxBlocks =
      std::min<size_t>(numThreads(), (Range + Grain - 1) / Grain);
  // Single lane or a range too small to split: the sequential path.
  if (MaxBlocks <= 1) {
    Fn(Begin, End);
    return;
  }

  // Deterministic partition: contiguous blocks of equal size (the last
  // one short). Boundaries depend only on (Range, Grain, Lanes).
  size_t Size = (Range + MaxBlocks - 1) / MaxBlocks;
  size_t Blocks = (Range + Size - 1) / Size;

  Job J{.Fn = &Fn, .Begin = Begin, .End = End, .BlockSize = Size,
        .NumBlocks = Blocks};
  std::unique_lock<std::mutex> Lock(Mu);
  Open.push_back(&J);
  // One wake-up per block beyond the one this thread takes; a wake-up
  // with no parked worker is a no-op.
  for (size_t I = 1; I < Blocks; ++I)
    WorkReady.notify_one();

  // Claim our own blocks until none are left, then wait only for blocks
  // other threads have already claimed.
  while (J.NextBlock < J.NumBlocks)
    runBlock(J, claimBlock(J), Lock);
  J.Done.wait(Lock, [&] { return J.Completed == J.NumBlocks; });
  if (J.FirstError)
    std::rethrow_exception(J.FirstError);
}

namespace {
std::mutex GlobalPoolMu;
std::unique_ptr<ThreadPool> GlobalPool;
} // namespace

ThreadPool &globalThreadPool() {
  std::lock_guard<std::mutex> Lock(GlobalPoolMu);
  if (!GlobalPool)
    GlobalPool = std::make_unique<ThreadPool>(defaultThreadCount());
  return *GlobalPool;
}

void setGlobalThreadCount(unsigned Threads) {
  checkThreadCount(Threads);
  std::lock_guard<std::mutex> Lock(GlobalPoolMu);
  GlobalPool.reset(); // join old workers before spawning replacements
  GlobalPool = std::make_unique<ThreadPool>(
      Threads == 0 ? defaultThreadCount() : Threads);
}

unsigned globalThreadCount() { return globalThreadPool().numThreads(); }

} // namespace chet
