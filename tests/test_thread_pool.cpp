//===- test_thread_pool.cpp - Thread pool scheduling and sizing -----------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests of support/ThreadPool: nested regions cover every index
/// exactly once and finish at any lane count, a nested region's block
/// boundaries never depend on the schedule, an exception thrown deep in a
/// nested block reaches the outermost caller and leaves the pool usable,
/// concurrent external dispatchers each get their own results, and the
/// shared lane-count parser rejects malformed values.
///
//===----------------------------------------------------------------------===//

#include "support/Error.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

using namespace chet;

namespace {

constexpr size_t kOuter = 3, kMiddle = 5, kInner = 37;

/// Three nested regions over a kOuter x kMiddle x kInner grid; returns
/// how many times each cell ran.
std::vector<int> runThreeLevels(ThreadPool &Pool) {
  std::vector<std::atomic<int>> Hits(kOuter * kMiddle * kInner);
  Pool.parallelFor(0, kOuter, 1, [&](size_t A) {
    Pool.parallelFor(0, kMiddle, 1, [&](size_t B) {
      Pool.parallelFor(0, kInner, 4, [&](size_t C) {
        Hits[(A * kMiddle + B) * kInner + C].fetch_add(1);
      });
    });
  });
  std::vector<int> Out;
  for (const auto &H : Hits)
    Out.push_back(H.load());
  return Out;
}

TEST(ThreadPool, NestedRegionsCoverEveryIndexOnce) {
  for (unsigned Lanes : {1u, 2u, 3u, 4u, 8u}) {
    ThreadPool Pool(Lanes);
    for (int Rep = 0; Rep < 20; ++Rep) {
      std::vector<int> Hits = runThreeLevels(Pool);
      for (size_t I = 0; I < Hits.size(); ++I)
        ASSERT_EQ(Hits[I], 1) << Lanes << " lanes, cell " << I;
    }
  }
}

TEST(ThreadPool, NestedBlockBoundariesAreScheduleIndependent) {
  using Block = std::pair<size_t, size_t>;
  for (unsigned Lanes : {2u, 3u, 4u}) {
    ThreadPool Pool(Lanes);
    // Inner (Lo, Hi) blocks recorded per outer index, sorted: which
    // thread ran them, and in what order, may vary run to run.
    auto Record = [&] {
      std::vector<std::vector<Block>> Seen(2);
      std::mutex SeenMu;
      Pool.parallelFor(0, 2, 1, [&](size_t Outer) {
        Pool.parallelForBlocks(10, 1010, 7, [&](size_t Lo, size_t Hi) {
          std::lock_guard<std::mutex> Lock(SeenMu);
          Seen[Outer].emplace_back(Lo, Hi);
        });
      });
      for (auto &S : Seen)
        std::sort(S.begin(), S.end());
      return Seen;
    };
    std::vector<std::vector<Block>> First = Record();
    ASSERT_FALSE(First[0].empty());
    EXPECT_EQ(First[0], First[1]);
    EXPECT_EQ(First[0].front().first, 10u);
    EXPECT_EQ(First[0].back().second, 1010u);
    for (int Rep = 0; Rep < 50; ++Rep)
      ASSERT_EQ(Record(), First) << Lanes << " lanes, run " << Rep;
  }
}

TEST(ThreadPool, NestedExceptionReachesOutermostCaller) {
  ThreadPool Pool(4);
  for (int Rep = 0; Rep < 10; ++Rep) {
    EXPECT_THROW(Pool.parallelFor(0, 2, 1,
                                  [&](size_t A) {
                                    Pool.parallelFor(0, 4, 1, [&](size_t B) {
                                      Pool.parallelFor(0, 8, 1, [&](size_t C) {
                                        if (A == 1 && B == 2 && C == 5)
                                          throw std::runtime_error("boom");
                                      });
                                    });
                                  }),
                 std::runtime_error);
    // Still usable after the failure.
    std::vector<int> Hits = runThreeLevels(Pool);
    for (int H : Hits)
      ASSERT_EQ(H, 1);
  }
}

TEST(ThreadPool, ConcurrentExternalDispatchers) {
  ThreadPool Pool(4);
  constexpr size_t N = 4096;
  auto Dispatch = [&](uint64_t Salt, std::vector<uint64_t> &Out) {
    for (int Rep = 0; Rep < 50; ++Rep) {
      Out.assign(N, 0);
      Pool.parallelFor(0, N / 64, 1, [&](size_t Row) {
        Pool.parallelFor(0, 64, 8, [&](size_t Col) {
          size_t I = Row * 64 + Col;
          Out[I] = I * I + Salt;
        });
      });
    }
  };
  std::vector<uint64_t> A, B;
  std::thread TA(Dispatch, 1, std::ref(A));
  std::thread TB(Dispatch, 7, std::ref(B));
  TA.join();
  TB.join();
  for (size_t I = 0; I < N; ++I) {
    ASSERT_EQ(A[I], I * I + 1);
    ASSERT_EQ(B[I], I * I + 7);
  }
}

TEST(ThreadPool, ParseThreadCount) {
  EXPECT_EQ(parseThreadCount("8"), 8u);
  EXPECT_EQ(parseThreadCount("0"), 0u); // the CHET_NUM_THREADS default
  EXPECT_EQ(parseThreadCount("1024"), kMaxThreadCount);
  for (const char *Bad : {"-1", "abc", "1025", "", "8x", "+8", " 8",
                          "99999999999999999999"})
    EXPECT_THROW(parseThreadCount(Bad), InvalidArgumentError) << Bad;
}

} // namespace
