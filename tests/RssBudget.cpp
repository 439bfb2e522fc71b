//===- RssBudget.cpp - Per-test peak-RSS budget ---------------------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "RssBudget.h"

#include <gtest/gtest.h>

#include <cstdio>

#include <sys/resource.h>

namespace chet::test {
namespace {

const char *TagReason = nullptr;
long TagCeilingMiB = 0;

/// The process's peak resident set size so far, in MiB.
long peakRssMiB() {
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  return Usage.ru_maxrss / 1024; // kilobytes on Linux
}

class RssBudgetListener : public ::testing::EmptyTestEventListener {
  long PeakBefore = 0;

  void OnTestStart(const ::testing::TestInfo &) override {
    TagReason = nullptr;
    TagCeilingMiB = kRssBudgetMiB;
    PeakBefore = peakRssMiB();
  }

  // Runs before the default printer's OnTestEnd (gtest notifies listeners
  // in reverse order), so a failure added here marks the test FAILED.
  void OnTestEnd(const ::testing::TestInfo &Info) override {
    long Peak = peakRssMiB();
    if (PeakBefore > kRssBudgetMiB || Peak <= kRssBudgetMiB)
      return;
    if (Peak <= TagCeilingMiB) {
      std::printf("[ RSS      ] %s.%s peaks at %ld MiB (budget %ld MiB, "
                  "tagged up to %ld MiB: %s)\n",
                  Info.test_suite_name(), Info.name(), Peak, kRssBudgetMiB,
                  TagCeilingMiB, TagReason);
      return;
    }
    ADD_FAILURE() << "peak RSS rose from " << PeakBefore << " to " << Peak
                  << " MiB, past the " << TagCeilingMiB
                  << " MiB ceiling (per-test budget " << kRssBudgetMiB
                  << " MiB); shrink the test or tag it with "
                     "allowRssAboveBudget(ceiling, reason)";
  }
};

// Registered before main: gtest_main's InitGoogleTest keeps listeners.
[[maybe_unused]] const bool Registered = [] {
  ::testing::UnitTest::GetInstance()->listeners().Append(
      new RssBudgetListener);
  return true;
}();

} // namespace

void allowRssAboveBudget(long CeilingMiB, const char *Reason) {
  TagCeilingMiB = CeilingMiB;
  TagReason = Reason;
}

} // namespace chet::test
