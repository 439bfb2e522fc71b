//===- RssBudget.h - Per-test peak-RSS budget -------------------*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every test binary links RssBudget.cpp, which registers a gtest listener
/// that reads the process's peak resident set size (getrusage ru_maxrss)
/// after each test. The test whose run pushes the peak past
/// kRssBudgetMiB fails, unless it tagged itself with allowRssAboveBudget,
/// which raises its own ceiling and says why. Keeping every untagged test
/// under the budget keeps tier-1 runnable under `ctest -j` on a 16 GB
/// host.
///
//===----------------------------------------------------------------------===//

#ifndef CHET_TESTS_RSSBUDGET_H
#define CHET_TESTS_RSSBUDGET_H

namespace chet::test {

/// Peak RSS (MiB) a test may push the process to without a tag.
constexpr long kRssBudgetMiB = 2048;

/// Tags the running test as allowed to push the process's peak RSS past
/// kRssBudgetMiB, up to \p CeilingMiB. \p Reason says why the memory is
/// needed; it is printed when the tag is used.
void allowRssAboveBudget(long CeilingMiB, const char *Reason);

} // namespace chet::test

#endif // CHET_TESTS_RSSBUDGET_H
