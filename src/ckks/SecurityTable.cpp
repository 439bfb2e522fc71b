//===- SecurityTable.cpp - HE-standard security parameter table ----------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ckks/SecurityTable.h"

namespace {

// Rows: LogN = 10 .. 16. Values: max log2(QP) for ternary secret,
// classical security, from Table 1 of the HE Security Standard (2018);
// the LogN = 16 row for 128-bit follows the extended table used by SEAL.
constexpr int Table128[] = {27, 54, 109, 218, 438, 881, 1792};
constexpr int Table192[] = {19, 37, 75, 152, 305, 611, 1229};
constexpr int Table256[] = {14, 29, 58, 118, 237, 476, 953};

} // namespace

int chet::maxLogQForSecurity(int LogN, SecurityLevel Level) {
  if (Level == SecurityLevel::None)
    return 1 << 20; // effectively unconstrained
  if (LogN < 10 || LogN > 16)
    return 0;
  switch (Level) {
  case SecurityLevel::Classical128:
    return Table128[LogN - 10];
  case SecurityLevel::Classical192:
    return Table192[LogN - 10];
  case SecurityLevel::Classical256:
    return Table256[LogN - 10];
  case SecurityLevel::None:
    break;
  }
  return 0;
}

int chet::minLogNForLogQ(int LogQ, SecurityLevel Level) {
  if (Level == SecurityLevel::None)
    return 10;
  for (int LogN = 10; LogN <= 16; ++LogN)
    if (maxLogQForSecurity(LogN, Level) >= LogQ)
      return LogN;
  return -1;
}
