//===- UIntArith.cpp - 64-bit modular arithmetic primitives --------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "math/UIntArith.h"

#include "support/Prng.h"

#include <initializer_list>

using namespace chet;

Modulus::Modulus(uint64_t Q) : Value(Q) {
  assert(Q > 1 && "modulus must be at least 2");
  assert((Q >> 62) == 0 && "modulus must fit in 61 bits for lazy reduction");
  BitCount = 64 - __builtin_clzll(Q);
  Ratio64 = static_cast<uint64_t>(
      (static_cast<unsigned __int128>(1) << 64) / Q - 0); // floor(2^64/Q)
  // floor(2^128 / Q) computed by long division of 2^128 by Q:
  // high word first.
  unsigned __int128 Numerator = static_cast<unsigned __int128>(1) << 64;
  // 2^128 / Q = ((2^64 / Q) << 64) + ((2^64 mod Q) << 64) / Q.
  uint64_t Hi = static_cast<uint64_t>(Numerator / Q);
  unsigned __int128 Rem = Numerator % Q;
  Ratio128Hi = Hi;
  Ratio128Lo = static_cast<uint64_t>((Rem << 64) / Q);
}

uint64_t chet::powMod(uint64_t Base, uint64_t Exp, const Modulus &Q) {
  uint64_t Result = 1;
  uint64_t B = Q.reduce(Base);
  while (Exp != 0) {
    if (Exp & 1)
      Result = Q.mulMod(Result, B);
    B = Q.mulMod(B, B);
    Exp >>= 1;
  }
  return Result;
}

uint64_t chet::invMod(uint64_t A, const Modulus &Q) {
  assert(A != 0 && "cannot invert zero");
  // Q is prime in all uses, so Fermat's little theorem applies.
  return powMod(A, Q.value() - 2, Q);
}

bool chet::isPrime(uint64_t N) {
  if (N < 2)
    return false;
  for (uint64_t P : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL,
                     23ULL, 29ULL, 31ULL, 37ULL}) {
    if (N == P)
      return true;
    if (N % P == 0)
      return false;
  }
  // Deterministic Miller-Rabin witnesses for the full 64-bit range.
  uint64_t D = N - 1;
  int R = 0;
  while ((D & 1) == 0) {
    D >>= 1;
    ++R;
  }
  Modulus Mod(N);
  for (uint64_t A : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL,
                     23ULL, 29ULL, 31ULL, 37ULL}) {
    uint64_t X = powMod(A, D, Mod);
    if (X == 1 || X == N - 1)
      continue;
    bool Composite = true;
    for (int I = 1; I < R; ++I) {
      X = Mod.mulMod(X, X);
      if (X == N - 1) {
        Composite = false;
        break;
      }
    }
    if (Composite)
      return false;
  }
  return true;
}

uint64_t chet::findPrimitiveRoot(uint64_t GroupOrder, const Modulus &Q,
                                 uint64_t Seed) {
  assert((Q.value() - 1) % GroupOrder == 0 &&
         "group order must divide Q - 1");
  uint64_t Cofactor = (Q.value() - 1) / GroupOrder;
  Prng Rng(Seed);
  // A uniform element raised to the cofactor lands in the order-GroupOrder
  // subgroup; it generates the subgroup iff its (GroupOrder/2)-th power is
  // not 1 (GroupOrder is a power of two in all our uses).
  for (int Attempt = 0; Attempt < 256; ++Attempt) {
    uint64_t Candidate =
        powMod(Rng.nextBounded(Q.value() - 2) + 2, Cofactor, Q);
    if (Candidate == 0 || Candidate == 1)
      continue;
    if (powMod(Candidate, GroupOrder / 2, Q) != 1)
      return Candidate;
  }
  return 0;
}
