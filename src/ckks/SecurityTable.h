//===- SecurityTable.h - HE-standard security parameter table --*- C++ -*-===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The (N, max log Q) security table from the Homomorphic Encryption
/// Security Standard (Chase et al., HomomorphicEncryption.org 2018) for
/// uniform ternary secrets under classical attacks. CHET "pre-populates
/// this in a table and chooses 128-bit security" (Section 5.2); the
/// parameter-selection pass queries it to pick the smallest ring dimension
/// N whose modulus budget covers the modulus the circuit consumes. Note
/// that the budget constrains the *total* modulus the secret key touches,
/// i.e. log(Q * P) including any key-switching prime.
///
//===----------------------------------------------------------------------===//

#ifndef CHET_CKKS_SECURITYTABLE_H
#define CHET_CKKS_SECURITYTABLE_H

namespace chet {

/// Security levels measured in bits against the best known classical
/// attacks; n-bit security means a brute-force attack is expected to take
/// at least 2^n operations (Section 2.3).
enum class SecurityLevel {
  None, ///< No constraint (used to mirror the paper's hand-written HEAAN
        ///< baselines, which "used non-standard encryption parameters").
  Classical128,
  Classical192,
  Classical256,
};

/// Returns the largest total modulus width log2(Q*P) that is secure at
/// ring dimension 2^\p LogN, or 0 if LogN is outside the table.
int maxLogQForSecurity(int LogN, SecurityLevel Level);

/// Returns the smallest LogN whose modulus budget is at least
/// \p LogQ bits, or -1 if no tabulated dimension suffices.
int minLogNForLogQ(int LogQ, SecurityLevel Level);

} // namespace chet

#endif // CHET_CKKS_SECURITYTABLE_H
