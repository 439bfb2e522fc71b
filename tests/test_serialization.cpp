//===- test_serialization.cpp - Serialization round-trip tests -------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ckks/Serialization.h"

#include "support/Error.h"
#include "support/Prng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

using namespace chet;

namespace {

RnsCkksParams testRnsParams() {
  RnsCkksParams P = RnsCkksParams::create(11, 3);
  P.Security = SecurityLevel::None;
  return P;
}

std::vector<double> someValues(size_t N, uint64_t Seed) {
  Prng Rng(Seed);
  std::vector<double> V(N);
  for (auto &X : V)
    X = Rng.nextDouble(-5, 5);
  return V;
}

TEST(Serialization, RnsParamsRoundTrip) {
  RnsCkksParams P = testRnsParams();
  P.Seed = 1234;
  P.StockPow2Keys = false;
  ByteBuffer B = serialize(P);
  RnsCkksParams Q;
  ASSERT_TRUE(deserialize(B, Q));
  EXPECT_EQ(Q.LogN, P.LogN);
  EXPECT_EQ(Q.ChainPrimes, P.ChainPrimes);
  EXPECT_EQ(Q.SpecialPrimes, P.SpecialPrimes);
  EXPECT_EQ(Q.Security, P.Security);
  EXPECT_EQ(Q.Seed, P.Seed);
  EXPECT_EQ(Q.StockPow2Keys, P.StockPow2Keys);
}

/// Parameters with a three-prime special list over a seven-prime chain.
RnsCkksParams hybridRnsParams() {
  RnsCkksParams P = testRnsParams();
  P.ChainPrimes = RnsCkksParams::candidateChain(7);
  P.SpecialPrimes = RnsCkksParams::specialPrimesFor(P.ChainPrimes, P.LogN,
                                                    SecurityLevel::None);
  P.SpecialPrimes.resize(3);
  return P;
}

TEST(Serialization, RnsParamsRoundTripCarriesTheSpecialPrimeList) {
  RnsCkksParams P = hybridRnsParams();
  ASSERT_EQ(P.SpecialPrimes.size(), 3u);
  RnsCkksParams Q;
  ASSERT_TRUE(deserialize(serialize(P), Q));
  EXPECT_EQ(Q.ChainPrimes, P.ChainPrimes);
  EXPECT_EQ(Q.SpecialPrimes, P.SpecialPrimes);
  EXPECT_EQ(serialize(Q), serialize(P));
}

TEST(Serialization, RnsParamsRejectBadSpecialPrimeLists) {
  RnsCkksParams Q;
  RnsCkksParams Empty = hybridRnsParams();
  Empty.SpecialPrimes.clear();
  EXPECT_FALSE(deserialize(serialize(Empty), Q));
  RnsCkksParams Duplicate = hybridRnsParams();
  Duplicate.SpecialPrimes[2] = Duplicate.SpecialPrimes[0];
  EXPECT_FALSE(deserialize(serialize(Duplicate), Q));
  RnsCkksParams Overlap = hybridRnsParams();
  Overlap.SpecialPrimes[1] = Overlap.ChainPrimes[3];
  EXPECT_FALSE(deserialize(serialize(Overlap), Q));
  // The backend refuses the same lists.
  EXPECT_THROW(RnsCkksBackend{Empty}, ChetError);
  EXPECT_THROW(RnsCkksBackend{Duplicate}, ChetError);
  EXPECT_THROW(RnsCkksBackend{Overlap}, ChetError);
}

TEST(Serialization, RnsParamsEveryTruncationFailsCleanly) {
  ByteBuffer Wire = serialize(hybridRnsParams());
  for (size_t Cut = 0; Cut < Wire.size(); ++Cut) {
    ByteBuffer Truncated(Wire.begin(), Wire.begin() + Cut);
    RnsCkksParams Out;
    ASSERT_FALSE(deserialize(Truncated, Out)) << "cut at " << Cut;
  }
}

TEST(Serialization, RnsParamsBitFlipsRejectOrKeepTheListInvariants) {
  // Every single-bit corruption is rejected or decodes to parameters
  // whose special-prime list is still non-empty and disjoint.
  RnsCkksParams P = hybridRnsParams();
  ByteBuffer Wire = serialize(P);
  size_t Accepted = 0;
  for (size_t Bit = 0; Bit < Wire.size() * 8; ++Bit) {
    ByteBuffer Mutated = Wire;
    Mutated[Bit / 8] ^= uint8_t(1) << (Bit % 8);
    RnsCkksParams Out;
    if (!deserialize(Mutated, Out))
      continue;
    ++Accepted;
    ASSERT_FALSE(Out.SpecialPrimes.empty()) << "bit " << Bit;
    std::vector<uint64_t> All = Out.ChainPrimes;
    All.insert(All.end(), Out.SpecialPrimes.begin(), Out.SpecialPrimes.end());
    std::sort(All.begin(), All.end());
    EXPECT_EQ(std::adjacent_find(All.begin(), All.end()), All.end())
        << "bit " << Bit;
  }
  // Tag and list-length flips are all rejected.
  EXPECT_LT(Accepted, Wire.size() * 8);
}

TEST(Serialization, RnsCiphertextRoundTripsThroughTheWire) {
  // The Figure 3 flow: the client encrypts, the bytes travel, the server
  // (here: a second backend with the same keys/seed) computes, the bytes
  // travel back, the client decrypts.
  RnsCkksParams P = testRnsParams();
  RnsCkksBackend Client(P);
  RnsCkksBackend Server(P); // same seed -> same secret key

  auto Values = someValues(Client.slotCount(), 1);
  auto Ct = Client.encrypt(Client.encode(Values, 1LL << 40));
  ByteBuffer Wire = serialize(Ct);

  RnsCkksBackend::Ct Received;
  ASSERT_TRUE(deserialize(Wire, Received));
  Server.addScalarAssign(Received, 1.0);
  ByteBuffer WireBack = serialize(Received);

  RnsCkksBackend::Ct Result;
  ASSERT_TRUE(deserialize(WireBack, Result));
  auto Back = Client.decode(Client.decrypt(Result));
  for (size_t I = 0; I < Values.size(); ++I)
    ASSERT_NEAR(Back[I], Values[I] + 1.0, 1e-6);
}

TEST(Serialization, BigParamsRoundTrip) {
  BigCkksParams P;
  P.LogN = 11;
  P.LogQ = 150;
  P.LogSpecial = 150;
  P.Security = SecurityLevel::None;
  P.Seed = 99;
  ByteBuffer B = serialize(P);
  BigCkksParams Q;
  ASSERT_TRUE(deserialize(B, Q));
  EXPECT_EQ(Q.LogN, P.LogN);
  EXPECT_EQ(Q.LogQ, P.LogQ);
  EXPECT_EQ(Q.LogSpecial, P.LogSpecial);
  EXPECT_EQ(Q.Seed, P.Seed);
}

TEST(Serialization, BigCiphertextRoundTrip) {
  BigCkksParams P;
  P.LogN = 10;
  P.LogQ = 120;
  P.Security = SecurityLevel::None;
  P.StockPow2Keys = false;
  BigCkksBackend Backend(P);
  auto Values = someValues(Backend.slotCount(), 2);
  auto Ct = Backend.encrypt(Backend.encode(Values, 1 << 25));
  ByteBuffer Wire = serialize(Ct);
  BigCkksBackend::Ct Back;
  ASSERT_TRUE(deserialize(Wire, Back));
  EXPECT_EQ(Back.LogQ, Ct.LogQ);
  for (size_t K = 0; K < Ct.C0.size(); ++K) {
    EXPECT_EQ(Back.C0[K].compare(Ct.C0[K]), 0);
    EXPECT_EQ(Back.C1[K].compare(Ct.C1[K]), 0);
  }
  auto Decoded = Backend.decode(Backend.decrypt(Back));
  for (size_t I = 0; I < Values.size(); ++I)
    ASSERT_NEAR(Decoded[I], Values[I], 1e-3);
}

TEST(Serialization, RejectsWrongTag) {
  RnsCkksParams P = testRnsParams();
  ByteBuffer B = serialize(P);
  BigCkksParams Q;
  EXPECT_FALSE(deserialize(B, Q)); // RNS bytes into big-CKKS params
  RnsCkksBackend::Ct Ct;
  EXPECT_FALSE(deserialize(B, Ct)); // params bytes into ciphertext
}

TEST(Serialization, RejectsTruncatedInput) {
  RnsCkksParams P = testRnsParams();
  RnsCkksBackend Backend(P);
  auto Values = someValues(Backend.slotCount(), 3);
  auto Ct = Backend.encrypt(Backend.encode(Values, 1LL << 40));
  ByteBuffer Wire = serialize(Ct);
  for (size_t Cut : {size_t(0), size_t(3), Wire.size() / 2,
                     Wire.size() - 1}) {
    ByteBuffer Truncated(Wire.begin(), Wire.begin() + Cut);
    RnsCkksBackend::Ct Out;
    EXPECT_FALSE(deserialize(Truncated, Out)) << "cut at " << Cut;
  }
}

TEST(Serialization, RejectsTrailingGarbage) {
  RnsCkksParams P = testRnsParams();
  ByteBuffer B = serialize(P);
  B.push_back(0xAB);
  RnsCkksParams Q;
  EXPECT_FALSE(deserialize(B, Q));
}

TEST(Serialization, RejectsCorruptScale) {
  RnsCkksParams P = testRnsParams();
  RnsCkksBackend Backend(P);
  auto Ct = Backend.encrypt(
      Backend.encode(someValues(Backend.slotCount(), 4), 1LL << 40));
  ByteBuffer Wire = serialize(Ct);
  // The scale field sits after tag (4) + level (4); zero it out.
  for (int I = 0; I < 8; ++I)
    Wire[8 + I] = 0;
  RnsCkksBackend::Ct Out;
  EXPECT_FALSE(deserialize(Wire, Out));
}

TEST(Serialization, RejectsNonFiniteScale) {
  RnsCkksParams P = testRnsParams();
  RnsCkksBackend Backend(P);
  auto Ct = Backend.encrypt(
      Backend.encode(someValues(Backend.slotCount(), 5), 1LL << 40));
  for (double Bad : {std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
    Ct.Scale = Bad;
    ByteBuffer Wire = serialize(Ct);
    RnsCkksBackend::Ct Out;
    EXPECT_FALSE(deserialize(Wire, Out));
  }
}

TEST(Serialization, EveryTruncationFailsCleanly) {
  // Exhaustive truncation: no prefix of a valid ciphertext may crash or
  // deserialize successfully.
  RnsCkksParams P = testRnsParams();
  RnsCkksBackend Backend(P);
  auto Ct = Backend.encrypt(
      Backend.encode(someValues(Backend.slotCount(), 6), 1LL << 40));
  ByteBuffer Wire = serialize(Ct);
  for (size_t Cut = 0; Cut < Wire.size(); ++Cut) {
    ByteBuffer Truncated(Wire.begin(), Wire.begin() + Cut);
    RnsCkksBackend::Ct Out;
    ASSERT_FALSE(deserialize(Truncated, Out)) << "cut at " << Cut;
  }
}

TEST(Serialization, BitFlippedHeadersNeverCrash) {
  // Flip every bit of the header region (tag, level, scale, first size
  // field) one at a time: deserialization must either reject the buffer
  // or produce a ciphertext that the backend's decrypt guard still
  // validates -- never crash.
  RnsCkksParams P = testRnsParams();
  RnsCkksBackend Backend(P);
  auto Ct = Backend.encrypt(
      Backend.encode(someValues(Backend.slotCount(), 7), 1LL << 40));
  ByteBuffer Wire = serialize(Ct);
  const size_t HeaderBytes = 4 + 4 + 8 + 8;
  for (size_t Bit = 0; Bit < HeaderBytes * 8; ++Bit) {
    ByteBuffer Mutated = Wire;
    Mutated[Bit / 8] ^= uint8_t(1) << (Bit % 8);
    RnsCkksBackend::Ct Out;
    if (!deserialize(Mutated, Out))
      continue; // rejected: fine
    try {
      (void)Backend.decrypt(Out);
    } catch (const ChetError &E) {
      EXPECT_EQ(E.code(), ErrorCode::MalformedCiphertext);
    }
  }
}

TEST(Serialization, ForgedSizeFieldRejectedBeforeAllocating) {
  // A size field claiming 2^25 words on a tiny buffer must be rejected
  // by the remaining-bytes check, not by attempting a 256 MB resize.
  RnsCkksParams P = testRnsParams();
  RnsCkksBackend Backend(P);
  auto Ct = Backend.encrypt(
      Backend.encode(someValues(Backend.slotCount(), 8), 1LL << 40));
  ByteBuffer Wire = serialize(Ct);
  uint64_t Huge = uint64_t(1) << 25;
  std::memcpy(Wire.data() + 16, &Huge, sizeof Huge); // C0's word count
  RnsCkksBackend::Ct Out;
  EXPECT_FALSE(deserialize(Wire, Out));
}

TEST(Serialization, BigEveryTruncationFailsCleanly) {
  BigCkksParams P;
  P.LogN = 10;
  P.LogQ = 120;
  P.Security = SecurityLevel::None;
  P.StockPow2Keys = false;
  BigCkksBackend Backend(P);
  auto Ct = Backend.encrypt(
      Backend.encode(someValues(Backend.slotCount(), 9), 1 << 25));
  ByteBuffer Wire = serialize(Ct);
  for (size_t Cut = 0; Cut < Wire.size(); ++Cut) {
    ByteBuffer Truncated(Wire.begin(), Wire.begin() + Cut);
    BigCkksBackend::Ct Out;
    ASSERT_FALSE(deserialize(Truncated, Out)) << "cut at " << Cut;
  }
}

TEST(Serialization, BigBitFlippedHeadersNeverCrash) {
  BigCkksParams P;
  P.LogN = 10;
  P.LogQ = 120;
  P.Security = SecurityLevel::None;
  P.StockPow2Keys = false;
  BigCkksBackend Backend(P);
  auto Ct = Backend.encrypt(
      Backend.encode(someValues(Backend.slotCount(), 10), 1 << 25));
  ByteBuffer Wire = serialize(Ct);
  const size_t HeaderBytes = std::min<size_t>(32, Wire.size());
  for (size_t Bit = 0; Bit < HeaderBytes * 8; ++Bit) {
    ByteBuffer Mutated = Wire;
    Mutated[Bit / 8] ^= uint8_t(1) << (Bit % 8);
    BigCkksBackend::Ct Out;
    if (!deserialize(Mutated, Out))
      continue; // rejected: fine
    try {
      (void)Backend.decrypt(Out);
    } catch (const ChetError &) {
      // A typed error from the decrypt guard is an acceptable outcome;
      // anything else (crash, non-ChetError) fails the test harness.
    }
  }
}

TEST(Serialization, CorruptionAnywhereIsTypedNeverFatal) {
  // Sweep bit flips across the whole RNS ciphertext stream (dense over
  // the structured prefix, sampled through the payload): the throwing
  // form must either succeed or raise a ChetError -- no other exception
  // type, no crash. A flip that still deserializes must at least not be
  // silently identical to the original stream.
  RnsCkksParams P = testRnsParams();
  RnsCkksBackend Backend(P);
  auto Ct = Backend.encrypt(
      Backend.encode(someValues(Backend.slotCount(), 11), 1LL << 40));
  ByteBuffer Wire = serialize(Ct);
  auto ProbeBit = [&](size_t Bit) {
    ByteBuffer Mutated = Wire;
    Mutated[Bit / 8] ^= uint8_t(1) << (Bit % 8);
    RnsCkksBackend::Ct Out;
    try {
      deserializeOrThrow(Mutated, Out);
      EXPECT_NE(serialize(Out), Wire)
          << "bit " << Bit << " flipped yet the stream round-trips as if "
          << "nothing happened";
    } catch (const ChetError &E) {
      EXPECT_EQ(E.code(), ErrorCode::MalformedCiphertext) << E.what();
    }
  };
  for (size_t Bit = 0; Bit < 64 * 8 && Bit < Wire.size() * 8; ++Bit)
    ProbeBit(Bit);
  for (size_t Bit = 64 * 8; Bit < Wire.size() * 8; Bit += 8191)
    ProbeBit(Bit);
}

TEST(Serialization, ParamsStreamsSurviveExhaustiveBitFlips) {
  // Params buffers are small: flip every single bit and check the bool
  // and throwing forms agree (reject together or accept together).
  RnsCkksParams PR = testRnsParams();
  PR.Seed = 5;
  ByteBuffer RnsWire = serialize(PR);
  for (size_t Bit = 0; Bit < RnsWire.size() * 8; ++Bit) {
    ByteBuffer Mutated = RnsWire;
    Mutated[Bit / 8] ^= uint8_t(1) << (Bit % 8);
    RnsCkksParams A, B;
    bool Ok = deserialize(Mutated, A);
    try {
      deserializeOrThrow(Mutated, B);
      EXPECT_TRUE(Ok) << "throwing form accepted what bool form rejected "
                      << "(bit " << Bit << ")";
    } catch (const ChetError &) {
      EXPECT_FALSE(Ok) << "throwing form rejected what bool form accepted "
                       << "(bit " << Bit << ")";
    }
  }

  BigCkksParams PB;
  PB.LogN = 11;
  PB.LogQ = 150;
  PB.Security = SecurityLevel::None;
  ByteBuffer BigWire = serialize(PB);
  for (size_t Bit = 0; Bit < BigWire.size() * 8; ++Bit) {
    ByteBuffer Mutated = BigWire;
    Mutated[Bit / 8] ^= uint8_t(1) << (Bit % 8);
    BigCkksParams Out;
    EXPECT_NO_FATAL_FAILURE((void)deserialize(Mutated, Out));
  }
}

TEST(Serialization, ThrowingFormRaisesMalformedCiphertext) {
  ByteBuffer Junk = {1, 2, 3};
  RnsCkksBackend::Ct Rns;
  EXPECT_THROW(deserializeOrThrow(Junk, Rns), MalformedCiphertextError);
  BigCkksBackend::Ct Big;
  EXPECT_THROW(deserializeOrThrow(Junk, Big), MalformedCiphertextError);
  RnsCkksParams PR;
  EXPECT_THROW(deserializeOrThrow(Junk, PR), MalformedCiphertextError);
  BigCkksParams PB;
  EXPECT_THROW(deserializeOrThrow(Junk, PB), MalformedCiphertextError);

  // And the throwing form accepts what the boolean form accepts.
  RnsCkksParams P = testRnsParams();
  ByteBuffer Good = serialize(P);
  EXPECT_NO_THROW(deserializeOrThrow(Good, PR));
  EXPECT_EQ(PR.LogN, P.LogN);
}

} // namespace
