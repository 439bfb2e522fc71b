//===- test_verifier.cpp - Static verifier tests ---------------------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the post-compile static verifier (Verifier.h): one intentionally
/// broken circuit per check -- scale mismatch, modulus-chain exhaustion,
/// missing rotation key, dead ciphertext -- asserting the exact
/// diagnostic code, severity, and layer provenance, plus clean LeNet-5
/// variants verifying with zero errors.
///
//===----------------------------------------------------------------------===//

#include "core/Verifier.h"

#include "core/FootprintAnalysis.h"
#include "core/Validate.h"
#include "nn/Networks.h"
#include "support/Prng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

using namespace chet;

namespace {

CompilerOptions baseOptions() {
  CompilerOptions O;
  O.Scheme = SchemeKind::RnsCkks;
  O.Security = SecurityLevel::Classical128;
  O.Scales = ScaleConfig::fromExponents(30, 30, 30, 16);
  return O;
}

const VerifierDiagnostic *findDiag(const std::vector<VerifierDiagnostic> &Ds,
                                   ErrorCode Code, Severity Sev) {
  for (const VerifierDiagnostic &D : Ds)
    if (D.Code == Code && D.Sev == Sev)
      return &D;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Seeded violations, one per check.
//===----------------------------------------------------------------------===//

/// Scale mismatch: concatenate the raw input (scale 2^30) with an
/// activation branch rescaled by primes of ~2^19.6 (3 * 2^18), which can
/// never land the branch back on a power-of-two scale. The concat
/// kernel's masked accumulation adds the two streams -- a scale mismatch
/// the verifier must pin on the concat node with both origins named.
TEST(Verifier, ReportsScaleMismatchWithLayerProvenance) {
  TensorCircuit Circ("mismatch");
  int In = Circ.input(1, 8, 8);
  int Act = Circ.polyActivation(In, 0.25, 0.5);
  int Cat = Circ.concatChannels(In, Act);
  Circ.output(Cat);

  CompiledCircuit Compiled;
  Compiled.Scheme = SchemeKind::RnsCkks;
  Compiled.Policy = LayoutPolicy::AllCHW;
  Compiled.Scales = ScaleConfig::fromExponents(30, 30, 30, 30);
  Compiled.LogN = 12;
  Compiled.PadPhys = Circ.padPhysNeeded();
  RnsCkksParams P;
  P.LogN = 12;
  P.ChainPrimes = {uint64_t(1) << 59};
  for (int I = 0; I < 8; ++I)
    P.ChainPrimes.push_back(uint64_t(3) << 18);
  P.StockPow2Keys = true; // every rotation servable; isolate the scale check
  Compiled.Rns = P;

  VerificationReport R = verifyCircuit(Circ, Compiled);
  EXPECT_FALSE(R.ok());
  const VerifierDiagnostic *D =
      findDiag(R.Diagnostics, ErrorCode::ScaleMismatch, Severity::Error);
  ASSERT_NE(D, nullptr) << R.str();
  EXPECT_GE(D->NodeId, 0);
  EXPECT_TRUE(D->Layer == "concat1" || D->Layer == "conv1" ||
              D->Layer == "act1")
      << D->Layer;
  EXPECT_FALSE(D->HisaOp.empty());
  EXPECT_NE(D->Message.find("mismatched scales"), std::string::npos)
      << D->Message;
  EXPECT_NE(R.str().find("error ScaleMismatch"), std::string::npos);
}

/// Level underflow: compile a LeNet variant, then chop the compiled
/// modulus chain down to two scaling primes. Re-verifying the mutilated
/// artifact must flag the rescales that no longer fit, attributed to the
/// layers issuing them.
TEST(Verifier, ReportsLevelExhaustionOnTruncatedChain) {
  TensorCircuit Circ = makeLeNet5Small(/*Reduction=*/4);
  CompiledCircuit Compiled = compileCircuit(Circ, baseOptions());
  ASSERT_TRUE(Compiled.Rns.has_value());
  ASSERT_GT(Compiled.Rns->ChainPrimes.size(), 3u);
  Compiled.Rns->ChainPrimes.resize(3); // base prime + two scaling primes

  VerificationReport R = verifyCircuit(Circ, Compiled);
  EXPECT_FALSE(R.ok());
  const VerifierDiagnostic *D =
      findDiag(R.Diagnostics, ErrorCode::LevelExhausted, Severity::Error);
  ASSERT_NE(D, nullptr) << R.str();
  EXPECT_GE(D->NodeId, 0);
  EXPECT_FALSE(D->Layer.empty());
  EXPECT_EQ(D->HisaOp, "maxRescale");
  EXPECT_NE(D->Message.find("exhausted"), std::string::npos) << D->Message;
}

/// Missing rotation key: remove one non-decomposable step from the
/// compiled key set (or, if every single step is covered by the others,
/// the whole set). The verifier must name the unservable rotation and
/// the layer that issues it.
TEST(Verifier, ReportsMissingRotationKey) {
  TensorCircuit Circ = makeLeNet5Small(/*Reduction=*/4);
  CompiledCircuit Compiled = compileCircuit(Circ, baseOptions());
  ASSERT_FALSE(Compiled.RotationKeys.empty());
  size_t Slots = size_t(1) << (Compiled.LogN - 1);

  std::set<int> Keys;
  for (const RotationKeySpec &K : Compiled.RotationKeys)
    Keys.insert(K.Step);
  int Victim = -1;
  for (int Step : Keys) {
    std::set<int> Rest = Keys;
    Rest.erase(Step);
    if (!missingRotationSteps({Step}, Rest, Slots).empty()) {
      Victim = Step;
      break;
    }
  }
  if (Victim != -1) {
    std::erase_if(Compiled.RotationKeys, [&](const RotationKeySpec &K) {
      return K.Step == Victim;
    });
  } else {
    Compiled.RotationKeys.clear(); // no key survives alone; drop them all
  }

  VerificationReport R = verifyCircuit(Circ, Compiled);
  EXPECT_FALSE(R.ok());
  const VerifierDiagnostic *D =
      findDiag(R.Diagnostics, ErrorCode::MissingRotationKey, Severity::Error);
  ASSERT_NE(D, nullptr) << R.str();
  EXPECT_GE(D->NodeId, 0);
  EXPECT_FALSE(D->Layer.empty());
  // Kernels issue rotations singly or through hoisted fan-outs; the
  // missing key must be attributed to whichever instruction used it.
  EXPECT_TRUE(D->HisaOp == "rotLeftAssign" || D->HisaOp == "rotLeftMany")
      << D->HisaOp;
  EXPECT_NE(D->Message.find("no Galois key"), std::string::npos)
      << D->Message;
}

/// Under-provisioned key: lower one selected key below the level the
/// compiler recorded for it. The verifier must reject the artifact, and
/// the footprint must size the key the backend would generate.
TEST(Verifier, ReportsKeyBelowItsSwitchLevel) {
  TensorCircuit Circ = makeLeNet5Small(/*Reduction=*/4);
  CompiledCircuit Compiled = compileCircuit(Circ, baseOptions());
  EXPECT_TRUE(verifyCircuit(Circ, Compiled).ok());
  auto It = std::find_if(
      Compiled.RotationKeys.begin(), Compiled.RotationKeys.end(),
      [](const RotationKeySpec &K) { return K.Level > 0; });
  ASSERT_NE(It, Compiled.RotationKeys.end());
  const int Step = It->Step, Recorded = It->Level;
  const uint64_t KeyBytes = Compiled.Footprint.KeyBytes;
  --It->Level;

  VerificationReport R = verifyCircuit(Circ, Compiled);
  EXPECT_FALSE(R.ok());
  const VerifierDiagnostic *D =
      findDiag(R.Diagnostics, ErrorCode::MissingRotationKey, Severity::Error);
  ASSERT_NE(D, nullptr) << R.str();
  EXPECT_NE(D->Message.find("rotation by " + std::to_string(Step)),
            std::string::npos)
      << D->Message;
  EXPECT_NE(D->Message.find("level " + std::to_string(Recorded)),
            std::string::npos)
      << D->Message;
  EXPECT_LT(analyzeFootprint(Circ, Compiled).KeyBytes, KeyBytes);
}

/// Hoisted fan-out with a missing key: issue a rotLeftMany directly at
/// the audit's abstract machine with one unservable amount. The
/// diagnostic must carry the rotLeftMany op name, the current node, and
/// an error per batch (deduplicated), while the servable amounts pass.
TEST(Verifier, ReportsUnservableHoistedAmountWithProvenance) {
  AuditConfig VC;
  VC.Rns = true;
  VC.LogN = 12;
  VC.ScalePrimeCandidates = {uint64_t(1) << 30};
  VC.AvailableRotationSteps = {1, 2, 3};
  VC.StockPow2Keys = false;
  AuditBackend VB(VC);
  VB.beginNode(7, "conv_taps");

  AuditBackend::Ct C;
  C.Scale = double(uint64_t(1) << 30);
  // Amounts 1..3 are keyed; 5 = 4+1 has no key for the 4-hop, so it is
  // unservable by decomposition as well.
  std::vector<AuditBackend::Ct> Out = VB.rotLeftMany(C, {1, 2, 5, 3});
  ASSERT_EQ(Out.size(), 4u);

  ASSERT_EQ(VB.events().size(), 1u);
  const AuditEvent &E = VB.events()[0];
  EXPECT_EQ(E.Sev, Severity::Error);
  EXPECT_EQ(E.Code, ErrorCode::MissingRotationKey);
  EXPECT_EQ(std::string(E.HisaOp), "rotLeftMany");
  EXPECT_EQ(E.NodeId, 7);
  EXPECT_NE(E.Message.find("hoisted rotation by 5"), std::string::npos)
      << E.Message;
  EXPECT_NE(E.Message.find("no Galois key"), std::string::npos) << E.Message;
  // All four amounts count as rotations against the node's stats.
  EXPECT_EQ(VB.nodeStats().back().Rotations, 4u);
}

/// Dead ciphertext: a branch that never reaches the output compiles
/// cleanly (it is wasted work, not an error) but must surface as a
/// warning -- both in the standalone report and on the compiled
/// artifact's warning list.
TEST(Verifier, ReportsDeadCiphertextAsWarning) {
  TensorCircuit Circ("deadbranch");
  int In = Circ.input(1, 8, 8);
  int Dead = Circ.polyActivation(In, 0.25, 0.5); // act1: never consumed
  int Live = Circ.polyActivation(In, 0.25, 0.5); // act2: reaches output
  Circ.output(Live);

  CompiledCircuit Compiled = compileCircuit(Circ, baseOptions());
  const VerifierDiagnostic *OnArtifact =
      findDiag(Compiled.Warnings, ErrorCode::DeadCiphertext,
               Severity::Warning);
  ASSERT_NE(OnArtifact, nullptr);
  EXPECT_EQ(OnArtifact->NodeId, Dead);
  EXPECT_EQ(OnArtifact->Layer, "act1");

  VerificationReport R = verifyCircuit(Circ, Compiled);
  EXPECT_TRUE(R.ok()) << R.str(); // dead work is a warning, not an error
  const VerifierDiagnostic *D =
      findDiag(R.Diagnostics, ErrorCode::DeadCiphertext, Severity::Warning);
  ASSERT_NE(D, nullptr) << R.str();
  EXPECT_EQ(D->NodeId, Dead);
  EXPECT_EQ(D->Layer, "act1");
  EXPECT_NE(D->Message.find("never reaches"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Clean networks and the service API.
//===----------------------------------------------------------------------===//

TEST(Verifier, CleanLeNetVariantsVerifyWithZeroErrors) {
  struct Variant {
    TensorCircuit Circ;
    const char *FirstConv;
  };
  Variant Variants[] = {{makeLeNet5Small(/*Reduction=*/2), "conv1"},
                        {makeLeNet5Medium(/*Reduction=*/4), "conv1"}};
  for (Variant &V : Variants) {
    // compileCircuit runs the verifier itself (PostCompileVerify): it
    // throwing here would already fail the test.
    CompiledCircuit Compiled = compileCircuit(V.Circ, baseOptions());
    VerificationReport R = verifyCircuit(V.Circ, Compiled);
    EXPECT_EQ(R.errors(), 0u) << R.str();
    EXPECT_TRUE(R.ok());
    // Provenance map: the builder's default labels name the layers.
    EXPECT_EQ(V.Circ.label(1), V.FirstConv);
    ASSERT_FALSE(R.LayerDepth.empty());
    std::string Table = R.depthTableStr();
    EXPECT_NE(Table.find("conv1"), std::string::npos) << Table;
    EXPECT_NE(Table.find("fc1"), std::string::npos) << Table;
    // The hotspot metric is per-ciphertext: the degree-2 activations
    // (scalar mul + squaring = 2 levels on one ciphertext) always earn a
    // note, and it is a note, never an error. Layers that only fan one
    // rescale across many parallel ciphertexts (fc1's 16 rows) must not.
    const VerifierDiagnostic *Hot =
        findDiag(R.Diagnostics, ErrorCode::DepthHotspot, Severity::Note);
    ASSERT_NE(Hot, nullptr) << R.str();
    bool ActIsHot = false, Fc1IsHot = false;
    for (const VerifierDiagnostic &D : R.Diagnostics) {
      if (D.Code != ErrorCode::DepthHotspot)
        continue;
      EXPECT_EQ(D.Sev, Severity::Note);
      ActIsHot |= D.Layer.substr(0, 3) == "act";
      Fc1IsHot |= D.Layer == "fc1";
    }
    EXPECT_TRUE(ActIsHot) << R.str();
    EXPECT_FALSE(Fc1IsHot) << R.str();
    // Anything non-fatal the pass found also rode along on the artifact.
    EXPECT_EQ(Compiled.Warnings.size(), R.Diagnostics.size());
  }
}

TEST(Verifier, ServiceOverloadReportsCompilationFailure) {
  TensorCircuit Circ("abyss");
  int X = Circ.input(1, 8, 8);
  for (int I = 0; I < 60; ++I)
    X = Circ.polyActivation(X, 0.25, 0.5);
  Circ.output(X);

  VerificationReport R = verifyCircuit(Circ, baseOptions());
  EXPECT_FALSE(R.ok());
  ASSERT_FALSE(R.Diagnostics.empty());
  EXPECT_EQ(R.Diagnostics.front().Sev, Severity::Error);
  EXPECT_EQ(R.Diagnostics.front().Layer, "compilation");
  EXPECT_NE(R.str().find("error"), std::string::npos);
}

TEST(Verifier, PostCompileVerifyCanBeDisabled) {
  TensorCircuit Circ("deadbranch-off");
  int In = Circ.input(1, 8, 8);
  (void)Circ.polyActivation(In, 0.25, 0.5); // dead branch
  int Live = Circ.polyActivation(In, 0.25, 0.5);
  Circ.output(Live);

  CompilerOptions O = baseOptions();
  O.PostCompileVerify = false;
  CompiledCircuit Compiled = compileCircuit(Circ, O);
  EXPECT_TRUE(Compiled.Warnings.empty());
}

} // namespace
