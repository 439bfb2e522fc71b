//===- Verifier.cpp - Post-compile static verification ---------------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Verifier.h"

#include "core/Audit.h"
#include "support/Error.h"

#include <iomanip>
#include <sstream>

using namespace chet;

std::string VerificationReport::str() const {
  std::ostringstream OS;
  OS << "circuit verification found " << errors() << " error"
     << (errors() == 1 ? "" : "s") << ", " << warnings() << " warning"
     << (warnings() == 1 ? "" : "s") << ", " << notes() << " note"
     << (notes() == 1 ? "" : "s") << ":";
  int N = 0;
  for (const VerifierDiagnostic &D : Diagnostics) {
    OS << "\n  " << ++N << ". " << severityName(D.Sev) << " "
       << errorCodeName(D.Code) << " [";
    if (D.NodeId >= 0)
      OS << "layer '" << D.Layer << "', node " << D.NodeId;
    else
      OS << D.Layer;
    if (!D.HisaOp.empty())
      OS << ", " << D.HisaOp;
    OS << "]: " << D.Message;
  }
  return OS.str();
}

std::string VerificationReport::depthTableStr() const {
  std::ostringstream OS;
  OS << "per-layer multiply depth and level consumption ("
     << layoutPolicyName(Policy) << "):\n";
  OS << std::left << std::setw(24) << "layer" << std::right << std::setw(9)
     << "ct-mul" << std::setw(9) << "pt-mul" << std::setw(9) << "sc-mul"
     << std::setw(9) << "rotate" << std::setw(8) << "levels" << std::setw(7)
     << "depth" << "\n";
  for (const AuditNodeStats &Row : LayerDepth) {
    if (Row.CtMuls == 0 && Row.PtMuls == 0 && Row.ScalarMuls == 0 &&
        Row.Rotations == 0 && Row.LevelsConsumed == 0 &&
        Row.LogConsumed == 0)
      continue; // skip pass-through rows (input, output, concat)
    OS << std::left << std::setw(24) << Row.Label << std::right
       << std::setw(9) << Row.CtMuls << std::setw(9) << Row.PtMuls
       << std::setw(9) << Row.ScalarMuls << std::setw(9) << Row.Rotations;
    if (Row.LogConsumed > 0)
      OS << std::setw(8) << std::fixed << std::setprecision(0)
         << Row.LogConsumed;
    else
      OS << std::setw(8) << Row.LevelsConsumed;
    OS << std::setw(7) << Row.MaxDepth << "\n";
  }
  return OS.str();
}

VerificationReport chet::verifyCircuit(const TensorCircuit &Circ,
                                       const CompiledCircuit &Compiled) {
  return auditCircuit(Circ, Compiled).Verification;
}

VerificationReport chet::verifyCircuit(const TensorCircuit &Circ,
                                       const CompilerOptions &Options) {
  CompilerOptions Opts = Options;
  Opts.PostCompileVerify = false; // this call *is* the verification
  try {
    CompiledCircuit Compiled = compileCircuit(Circ, Opts);
    return verifyCircuit(Circ, Compiled);
  } catch (const ChetError &E) {
    VerificationReport Report;
    Report.Diagnostics.push_back(
        {Severity::Error, E.code(), "", -1, "compilation", E.what()});
    return Report;
  }
}
