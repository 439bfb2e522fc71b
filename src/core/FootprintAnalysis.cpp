//===- FootprintAnalysis.cpp - Static peak-memory analysis ----------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/FootprintAnalysis.h"

#include "core/Audit.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

using namespace chet;

namespace {

double asMb(uint64_t Bytes) {
  return static_cast<double>(Bytes) / (1024.0 * 1024.0);
}

} // namespace

std::vector<FootprintNodeReport> FootprintReport::hotspots(size_t K) const {
  std::vector<FootprintNodeReport> Rows = PerNode;
  std::stable_sort(Rows.begin(), Rows.end(),
                   [](const FootprintNodeReport &A,
                      const FootprintNodeReport &B) {
                     return A.PeakBytes > B.PeakBytes;
                   });
  if (Rows.size() > K)
    Rows.resize(K);
  return Rows;
}

std::string FootprintReport::str() const {
  std::ostringstream OS;
  OS << "static footprint analysis (" << layoutPolicyName(Policy)
     << "): peak " << std::fixed << std::setprecision(1) << asMb(PeakBytes)
     << " MB (live ciphertexts " << asMb(PeakLiveCtBytes) << " MB, scratch "
     << asMb(PeakScratchBytes) << " MB) at layer '" << PeakLabel
     << "' (node #" << PeakNodeId << "); input " << asMb(InputBytes)
     << " MB, output " << asMb(OutputBytes) << " MB; key material "
     << asMb(KeyBytes) << " MB";
  for (const FootprintNodeReport &Row : hotspots()) {
    OS << "\n  layer '" << Row.Label << "' (node #" << Row.NodeId
       << "): peak " << asMb(Row.PeakBytes) << " MB (live "
       << asMb(Row.LiveCtBytes) << " MB, scratch " << asMb(Row.ScratchBytes)
       << " MB, transient " << asMb(Row.TransientBytes) << " MB)";
  }
  return OS.str();
}

FootprintReport chet::analyzeFootprint(const TensorCircuit &Circ,
                                       const CompiledCircuit &Compiled) {
  AuditReport R = auditCircuit(Circ, Compiled);
  if (R.Failure)
    std::rethrow_exception(R.Failure);
  return std::move(R.Footprint);
}
