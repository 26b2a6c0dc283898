#include "tkc/verify/verify.h"

#include "tkc/core/hierarchy.h"
#include "tkc/core/triangle_core.h"
#include "tkc/graph/csr.h"
#include "tkc/obs/trace.h"
#include "tkc/verify/certificate.h"
#include "tkc/verify/nesting.h"
#include "tkc/verify/oracle.h"
#include "tkc/verify/structural.h"

namespace tkc::verify {

VerifyReport RunFullVerification(const Graph& g,
                                 const VerifyOptions& options) {
  TKC_SPAN("verify.full");
  VerifyReport report;

  CsrGraph csr(g);
  {
    TKC_SPAN("verify.structural");
    report.Add(CheckGraphStructure(g));
    report.Add(CheckCsrStructure(csr));
    report.Add(CheckMirrorConsistency(g, csr));
  }

  TriangleCoreResult result;
  {
    TKC_SPAN("verify.decompose");
    result = ComputeTriangleCores(csr);
  }
  {
    TKC_SPAN("verify.kappa_certificate");
    report.Merge(CheckKappaCertificate(csr, result.kappa));
  }
  if (options.check_nesting) {
    TKC_SPAN("verify.nesting");
    CoreHierarchy hierarchy = BuildCoreHierarchy(csr, result);
    report.Add(CheckHierarchyNesting(hierarchy, csr, result));
    report.Add(CheckExtractionNesting(csr, result.kappa));
  }
  if (!options.events.empty()) {
    TKC_SPAN("verify.replay");
    ReplayOptions replay;
    replay.check_every = options.check_every;
    replay.check_ordered = true;
    report.Merge(ReplayEventLog(g, options.events, replay));
  }
  return report;
}

}  // namespace tkc::verify
