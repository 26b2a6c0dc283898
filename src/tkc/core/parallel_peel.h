#ifndef TKC_CORE_PARALLEL_PEEL_H_
#define TKC_CORE_PARALLEL_PEEL_H_

#include "tkc/core/triangle_core.h"

namespace tkc {

/// The same decomposition as ComputeTriangleCores(ctx), which already runs
/// the round-synchronous peel at ctx.threads(); kept for existing callers.
inline TriangleCoreResult ComputeTriangleCoresParallel(
    const AnalysisContext& ctx) {
  return ComputeTriangleCores(ctx);
}

}  // namespace tkc

#endif  // TKC_CORE_PARALLEL_PEEL_H_
