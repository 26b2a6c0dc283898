#ifndef TKC_CORE_TRIANGLE_CORE_H_
#define TKC_CORE_TRIANGLE_CORE_H_

#include <cstdint>
#include <vector>

#include "tkc/graph/csr.h"
#include "tkc/graph/graph.h"

namespace tkc {

/// Rank value meaning "edge was never processed" (dead edge id).
inline constexpr uint32_t kInvalidOrder = UINT32_MAX;

/// How Algorithm 1 obtains the triangles incident to an edge during the
/// peel (Section IV-A, last paragraph of the correctness discussion):
enum class TriangleStorageMode {
  /// Materialize every triangle once up front (3 entries per triangle).
  /// Fastest, O(|Tri|) extra memory.
  kStoreTriangles,
  /// Re-intersect adjacency lists when an edge is processed; triangles are
  /// recognized as unprocessed by checking their edges' processed flags.
  /// The paper's mode for graphs whose triangle set does not fit in memory.
  kRecomputeTriangles,
};

/// Output of the static decomposition (Algorithm 1).
struct TriangleCoreResult {
  /// κ(e): the maximum Triangle K-Core number of each edge, indexed by
  /// EdgeId (dead ids hold 0 and order kInvalidOrder).
  std::vector<uint32_t> kappa;
  /// Processing rank of each edge — the paper's `e.order`, used by Rule 1
  /// and by the dynamic update algorithms. Lower rank = peeled earlier.
  std::vector<uint32_t> order;
  /// Edges in the order they were processed (increasing κ̃).
  std::vector<EdgeId> peel_sequence;
  uint32_t max_kappa = 0;
  uint64_t triangle_count = 0;

  /// The paper's clique-size proxy: co_clique_size(e) = κ(e) + 2.
  uint32_t CocliqueSize(EdgeId e) const { return kappa[e] + 2; }
};

/// Algorithm 1: computes κ(e) for every live edge of `g` with the
/// round-synchronous peel: levels k ascend, and within a level every edge
/// whose remaining triangle count has reached k peels in one round, the
/// rounds repeating until the level drains. Total cost is
/// O(triangle-listing + |Tri|) plus a sort of each round's frontier.
///
/// Every overload and both storage modes return the same result: κ, and
/// the same `order`/`peel_sequence` (levels ascending, rounds in discovery
/// order, edge ids ascending within a round), which is a valid peel order
/// for Rule 1. This overload peels a frozen CSR snapshot (EdgeIds are
/// those of the Graph it was frozen from) on the calling thread.
TriangleCoreResult ComputeTriangleCores(
    const CsrGraph& g,
    TriangleStorageMode mode = TriangleStorageMode::kRecomputeTriangles);

class DeltaCsr;

/// Same peel over the engine's DeltaCsr overlay view (base CSR + pending
/// edits), on the calling thread; EdgeIds and κ values are interchangeable
/// with the other overloads. This is the scratch-recompute reference the
/// batched maintainer is differentially tested against, and the initializer
/// the engine uses when adopting a view whose decomposition is unknown.
TriangleCoreResult ComputeTriangleCores(
    const DeltaCsr& g,
    TriangleStorageMode mode = TriangleStorageMode::kRecomputeTriangles);

class AnalysisContext;

/// Same peel over a shared AnalysisContext, split over ctx.threads()
/// workers: the initial κ̃ comes from the context's cached support array
/// (computed once per context by the parallel kernel) and, in
/// kStoreTriangles mode, the triangle lists come from the context's
/// materialized triangles — so repeated decompositions and other consumers
/// never recount supports. Results are bit-for-bit identical to the other
/// overloads at every thread count.
TriangleCoreResult ComputeTriangleCores(
    const AnalysisContext& ctx,
    TriangleStorageMode mode = TriangleStorageMode::kRecomputeTriangles);

/// Largest κ over live edges of a precomputed result (0 on empty graphs).
uint32_t MaxKappa(const CsrGraph& g, const TriangleCoreResult& r);

}  // namespace tkc

#endif  // TKC_CORE_TRIANGLE_CORE_H_
