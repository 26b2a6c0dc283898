#ifndef TKC_CORE_ORDERED_CORE_H_
#define TKC_CORE_ORDERED_CORE_H_

#include <cstdint>
#include <vector>

#include "tkc/core/triangle_core.h"
#include "tkc/graph/edge_event.h"
#include "tkc/graph/graph.h"

namespace tkc {

/// Paper-granularity dynamic maintainer (Algorithm 2 with the appendix's
/// Algorithms 5/7 realized per added/deleted *triangle*), keeping the
/// AddToCore/DelFromCore bookkeeping explicit: for every edge it stores
/// which triangles currently make up its maximum Triangle K-Core, so
/// IsInCore-style queries (the primitives of Algorithms 5-7) are O(1) per
/// triangle and the Theorem 1 invariant is checkable at any moment.
///
/// Differences from DynamicTriangleCore (the batch-level updater):
///  * insertion processes one new triangle at a time; each processing
///    affects exactly one κ level (Rule 0 per triangle: μ = min κ over the
///    triangle's edges; only κ == μ edges may change, by one);
///  * the core *content* is maintained, not just the core *number* —
///    `CoreApexes(e)` returns the |κ(e)| apex vertices whose triangles
///    realize e's maximum core, each respecting Theorem 1.
///
/// Both maintainers converge to the same κ as Algorithm 1 (enforced by the
/// differential test suite); this one trades a little speed and per-edge
/// apex lists for the richer queryable state. It is the only component
/// that keeps triangles per edge — Algorithm 1 always recomputes them.
class OrderedDynamicCore {
 public:
  explicit OrderedDynamicCore(Graph graph);

  const Graph& graph() const { return graph_; }
  const std::vector<uint32_t>& kappa() const { return kappa_; }
  uint32_t KappaOf(EdgeId e) const { return kappa_[e]; }

  /// Apex vertices of the κ(e) triangles currently booked as e's maximum
  /// Triangle K-Core (sorted). Each apex w forms the triangle
  /// {e.u, e.v, w}.
  const std::vector<VertexId>& CoreApexes(EdgeId e) const {
    return core_apex_[e];
  }

  /// True iff the triangle {e, apex} is booked in e's maximum core — the
  /// paper's IsInCore(t, e) primitive.
  bool IsInCore(EdgeId e, VertexId apex) const;

  EdgeId InsertEdge(VertexId u, VertexId v);
  bool RemoveEdge(VertexId u, VertexId v);
  void RemoveEdgeById(EdgeId e);
  void ApplyEvents(const std::vector<EdgeEvent>& events);

  /// Validates every bookkeeping invariant (sizes, Theorem 1, triangle
  /// existence); used by tests after each mutation. O(|Tri|).
  bool CheckInvariants() const;

 private:
  void GrowArrays();
  // TKC_CHECK_LEVEL >= 2 oracle: CheckInvariants + independent κ
  // certificate after a mutation; one certificate per ApplyEvents batch.
  void VerifyAfterUpdate(const char* where);
  // Rule 0 for one added triangle: single-level candidate search and
  // repeel at level mu; promotes survivors by one.
  void ProcessAddedTriangle(EdgeId a, EdgeId b, EdgeId c);
  // Demotion cascade after triangle removals (seeded edges re-checked).
  void PumpDemotions(std::vector<EdgeId>& queue);
  // Re-derives core_apex_[e] from the current κ values: keeps booked
  // triangles that still satisfy Theorem 1, then fills up to κ(e) with the
  // strongest remaining triangles (AddToCore/DelFromCore repair).
  void RepairCore(EdgeId e);

  Graph graph_;
  std::vector<uint32_t> kappa_;
  std::vector<std::vector<VertexId>> core_apex_;
  // Scratch: candidate flags / support counters / queued marks.
  std::vector<uint8_t> flag_;
  std::vector<uint32_t> cand_support_;
  std::vector<uint8_t> queued_;
  std::vector<EdgeId> touched_;  // edges whose cores need repair
  bool in_batch_ = false;
};

}  // namespace tkc

#endif  // TKC_CORE_ORDERED_CORE_H_
