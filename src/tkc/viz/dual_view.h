#ifndef TKC_VIZ_DUAL_VIEW_H_
#define TKC_VIZ_DUAL_VIEW_H_

#include <cstdint>
#include <vector>

#include "tkc/core/dynamic_core.h"
#include "tkc/gen/dynamic_gen.h"
#include "tkc/graph/graph.h"
#include "tkc/viz/density_plot.h"

namespace tkc {

/// Algorithm 3 (Dual View Plots). plot(a) shows the clique distribution of
/// the original graph; after the edge additions are applied (incrementally,
/// via DynamicTriangleCore), plot(b) shows only the cliques touched by new
/// edges: a new edge contributes κ(e)+2, every old edge contributes 0.
struct DualViewResult {
  DensityPlot before;  // plot(a) over the old graph
  DensityPlot after;   // plot(b) over the new graph, changed cliques only
  CsrGraph new_graph;  // frozen from the updater's view; EdgeIds preserved
  std::vector<uint32_t> old_kappa;  // per old-graph EdgeId
  std::vector<uint32_t> new_kappa;  // per new-graph EdgeId
  UpdateStats update_stats;         // incremental work (step 4 cost)
};

DualViewResult BuildDualView(const Graph& old_graph,
                             const std::vector<EdgeEvent>& additions);

/// Step 7 of Algorithm 3 — cognitive correspondence: where do the vertices
/// of a clique selected in plot(b) sit in plot(a)?
struct Correspondence {
  /// Positions in plot(a), one per requested vertex; -1 when the vertex is
  /// new (absent from the old plot).
  std::vector<int64_t> positions_in_before;
  /// The selected vertices grouped into runs of adjacent plot(a) positions
  /// (gap <= `cluster_gap`) — "the green-triangle vertices are located in
  /// two places in plot(a)".
  std::vector<std::vector<VertexId>> clusters;
};

Correspondence LocateInBefore(const DualViewResult& dual,
                              const std::vector<VertexId>& selected,
                              size_t cluster_gap = 3);

}  // namespace tkc

#endif  // TKC_VIZ_DUAL_VIEW_H_
