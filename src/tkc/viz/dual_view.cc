#include "tkc/viz/dual_view.h"

#include <algorithm>
#include <utility>

#include "tkc/core/triangle_core.h"
#include "tkc/util/check.h"

namespace tkc {

DualViewResult BuildDualView(const Graph& old_graph,
                             const std::vector<EdgeEvent>& additions) {
  // Steps 1-3: κ and plot(a) on the original graph, read from the frozen
  // base the incremental updater then starts from.
  DeltaCsr view(old_graph);
  const CsrGraph& old_csr = view.base();
  TriangleCoreResult old_cores = ComputeTriangleCores(old_csr);
  std::vector<uint32_t> old_co(old_csr.EdgeCapacity(), 0);
  old_csr.ForEachEdge([&](EdgeId e, const Edge&) {
    old_co[e] = old_cores.kappa[e] + 2;
  });
  DensityPlot before = BuildDensityPlot(old_csr, old_co);

  // Step 4: apply additions through the incremental updater.
  DynamicTriangleCore dyn(std::move(view), old_cores);
  UpdateStats update_stats;
  std::vector<EdgeId> new_edges;
  for (const EdgeEvent& ev : additions) {
    TKC_CHECK_MSG(ev.kind == EdgeEvent::Kind::kInsert,
                  "dual view handles edge additions");
    EdgeId e = dyn.InsertEdge(ev.u, ev.v);
    new_edges.push_back(e);
    update_stats.candidate_edges += dyn.last_update_stats().candidate_edges;
    update_stats.promoted_edges += dyn.last_update_stats().promoted_edges;
    update_stats.triangles_scanned +=
        dyn.last_update_stats().triangles_scanned;
  }

  // Steps 5-6: plot(b) from new-edge co_clique_size only. Old edges get 0,
  // so only the changed clique structure shows.
  CsrGraph new_graph = CsrGraph::Freeze(dyn.graph());
  std::vector<uint32_t> new_co(new_graph.EdgeCapacity(), 0);
  for (EdgeId e : new_edges) {
    if (new_graph.IsEdgeAlive(e)) new_co[e] = dyn.kappa()[e] + 2;
  }
  DensityPlot after = BuildDensityPlot(new_graph, new_co,
                                       /*include_zero_vertices=*/false);
  return DualViewResult{std::move(before), std::move(after),
                        std::move(new_graph), std::move(old_cores.kappa),
                        dyn.kappa(), update_stats};
}

Correspondence LocateInBefore(const DualViewResult& dual,
                              const std::vector<VertexId>& selected,
                              size_t cluster_gap) {
  Correspondence corr;
  corr.positions_in_before.reserve(selected.size());
  std::vector<std::pair<int64_t, VertexId>> located;
  for (VertexId v : selected) {
    int64_t pos = dual.before.PositionOf(v);
    corr.positions_in_before.push_back(pos);
    if (pos >= 0) located.emplace_back(pos, v);
  }
  std::sort(located.begin(), located.end());
  for (size_t i = 0; i < located.size();) {
    std::vector<VertexId> cluster{located[i].second};
    size_t j = i + 1;
    while (j < located.size() &&
           located[j].first - located[j - 1].first <=
               static_cast<int64_t>(cluster_gap)) {
      cluster.push_back(located[j].second);
      ++j;
    }
    corr.clusters.push_back(std::move(cluster));
    i = j;
  }
  return corr;
}

}  // namespace tkc
