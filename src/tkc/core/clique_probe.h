#ifndef TKC_CORE_CLIQUE_PROBE_H_
#define TKC_CORE_CLIQUE_PROBE_H_

#include <cstdint>
#include <vector>

#include "tkc/core/triangle_core.h"
#include "tkc/graph/graph.h"

namespace tkc {

/// Statistics of a core-guided clique search.
struct CliqueProbeStats {
  uint32_t levels_searched = 0;
  uint64_t cores_searched = 0;
  uint64_t vertices_searched = 0;  // total size of searched subproblems
  bool exact = true;
};

/// Exact maximum clique accelerated by the Triangle K-Core decomposition —
/// the paper's "probing" use of the motif made algorithmic: since an
/// n-clique is a Triangle (n-2)-Core, every clique of size c lives inside
/// the κ >= c-2 subgraph. The search walks levels from κ_max downward,
/// solving only the (tiny) triangle-connected cores per level, and stops
/// as soon as the level bound k+2 cannot beat the incumbent. On sparse
/// graphs with embedded cliques this reduces max-clique to a few
/// clique-sized subproblems.
///
/// `node_budget` caps each subproblem's branch-and-bound (0 = unlimited);
/// a tripped budget clears stats->exact but the incumbent is still a valid
/// clique.
std::vector<VertexId> CoreGuidedMaxClique(const CsrGraph& g,
                                          uint64_t node_budget = 0,
                                          CliqueProbeStats* stats = nullptr);

}  // namespace tkc

#endif  // TKC_CORE_CLIQUE_PROBE_H_
