#include "tkc/gen/dynamic_gen.h"

#include <algorithm>

#include "tkc/graph/triangle.h"
#include "tkc/util/check.h"

namespace tkc {

std::vector<EdgeEvent> RandomChurn(const Graph& g, size_t num_removals,
                                   size_t num_insertions, Rng& rng) {
  TKC_CHECK(num_removals <= g.NumEdges());
  std::vector<EdgeEvent> events;
  events.reserve(num_removals + num_insertions);

  // Removals: sample distinct live edges.
  std::vector<EdgeId> live = g.EdgeIds();
  std::vector<uint64_t> picks = rng.SampleDistinct(live.size(), num_removals);
  for (uint64_t p : picks) {
    Edge e = g.GetEdge(live[p]);
    events.push_back({EdgeEvent::Kind::kRemove, e.u, e.v});
  }

  // Insertions: rejection-sample absent pairs (also absent from earlier
  // sampled insertions).
  Graph shadow = g;
  const VertexId n = g.NumVertices();
  TKC_CHECK(n >= 2 || num_insertions == 0);
  size_t made = 0;
  while (made < num_insertions) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(n));
    VertexId v = static_cast<VertexId>(rng.NextBounded(n));
    if (u == v || shadow.HasEdge(u, v)) continue;
    shadow.AddEdge(u, v);
    events.push_back({EdgeEvent::Kind::kInsert, u, v});
    ++made;
  }
  rng.Shuffle(events);

  // Interleaving removals and insertions randomly can produce an insert of
  // a pair scheduled for removal later, or vice versa; both orders stay
  // valid because removals were drawn from g's live edges and insertions
  // from pairs absent in g — the only conflict would be insert-then-remove
  // or remove-then-insert of the *same* pair, which the disjoint sampling
  // above rules out.
  return events;
}

Graph ApplyEvents(Graph g, const std::vector<EdgeEvent>& events) {
  for (const EdgeEvent& ev : events) {
    if (ev.kind == EdgeEvent::Kind::kInsert) {
      g.AddEdge(ev.u, ev.v);
    } else {
      g.RemoveEdge(ev.u, ev.v);
    }
  }
  return g;
}

SnapshotPair GrowSnapshot(const Graph& base, size_t num_grow,
                          size_t num_newcomers, Rng& rng) {
  SnapshotPair pair;
  pair.old_graph = base;
  pair.new_graph = base;

  auto add = [&](VertexId u, VertexId v) {
    bool inserted = false;
    pair.new_graph.AddEdge(u, v, &inserted);
    if (inserted) {
      pair.added.push_back({EdgeEvent::Kind::kInsert, u, v});
    }
  };

  // (a) Densify around random triangles: connect each triangle vertex to a
  // random neighbor-of-neighbor, pulling near-cliques toward cliques.
  std::vector<Triangle> triangles = ListTriangles(CsrGraph(base));
  for (size_t i = 0; i < num_grow && !triangles.empty(); ++i) {
    const Triangle& t = triangles[rng.NextBounded(triangles.size())];
    VertexId corners[3] = {t.a, t.b, t.c};
    VertexId x = corners[rng.NextBounded(3)];
    // Pick a vertex two hops from x through the triangle.
    VertexId mid = corners[rng.NextBounded(3)];
    const auto& nbs = base.Neighbors(mid);
    if (nbs.empty()) continue;
    VertexId far = nbs[rng.NextBounded(nbs.size())].vertex;
    if (far != x) add(x, far);
  }

  // (b) Newcomers attach to every vertex of a random triangle plus a few of
  // its neighbors — the "new author joins an existing group" pattern.
  for (size_t i = 0; i < num_newcomers && !triangles.empty(); ++i) {
    VertexId newcomer = pair.new_graph.AddVertex();
    const Triangle& t = triangles[rng.NextBounded(triangles.size())];
    add(newcomer, t.a);
    add(newcomer, t.b);
    add(newcomer, t.c);
  }
  return pair;
}

}  // namespace tkc
