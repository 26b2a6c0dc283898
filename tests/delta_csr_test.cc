// DeltaCsr: the mutable overlay view over an immutable shared CSR base.
// Differential tests hold it to the reference `Graph` under identical
// mutation streams (structure, ids, triangle counts, κ through the shared
// peel kernels), plus targeted checks for the COW overlay footprint, the
// EdgeId discipline across compactions, and epoch/zero-copy semantics.

#include <memory>
#include <vector>

#include <gtest/gtest.h>
#include "tkc/core/triangle_core.h"
#include "tkc/gen/generators.h"
#include "tkc/graph/delta_csr.h"
#include "tkc/graph/graph.h"
#include "tkc/util/random.h"
#include "tkc/verify/certificate.h"

namespace tkc {
namespace {

// Full structural equality between the reference Graph and the view:
// vertex/edge counts, per-vertex adjacency, live edge ids and endpoints.
void ExpectSameStructure(const Graph& ref, const DeltaCsr& view,
                         const char* where) {
  ASSERT_EQ(ref.NumVertices(), view.NumVertices()) << where;
  ASSERT_EQ(ref.NumEdges(), view.NumEdges()) << where;
  ASSERT_EQ(ref.EdgeCapacity(), view.EdgeCapacity()) << where;
  for (VertexId v = 0; v < ref.NumVertices(); ++v) {
    ASSERT_EQ(ref.Degree(v), view.Degree(v)) << where << " vertex " << v;
    const auto& ref_adj = ref.Neighbors(v);
    DeltaCsr::NeighborSpan adj = view.Neighbors(v);
    ASSERT_EQ(ref_adj.size(), static_cast<size_t>(adj.size()))
        << where << " vertex " << v;
    for (size_t i = 0; i < ref_adj.size(); ++i) {
      EXPECT_EQ(ref_adj[i].vertex, adj[i].vertex) << where;
      EXPECT_EQ(ref_adj[i].edge, adj[i].edge) << where;
    }
  }
  ASSERT_EQ(ref.EdgeIds(), view.EdgeIds()) << where;
  for (EdgeId e : ref.EdgeIds()) {
    ASSERT_TRUE(view.IsEdgeAlive(e)) << where;
    EXPECT_EQ(ref.GetEdge(e).u, view.GetEdge(e).u) << where;
    EXPECT_EQ(ref.GetEdge(e).v, view.GetEdge(e).v) << where;
  }
}

TEST(DeltaCsrTest, MirrorsGraphUnderRandomChurn) {
  Rng rng(4242);
  Graph ref = PowerLawCluster(80, 3, 0.5, rng);
  DeltaCsr view(ref);
  ExpectSameStructure(ref, view, "initial");

  for (int step = 0; step < 300; ++step) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(80));
    VertexId v = static_cast<VertexId>(rng.NextBounded(80));
    if (u == v) continue;
    if (ref.HasEdge(u, v)) {
      EdgeId removed_ref = ref.RemoveEdge(u, v);
      EdgeId removed_view = view.RemoveEdge(u, v);
      ASSERT_EQ(removed_ref, removed_view) << "step " << step;
    } else {
      EdgeId added_ref = ref.AddEdge(u, v);
      EdgeId added_view = view.AddEdge(u, v);
      ASSERT_EQ(added_ref, added_view) << "step " << step;
    }
    if (step % 60 == 0) ExpectSameStructure(ref, view, "churn");
  }
  ExpectSameStructure(ref, view, "final");

  // Compacting rewrites the base but must not change the observable view
  // — including every live EdgeId (attribute arrays stay valid).
  view.Compact();
  ExpectSameStructure(ref, view, "after compact");
}

TEST(DeltaCsrTest, CopyOnWriteTouchesOnlyMutatedVertices) {
  Rng rng(9);
  Graph base = GnmRandom(50, 120, rng);
  DeltaCsr view(base);
  EXPECT_EQ(view.OverlaidVertices(), 0u);
  EXPECT_FALSE(view.Dirty());

  view.AddEdge(0, 1, nullptr);  // may or may not exist yet
  // Each mutation copies at most its two endpoints.
  EXPECT_LE(view.OverlaidVertices(), 2u);

  view.RemoveEdge(0, 1);
  EXPECT_LE(view.OverlaidVertices(), 2u);
  EXPECT_TRUE(view.Dirty());
}

TEST(DeltaCsrTest, FindAndCommonNeighborsAcrossBaseAndDelta) {
  // A triangle in the base plus one delta vertex closing new triangles:
  // the sorted-merge paths must mix base spans and overlay vectors.
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  DeltaCsr view(g);

  VertexId w = view.AddVertex();
  EXPECT_EQ(view.NumVertices(), 4u);
  view.AddEdge(0, w, nullptr);
  view.AddEdge(1, w, nullptr);

  EXPECT_TRUE(view.HasEdge(0, w));
  EXPECT_EQ(view.CountCommonNeighbors(0, 1), 2u);  // 2 and w
  EXPECT_EQ(view.CountCommonNeighbors(0, w), 1u);  // 1
  size_t triangles_on_0w = 0;
  view.ForEachCommonNeighbor(0, w, [&](VertexId c, EdgeId, EdgeId) {
    EXPECT_EQ(c, 1u);
    ++triangles_on_0w;
  });
  EXPECT_EQ(triangles_on_0w, 1u);

  // Remove a base edge: both the id table and the merge paths must see it.
  EdgeId dead = view.RemoveEdge(0, 2);
  ASSERT_NE(dead, kInvalidEdge);
  EXPECT_FALSE(view.IsEdgeAlive(dead));
  EXPECT_EQ(view.CountCommonNeighbors(0, 1), 1u);  // just w now
}

TEST(DeltaCsrTest, EdgeIdsSurviveCompactionAndAreNeverReused) {
  Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  DeltaCsr view(g);
  const size_t base_cap = view.EdgeCapacity();

  bool inserted = false;
  EdgeId fresh = view.AddEdge(3, 4, &inserted);
  EXPECT_TRUE(inserted);
  EXPECT_GE(fresh, base_cap);  // delta ids start past the base capacity

  // Duplicate insert returns the live id without allocating.
  EdgeId dup = view.AddEdge(3, 4, &inserted);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(dup, fresh);
  EXPECT_EQ(view.EdgeCapacity(), base_cap + 1);

  view.Compact();
  EXPECT_TRUE(view.IsEdgeAlive(fresh));
  EXPECT_EQ(view.FindEdge(3, 4), fresh);

  // A removed id stays dead forever; re-inserting allocates a new id.
  view.RemoveEdgeById(fresh);
  EXPECT_FALSE(view.IsEdgeAlive(fresh));
  EdgeId again = view.AddEdge(3, 4, &inserted);
  EXPECT_TRUE(inserted);
  EXPECT_NE(again, fresh);
}

TEST(DeltaCsrTest, EpochAndSharedBaseSemantics) {
  Rng rng(77);
  Graph g = GnmRandom(30, 60, rng);
  DeltaCsr view(g);
  EXPECT_EQ(view.epoch(), 0u);

  std::shared_ptr<const CsrGraph> before = view.base_ptr();
  view.AddEdge(0, 1, nullptr);
  // Mutation never touches the shared base object.
  EXPECT_EQ(view.base_ptr().get(), before.get());

  std::shared_ptr<const CsrGraph> after = view.Compact();
  EXPECT_EQ(view.epoch(), 1u);
  EXPECT_NE(after.get(), before.get());
  EXPECT_EQ(view.base_ptr().get(), after.get());
  EXPECT_FALSE(view.Dirty());

  // The pre-compaction snapshot keeps working (zero-copy handoff contract):
  // `before` still describes the old epoch's graph.
  EXPECT_EQ(before->NumVertices(), 30u);
}

TEST(DeltaCsrTest, TriangleCoresMatchGraphPathOnMutatedView) {
  // The decomposition computed through the DeltaCsr read path must equal
  // the legacy Graph path edge-for-edge after identical mutations.
  Rng rng(1234);
  Graph ref = PowerLawCluster(60, 3, 0.6, rng);
  DeltaCsr view(ref);
  for (int step = 0; step < 120; ++step) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(60));
    VertexId v = static_cast<VertexId>(rng.NextBounded(60));
    if (u == v) continue;
    if (ref.HasEdge(u, v)) {
      ref.RemoveEdge(u, v);
      view.RemoveEdge(u, v);
    } else {
      ref.AddEdge(u, v);
      view.AddEdge(u, v, nullptr);
    }
  }
  TriangleCoreResult from_graph = ComputeTriangleCores(CsrGraph(ref));
  TriangleCoreResult from_view = ComputeTriangleCores(view);
  EXPECT_EQ(from_graph.max_kappa, from_view.max_kappa);
  EXPECT_EQ(from_graph.triangle_count, from_view.triangle_count);
  ref.ForEachEdge([&](EdgeId e, const Edge&) {
    ASSERT_EQ(from_graph.kappa[e], from_view.kappa[e]) << "edge " << e;
  });
  // And the code-independent certificate accepts the view's decomposition.
  verify::VerifyReport cert =
      verify::CheckKappaCertificate(view, from_view.kappa);
  EXPECT_TRUE(cert.AllPassed()) << cert.FirstFailure()->name;
}

}  // namespace
}  // namespace tkc
