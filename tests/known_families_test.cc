// Closed-form κ values on graph families where the decomposition is known
// analytically — the sharpest possible correctness anchors, independent of
// any reference implementation.

#include <gtest/gtest.h>
#include "tkc/core/triangle_core.h"
#include "tkc/gen/generators.h"
#include "tkc/graph/graph.h"

namespace tkc {
namespace {

void ExpectUniformKappa(const Graph& g, uint32_t expected) {
  TriangleCoreResult r = ComputeTriangleCores(CsrGraph(g));
  g.ForEachEdge([&](EdgeId e, const Edge& edge) {
    EXPECT_EQ(r.kappa[e], expected)
        << "edge (" << edge.u << "," << edge.v << ")";
  });
}

TEST(KnownFamiliesTest, CompleteGraphs) {
  // K_n: every edge in exactly n-2 triangles, all mutually supporting.
  for (VertexId n : {3, 4, 5, 6, 9, 14}) {
    ExpectUniformKappa(CompleteGraph(n), n - 2);
  }
}

TEST(KnownFamiliesTest, CompleteBipartiteIsTriangleFree) {
  // K_{m,n} has no odd cycles, hence no triangles: κ = 0 everywhere.
  for (auto [m, n] : {std::pair{2, 3}, {3, 3}, {4, 6}}) {
    Graph g(m + n);
    for (int a = 0; a < m; ++a) {
      for (int b = 0; b < n; ++b) {
        g.AddEdge(a, static_cast<VertexId>(m + b));
      }
    }
    ExpectUniformKappa(g, 0);
  }
}

TEST(KnownFamiliesTest, CocktailPartyGraphs) {
  // K_{n x 2} (complete minus a perfect matching): adjacent vertices share
  // exactly 2n-4 neighbors, and the whole graph is the maximum core:
  // κ = 2n-4 uniformly.
  for (uint32_t n : {3, 4, 5, 6}) {
    Graph g = CompleteGraph(2 * n);
    for (uint32_t i = 0; i < n; ++i) g.RemoveEdge(2 * i, 2 * i + 1);
    ExpectUniformKappa(g, 2 * n - 4);
  }
}

TEST(KnownFamiliesTest, WheelGraphs) {
  // Wheel W_n (hub + n-cycle): every rim edge lies in exactly one triangle
  // (with the hub), so peeling collapses everything to κ = 1.
  for (VertexId n : {4, 5, 8, 12}) {
    Graph g = CycleGraph(n);
    VertexId hub = g.AddVertex();
    for (VertexId v = 0; v < n; ++v) g.AddEdge(hub, v);
    ExpectUniformKappa(g, 1);
  }
}

TEST(KnownFamiliesTest, FriendshipGraphs) {
  // F_k: k triangles sharing one hub vertex. Each edge lies in exactly one
  // triangle: κ = 1 everywhere.
  for (int k : {1, 3, 7}) {
    Graph g(1);
    for (int i = 0; i < k; ++i) {
      VertexId a = g.AddVertex();
      VertexId b = g.AddVertex();
      g.AddEdge(0, a);
      g.AddEdge(0, b);
      g.AddEdge(a, b);
    }
    ExpectUniformKappa(g, 1);
  }
}

TEST(KnownFamiliesTest, OctahedronIsK2x3) {
  // The octahedron = cocktail party K_{3x2}: κ = 2, and it is the minimal
  // 6-vertex Triangle 2-Core that is vertex-transitive.
  Graph g = CompleteGraph(6);
  g.RemoveEdge(0, 1);
  g.RemoveEdge(2, 3);
  g.RemoveEdge(4, 5);
  ExpectUniformKappa(g, 2);
  TriangleCoreResult r = ComputeTriangleCores(CsrGraph(g));
  EXPECT_EQ(r.triangle_count, 8u);
}

TEST(KnownFamiliesTest, CliqueMinusOneEdge) {
  // K_n minus one edge: the two damaged endpoints' edges drop to n-3 and
  // drag the rest down with them (peeling guard keeps everyone at n-3).
  for (VertexId n : {5, 7, 10}) {
    Graph g = CompleteGraph(n);
    g.RemoveEdge(0, 1);
    ExpectUniformKappa(g, n - 3);
  }
}

TEST(KnownFamiliesTest, TwoCliquesSharingAVertex) {
  // Sharing one vertex creates no shared triangles: each clique keeps its
  // own κ = size-2.
  Graph g(11);
  PlantClique(g, {0, 1, 2, 3, 4, 5});
  PlantClique(g, {5, 6, 7, 8, 9, 10});
  TriangleCoreResult r = ComputeTriangleCores(CsrGraph(g));
  EXPECT_EQ(r.kappa[g.FindEdge(0, 1)], 4u);
  EXPECT_EQ(r.kappa[g.FindEdge(6, 7)], 4u);
  EXPECT_EQ(r.kappa[g.FindEdge(5, 0)], 4u);
  EXPECT_EQ(r.kappa[g.FindEdge(5, 6)], 4u);
}

TEST(KnownFamiliesTest, PaperFigure1bMinimalTriangle2Core) {
  // Figure 1(b): the minimal-edge 5-vertex Triangle K-Core with number 2.
  // With 8 edges at most 4 triangles fit on 5 vertices (each edge needs 2,
  // requiring >= ceil(16/3) = 6), so the minimum is 9 edges = K5 minus one
  // edge — far denser than Figure 1(a)'s 2-core (the 5-cycle).
  Graph g = CompleteGraph(5);
  g.RemoveEdge(0, 1);
  ExpectUniformKappa(g, 2);
  EXPECT_EQ(g.NumEdges(), 9u);
  // The K-Core analogue needs only 5 edges for core number 2.
  EXPECT_EQ(CycleGraph(5).NumEdges(), 5u);
}

TEST(KnownFamiliesTest, TuranGraphT3) {
  // Complete tripartite K_{2,2,2..} generalization: for K_{m,m,m} every
  // edge has exactly m common neighbors (the third part): κ = m when the
  // structure self-supports. Check m = 2 (octahedron, κ=2) and m = 3.
  for (uint32_t m : {2u, 3u}) {
    Graph g(3 * m);
    for (VertexId u = 0; u < 3 * m; ++u) {
      for (VertexId v = u + 1; v < 3 * m; ++v) {
        if (u / m != v / m) g.AddEdge(u, v);
      }
    }
    ExpectUniformKappa(g, m);
  }
}

}  // namespace
}  // namespace tkc
