#include "tkc/core/dynamic_core.h"

#include <vector>

#include <gtest/gtest.h>
#include "tkc/gen/dynamic_gen.h"
#include "tkc/gen/generators.h"
#include "tkc/util/random.h"

namespace tkc {
namespace {

// Compares the incrementally maintained κ with a from-scratch Algorithm 1
// run over the current graph; reports the first mismatching live edge.
::testing::AssertionResult InvariantHolds(const DynamicTriangleCore& dyn) {
  TriangleCoreResult fresh = ComputeTriangleCores(dyn.graph());
  ::testing::AssertionResult result = ::testing::AssertionSuccess();
  bool ok = true;
  dyn.graph().ForEachEdge([&](EdgeId e, const Edge& edge) {
    if (!ok) return;
    if (dyn.kappa()[e] != fresh.kappa[e]) {
      ok = false;
      result = ::testing::AssertionFailure()
               << "κ mismatch on edge " << e << " = (" << edge.u << ","
               << edge.v << "): incremental " << dyn.kappa()[e]
               << " vs recomputed " << fresh.kappa[e];
    }
  });
  return ok ? ::testing::AssertionSuccess() : result;
}

TEST(DynamicCoreTest, StartsFromStaticDecomposition) {
  Graph g = PaperFigure2Graph();
  DynamicTriangleCore dyn{DeltaCsr(g)};
  EXPECT_TRUE(InvariantHolds(dyn));
}

TEST(DynamicCoreTest, PaperFigure3InsertionExample) {
  // Section IV-B example: solid edges AB, BC, AE, AF, EF, CD, CE, DE; then
  // edge AC is added. Afterwards every edge around A/C/E carries κ = 1.
  constexpr VertexId kA = 0, kB = 1, kC = 2, kD = 3, kE = 4, kF = 5;
  Graph g(6);
  g.AddEdge(kA, kB);
  g.AddEdge(kB, kC);
  g.AddEdge(kA, kE);
  g.AddEdge(kA, kF);
  g.AddEdge(kE, kF);
  g.AddEdge(kC, kD);
  g.AddEdge(kC, kE);
  g.AddEdge(kD, kE);
  DynamicTriangleCore dyn{DeltaCsr(g)};
  // Pre-insertion values from the paper.
  const DeltaCsr& gr = dyn.graph();
  EXPECT_EQ(dyn.KappaOf(gr.FindEdge(kA, kB)), 0u);
  EXPECT_EQ(dyn.KappaOf(gr.FindEdge(kB, kC)), 0u);
  EXPECT_EQ(dyn.KappaOf(gr.FindEdge(kA, kE)), 1u);
  EXPECT_EQ(dyn.KappaOf(gr.FindEdge(kC, kD)), 1u);

  EdgeId ac = dyn.InsertEdge(kA, kC);
  EXPECT_EQ(dyn.KappaOf(ac), 1u);
  EXPECT_EQ(dyn.KappaOf(gr.FindEdge(kA, kB)), 1u);
  EXPECT_EQ(dyn.KappaOf(gr.FindEdge(kB, kC)), 1u);
  EXPECT_EQ(dyn.KappaOf(gr.FindEdge(kA, kE)), 1u);
  EXPECT_EQ(dyn.KappaOf(gr.FindEdge(kC, kE)), 1u);
  EXPECT_TRUE(InvariantHolds(dyn));
}

TEST(DynamicCoreTest, InsertCompletesClique) {
  // K5 minus one edge; inserting it must lift every edge from κ<=2 to 3.
  Graph g = CompleteGraph(5);
  g.RemoveEdge(0, 1);
  DynamicTriangleCore dyn{DeltaCsr(g)};
  dyn.InsertEdge(0, 1);
  dyn.graph().ForEachEdge([&](EdgeId e, const Edge&) {
    EXPECT_EQ(dyn.KappaOf(e), 3u);
  });
  EXPECT_TRUE(InvariantHolds(dyn));
}

TEST(DynamicCoreTest, InsertBumpsBeyondBound) {
  // The k1-vs-k1+1 case: two 6-cliques sharing... simplest canonical case:
  // K4 missing an edge has all κ=1; the closing edge jumps to κ=2 = k1+1.
  Graph g = CompleteGraph(4);
  g.RemoveEdge(2, 3);
  DynamicTriangleCore dyn{DeltaCsr(g)};
  EdgeId e = dyn.InsertEdge(2, 3);
  EXPECT_EQ(dyn.KappaOf(e), 2u);
  EXPECT_TRUE(InvariantHolds(dyn));
}

TEST(DynamicCoreTest, RemoveFromClique) {
  DynamicTriangleCore dyn{DeltaCsr(CompleteGraph(6))};
  EXPECT_TRUE(dyn.RemoveEdge(0, 1));
  EXPECT_TRUE(InvariantHolds(dyn));
  EXPECT_FALSE(dyn.RemoveEdge(0, 1));  // already gone
}

TEST(DynamicCoreTest, RemoveCascades) {
  // Chain of triangles sharing edges: removing one edge ripples.
  Graph g(8);
  for (VertexId v = 0; v + 2 < 8; ++v) {
    g.AddEdge(v, v + 1);
    g.AddEdge(v, v + 2);
  }
  g.AddEdge(6, 7);
  DynamicTriangleCore dyn{DeltaCsr(g)};
  dyn.RemoveEdge(2, 3);
  EXPECT_TRUE(InvariantHolds(dyn));
  dyn.RemoveEdge(0, 1);
  EXPECT_TRUE(InvariantHolds(dyn));
}

TEST(DynamicCoreTest, InsertExistingEdgeIsNoop) {
  DynamicTriangleCore dyn{DeltaCsr(CompleteGraph(4))};
  auto before = dyn.kappa();
  dyn.InsertEdge(0, 1);
  EXPECT_EQ(dyn.kappa(), before);
}

TEST(DynamicCoreTest, InsertIntoEmptyRegionIsCheap) {
  Graph g = CompleteGraph(30);
  g.EnsureVertices(40);
  DynamicTriangleCore dyn{DeltaCsr(g)};
  dyn.InsertEdge(35, 36);  // far from the clique, no triangles
  EXPECT_EQ(dyn.KappaOf(dyn.graph().FindEdge(35, 36)), 0u);
  // Rule 0: nothing outside the new edge may be touched.
  EXPECT_EQ(dyn.last_update_stats().promoted_edges, 0u);
  EXPECT_TRUE(InvariantHolds(dyn));
}

TEST(DynamicCoreTest, GrowsIntoFreshVertices) {
  DynamicTriangleCore dyn{DeltaCsr(CompleteGraph(3))};
  dyn.InsertEdge(0, 5);
  dyn.InsertEdge(1, 5);
  dyn.InsertEdge(2, 5);  // now K4
  dyn.graph().ForEachEdge([&](EdgeId e, const Edge&) {
    EXPECT_EQ(dyn.KappaOf(e), 2u);
  });
  EXPECT_TRUE(InvariantHolds(dyn));
}

TEST(DynamicCoreTest, BuildCliqueEdgeByEdge) {
  // Insert all edges of K7 one at a time, checking the invariant after
  // every step — exercises multi-level promotion repeatedly.
  Graph empty(7);
  DynamicTriangleCore dyn{DeltaCsr(empty)};
  for (VertexId u = 0; u < 7; ++u) {
    for (VertexId v = u + 1; v < 7; ++v) {
      dyn.InsertEdge(u, v);
      ASSERT_TRUE(InvariantHolds(dyn)) << "after (" << u << "," << v << ")";
    }
  }
  EXPECT_EQ(dyn.KappaOf(dyn.graph().FindEdge(0, 1)), 5u);
}

TEST(DynamicCoreTest, DismantleCliqueEdgeByEdge) {
  DynamicTriangleCore dyn{DeltaCsr(CompleteGraph(7))};
  std::vector<Edge> edges;
  dyn.graph().ForEachEdge([&](EdgeId, const Edge& e) { edges.push_back(e); });
  for (const Edge& e : edges) {
    dyn.RemoveEdge(e.u, e.v);
    ASSERT_TRUE(InvariantHolds(dyn))
        << "after removing (" << e.u << "," << e.v << ")";
  }
  EXPECT_EQ(dyn.graph().NumEdges(), 0u);
}

TEST(DynamicCoreTest, RemoveVertexEdges) {
  // Vertex departure = removal of its incident edges (paper's model).
  Graph g = CompleteGraph(6);
  g.EnsureVertices(8);
  DynamicTriangleCore dyn{DeltaCsr(g)};
  EXPECT_EQ(dyn.RemoveVertexEdges(0), 5u);
  EXPECT_EQ(dyn.graph().Degree(0), 0u);
  EXPECT_TRUE(InvariantHolds(dyn));
  dyn.graph().ForEachEdge([&](EdgeId e, const Edge&) {
    EXPECT_EQ(dyn.KappaOf(e), 3u);  // K5 remains
  });
  EXPECT_EQ(dyn.RemoveVertexEdges(7), 0u);   // isolated vertex
  EXPECT_EQ(dyn.RemoveVertexEdges(99), 0u);  // out of range
}

TEST(DynamicCoreTest, StatsAccumulate) {
  DynamicTriangleCore dyn{DeltaCsr(CompleteGraph(6))};
  dyn.RemoveEdge(0, 1);
  uint64_t after_one = dyn.total_stats().triangles_scanned;
  EXPECT_GT(after_one, 0u);
  dyn.InsertEdge(0, 1);
  EXPECT_GT(dyn.total_stats().triangles_scanned, after_one);
}

// ---------- Randomized property sweep: the core guarantee ----------

struct ChurnParam {
  uint64_t seed;
  int model;       // 0 ER sparse, 1 ER dense, 2 power-law, 3 planted cliques
  int steps;
};

class DynamicMatchesStatic : public ::testing::TestWithParam<ChurnParam> {};

Graph MakeBase(const ChurnParam& p, Rng& rng) {
  switch (p.model) {
    case 0:
      return ErdosRenyi(40, 0.08, rng);
    case 1:
      return ErdosRenyi(25, 0.35, rng);
    case 2:
      return PowerLawCluster(60, 3, 0.7, rng);
    default: {
      Graph g = GnmRandom(50, 80, rng);
      PlantRandomClique(g, 7, rng);
      PlantRandomClique(g, 6, rng);
      return g;
    }
  }
}

TEST_P(DynamicMatchesStatic, AfterEveryMutation) {
  const ChurnParam p = GetParam();
  Rng rng(p.seed);
  Graph base = MakeBase(p, rng);
  DynamicTriangleCore dyn{DeltaCsr(base)};

  for (int step = 0; step < p.steps; ++step) {
    const DeltaCsr& g = dyn.graph();
    bool do_insert = rng.NextBool(0.55) || g.NumEdges() == 0;
    if (do_insert) {
      VertexId u = 0, v = 0;
      int tries = 0;
      do {
        u = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
        v = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
      } while ((u == v || g.HasEdge(u, v)) && ++tries < 200);
      if (u == v || g.HasEdge(u, v)) continue;
      dyn.InsertEdge(u, v);
    } else {
      std::vector<EdgeId> live = g.EdgeIds();
      EdgeId victim = live[rng.NextBounded(live.size())];
      dyn.RemoveEdgeById(victim);
    }
    ASSERT_TRUE(InvariantHolds(dyn))
        << "model=" << p.model << " seed=" << p.seed << " step=" << step;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Churn, DynamicMatchesStatic,
    ::testing::Values(ChurnParam{101, 0, 60}, ChurnParam{102, 0, 60},
                      ChurnParam{103, 1, 60}, ChurnParam{104, 1, 60},
                      ChurnParam{105, 2, 60}, ChurnParam{106, 2, 60},
                      ChurnParam{107, 3, 60}, ChurnParam{108, 3, 60},
                      ChurnParam{109, 1, 120}, ChurnParam{110, 3, 120}));

TEST(DynamicCoreTest, MatchesStaticAfterBulkChurn) {
  // Apply a Table III style churn (1% removals + insertions) and compare
  // once at the end — the integration-shaped version of the sweep above.
  Rng rng(999);
  Graph base = PowerLawCluster(400, 4, 0.6, rng);
  std::vector<EdgeEvent> events = RandomChurn(base, 20, 20, rng);
  DynamicTriangleCore dyn{DeltaCsr(base)};
  for (const EdgeEvent& ev : events) {
    if (ev.kind == EdgeEvent::Kind::kInsert) {
      dyn.InsertEdge(ev.u, ev.v);
    } else {
      dyn.RemoveEdge(ev.u, ev.v);
    }
  }
  EXPECT_TRUE(InvariantHolds(dyn));
}

}  // namespace
}  // namespace tkc
