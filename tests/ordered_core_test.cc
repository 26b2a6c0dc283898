#include "tkc/core/ordered_core.h"

#include <gtest/gtest.h>
#include "tkc/core/dynamic_core.h"
#include "tkc/gen/dynamic_gen.h"
#include "tkc/gen/generators.h"
#include "tkc/util/random.h"

namespace tkc {
namespace {

::testing::AssertionResult MatchesStatic(const OrderedDynamicCore& dyn) {
  TriangleCoreResult fresh = ComputeTriangleCores(CsrGraph(dyn.graph()));
  bool ok = true;
  ::testing::AssertionResult result = ::testing::AssertionSuccess();
  dyn.graph().ForEachEdge([&](EdgeId e, const Edge& edge) {
    if (!ok) return;
    if (dyn.kappa()[e] != fresh.kappa[e]) {
      ok = false;
      result = ::testing::AssertionFailure()
               << "κ mismatch on (" << edge.u << "," << edge.v
               << "): ordered " << dyn.kappa()[e] << " vs static "
               << fresh.kappa[e];
    }
  });
  if (ok && !dyn.CheckInvariants()) {
    return ::testing::AssertionFailure() << "bookkeeping invariants broken";
  }
  return ok ? ::testing::AssertionSuccess() : result;
}

TEST(OrderedCoreTest, InitialBookkeepingFromRule1) {
  Rng rng(1);
  Graph g = PowerLawCluster(80, 3, 0.7, rng);
  OrderedDynamicCore dyn(g);
  EXPECT_TRUE(MatchesStatic(dyn));
  // Booked cores have exactly kappa entries.
  dyn.graph().ForEachEdge([&](EdgeId e, const Edge&) {
    EXPECT_EQ(dyn.CoreApexes(e).size(), dyn.KappaOf(e));
  });
}

TEST(OrderedCoreTest, PaperFigure3PerTriangleWalkthrough) {
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
  OrderedDynamicCore dyn(std::move(g));
  EdgeId ac = dyn.InsertEdge(kA, kC);
  // Final paper state: all of AB, BC, AC, AE, EC at κ = 1.
  EXPECT_EQ(dyn.KappaOf(ac), 1u);
  EXPECT_EQ(dyn.KappaOf(dyn.graph().FindEdge(kA, kB)), 1u);
  EXPECT_EQ(dyn.KappaOf(dyn.graph().FindEdge(kB, kC)), 1u);
  EXPECT_TRUE(MatchesStatic(dyn));
  // AC's booked core is exactly one of its two triangles.
  EXPECT_EQ(dyn.CoreApexes(ac).size(), 1u);
  VertexId apex = dyn.CoreApexes(ac)[0];
  EXPECT_TRUE(apex == kB || apex == kE);
  EXPECT_TRUE(dyn.IsInCore(ac, apex));
}

TEST(OrderedCoreTest, ClimbThroughMultipleLevels) {
  // K5 minus one edge; the closing edge climbs 0 -> 3 across its three
  // new triangles, one level per processed triangle.
  Graph g = CompleteGraph(5);
  g.RemoveEdge(0, 1);
  OrderedDynamicCore dyn(std::move(g));
  EdgeId e = dyn.InsertEdge(0, 1);
  EXPECT_EQ(dyn.KappaOf(e), 3u);
  EXPECT_EQ(dyn.CoreApexes(e).size(), 3u);
  EXPECT_TRUE(MatchesStatic(dyn));
}

TEST(OrderedCoreTest, RemoveRebooksSurvivors) {
  OrderedDynamicCore dyn(CompleteGraph(6));
  dyn.RemoveEdge(0, 1);
  EXPECT_TRUE(MatchesStatic(dyn));
  // Edges not incident to 0/1 dropped to κ=3 and must not book triangles
  // through the destroyed pair inconsistently.
  EdgeId e = dyn.graph().FindEdge(2, 3);
  EXPECT_EQ(dyn.KappaOf(e), 3u);
  EXPECT_EQ(dyn.CoreApexes(e).size(), 3u);
}

TEST(OrderedCoreTest, InsertExistingIsNoop) {
  OrderedDynamicCore dyn(CompleteGraph(4));
  auto before = dyn.kappa();
  dyn.InsertEdge(2, 3);
  EXPECT_EQ(dyn.kappa(), before);
}

TEST(OrderedCoreTest, TriangleFreeInsert) {
  Graph g(4);
  OrderedDynamicCore dyn(std::move(g));
  EdgeId e = dyn.InsertEdge(0, 1);
  EXPECT_EQ(dyn.KappaOf(e), 0u);
  EXPECT_TRUE(dyn.CoreApexes(e).empty());
  EXPECT_TRUE(MatchesStatic(dyn));
}

struct OrderedChurnParam {
  uint64_t seed;
  int model;
  int steps;
};

class OrderedMatchesEverything
    : public ::testing::TestWithParam<OrderedChurnParam> {};

TEST_P(OrderedMatchesEverything, AfterEveryMutation) {
  const OrderedChurnParam p = GetParam();
  Rng rng(p.seed);
  Graph base;
  switch (p.model) {
    case 0:
      base = ErdosRenyi(30, 0.2, rng);
      break;
    case 1:
      base = PowerLawCluster(45, 3, 0.7, rng);
      break;
    default: {
      base = GnmRandom(40, 70, rng);
      PlantRandomClique(base, 7, rng);
      break;
    }
  }
  OrderedDynamicCore ordered(base);
  DynamicTriangleCore batch{DeltaCsr(base)};

  for (int step = 0; step < p.steps; ++step) {
    const Graph& g = ordered.graph();
    bool do_insert = rng.NextBool(0.55) || g.NumEdges() == 0;
    if (do_insert) {
      VertexId u = 0, v = 0;
      int tries = 0;
      do {
        u = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
        v = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
      } while ((u == v || g.HasEdge(u, v)) && ++tries < 200);
      if (u == v || g.HasEdge(u, v)) continue;
      ordered.InsertEdge(u, v);
      batch.InsertEdge(u, v);
    } else {
      std::vector<EdgeId> live = g.EdgeIds();
      Edge victim = g.GetEdge(live[rng.NextBounded(live.size())]);
      ordered.RemoveEdge(victim.u, victim.v);
      batch.RemoveEdge(victim.u, victim.v);
    }
    ASSERT_TRUE(MatchesStatic(ordered))
        << "seed=" << p.seed << " step=" << step;
    // The two maintainers agree edge-for-edge (ids coincide by identical
    // mutation order).
    ordered.graph().ForEachEdge([&](EdgeId e, const Edge&) {
      ASSERT_EQ(ordered.kappa()[e], batch.kappa()[e]) << "step " << step;
    });
  }
}

INSTANTIATE_TEST_SUITE_P(
    Churn, OrderedMatchesEverything,
    ::testing::Values(OrderedChurnParam{201, 0, 50},
                      OrderedChurnParam{202, 0, 50},
                      OrderedChurnParam{203, 1, 50},
                      OrderedChurnParam{204, 1, 50},
                      OrderedChurnParam{205, 2, 50},
                      OrderedChurnParam{206, 2, 50}));

}  // namespace
}  // namespace tkc
