// The round-synchronous peel behind every ComputeTriangleCores overload,
// held to the definitional NaiveTriangleCores oracle and the
// code-independent κ-certificate on adversarial shapes: κ must be exact at
// every thread count and in both storage modes, and order/peel_sequence
// must be identical across thread counts, modes and overloads (the round
// structure is deterministic) and must themselves form a valid peel.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>
#include "tkc/baselines/naive.h"
#include "tkc/core/analysis_context.h"
#include "tkc/core/triangle_core.h"
#include "tkc/gen/generators.h"
#include "tkc/graph/csr.h"
#include "tkc/graph/delta_csr.h"
#include "tkc/obs/metrics.h"
#include "tkc/util/random.h"
#include "tkc/verify/certificate.h"

namespace tkc {
namespace {

constexpr TriangleStorageMode kModes[] = {
    TriangleStorageMode::kRecomputeTriangles,
    TriangleStorageMode::kStoreTriangles};

// κ from the context overload must equal the naive oracle's for every
// thread count and mode, and the result must be internally consistent.
void ExpectMatchesOracle(const Graph& g, const char* where) {
  const std::vector<uint32_t> oracle = NaiveTriangleCores(g);
  const CsrGraph csr(g);
  for (TriangleStorageMode mode : kModes) {
    for (int threads : {1, 2, 4, 7}) {
      AnalysisContext ctx(g, threads);
      const TriangleCoreResult r = ComputeTriangleCores(ctx, mode);
      ASSERT_EQ(r.kappa.size(), g.EdgeCapacity()) << where;
      uint32_t max_kappa = 0;
      g.ForEachEdge([&](EdgeId e, const Edge& edge) {
        ASSERT_EQ(r.kappa[e], oracle[e])
            << where << " threads=" << threads << " edge (" << edge.u << ","
            << edge.v << ")";
        max_kappa = std::max(max_kappa, oracle[e]);
      });
      EXPECT_EQ(r.max_kappa, max_kappa) << where;
      EXPECT_EQ(r.triangle_count, CountTriangles(csr)) << where;
      EXPECT_EQ(r.peel_sequence.size(), g.NumEdges()) << where;
      // order is the inverse of peel_sequence.
      for (size_t i = 0; i < r.peel_sequence.size(); ++i) {
        EXPECT_EQ(r.order[r.peel_sequence[i]], i) << where;
      }
      // κ is non-decreasing along the peel sequence (levels ascend).
      for (size_t i = 1; i < r.peel_sequence.size(); ++i) {
        EXPECT_LE(r.kappa[r.peel_sequence[i - 1]],
                  r.kappa[r.peel_sequence[i]])
            << where;
      }
      verify::VerifyReport cert = verify::CheckKappaCertificate(csr, r.kappa);
      EXPECT_TRUE(cert.AllPassed())
          << where << ": " << cert.FirstFailure()->name;
    }
  }
}

void ExpectSameResult(const TriangleCoreResult& got,
                      const TriangleCoreResult& want, const char* what) {
  EXPECT_EQ(got.kappa, want.kappa) << what;
  EXPECT_EQ(got.order, want.order) << what;
  EXPECT_EQ(got.peel_sequence, want.peel_sequence) << what;
  EXPECT_EQ(got.triangle_count, want.triangle_count) << what;
  EXPECT_EQ(got.max_kappa, want.max_kappa) << what;
}

TEST(ParallelPeelTest, EmptyGraph) {
  Graph g(10);
  ExpectMatchesOracle(g, "empty");
  const TriangleCoreResult r = ComputeTriangleCores(AnalysisContext(g, 4));
  EXPECT_EQ(r.max_kappa, 0u);
  EXPECT_TRUE(r.peel_sequence.empty());
}

TEST(ParallelPeelTest, TriangleFreeGraph) {
  // A cycle plus chords that never close triangles: every edge peels at
  // level 0 in one round.
  Graph g(12);
  for (VertexId v = 0; v < 12; ++v) g.AddEdge(v, (v + 1) % 12);
  for (VertexId v = 0; v < 6; ++v) g.AddEdge(v, v + 6);
  ExpectMatchesOracle(g, "triangle_free");
}

TEST(ParallelPeelTest, SingleClique) {
  Graph g(9);
  PlantClique(g, {0, 1, 2, 3, 4, 5, 6, 7, 8});
  ExpectMatchesOracle(g, "clique");
  const TriangleCoreResult r = ComputeTriangleCores(AnalysisContext(g, 4));
  // K9: every edge lies on 7 triangles and peels together, κ = 7.
  g.ForEachEdge(
      [&](EdgeId e, const Edge&) { EXPECT_EQ(r.kappa[e], 7u); });
}

TEST(ParallelPeelTest, StarOfCliques) {
  // Cliques of different sizes all sharing one hub vertex: the hub's
  // adjacency is large and skewed, and levels peel one clique at a time
  // while the hub edges straddle all of them.
  Graph g(1 + 5 + 6 + 7 + 8);
  VertexId next = 1;
  for (int size : {5, 6, 7, 8}) {
    std::vector<VertexId> members = {0};
    for (int i = 0; i < size; ++i) members.push_back(next++);
    PlantClique(g, members);
  }
  ExpectMatchesOracle(g, "star_of_cliques");
}

TEST(ParallelPeelTest, SkewedDegreeGraph) {
  // A hub connected to everything over a sparse random background — the
  // shape that exercises the galloping intersection path and uneven
  // per-edge work across workers.
  Rng rng(4242);
  Graph g = GnmRandom(120, 260, rng);
  for (VertexId v = 1; v < 120; ++v) {
    if (!g.HasEdge(0, v)) g.AddEdge(0, v);
  }
  ExpectMatchesOracle(g, "skewed");
}

TEST(ParallelPeelTest, PowerLawChurnedGraph) {
  // Generated graph with edge-id holes: remove every 7th edge so dead ids
  // pepper the edge space the frontier scans skip over.
  Rng rng(90210);
  Graph g = PowerLawCluster(200, 4, 0.5, rng);
  auto live = g.EdgeIds();
  for (size_t i = 0; i < live.size(); i += 7) g.RemoveEdgeById(live[i]);
  ExpectMatchesOracle(g, "churned");
}

TEST(ParallelPeelTest, OrderIsIdenticalAcrossThreadCounts) {
  Rng rng(777);
  const Graph g = PowerLawCluster(150, 4, 0.6, rng);
  const TriangleCoreResult base = ComputeTriangleCores(AnalysisContext(g, 1));
  for (int threads : {2, 3, 8}) {
    const TriangleCoreResult r =
        ComputeTriangleCores(AnalysisContext(g, threads));
    EXPECT_EQ(r.peel_sequence, base.peel_sequence) << threads << " threads";
    EXPECT_EQ(r.order, base.order) << threads << " threads";
    EXPECT_EQ(r.kappa, base.kappa) << threads << " threads";
  }
}

TEST(ParallelPeelTest, AllOverloadsAgreeInBothModesAtEveryThreadCount) {
  // Large enough that level 0 and the low levels have frontiers past the
  // inline-round cutoff, so the 2- and 4-thread contexts really split
  // rounds across workers; churned so dead edge ids are in play.
  Rng rng(5150);
  Graph g = PowerLawCluster(6000, 3, 0.3, rng);
  auto live = g.EdgeIds();
  for (size_t i = 0; i < live.size(); i += 11) g.RemoveEdgeById(live[i]);
  auto& frontier = obs::MetricsRegistry::Global().GetHistogram(
      "peel.frontier_edges");

  const CsrGraph csr(g);
  const TriangleCoreResult want =
      ComputeTriangleCores(csr, TriangleStorageMode::kRecomputeTriangles);
  EXPECT_GE(frontier.Max(), 2048u);
  for (TriangleStorageMode mode : kModes) {
    const bool store = mode == TriangleStorageMode::kStoreTriangles;
    ExpectSameResult(ComputeTriangleCores(csr, mode), want,
                     store ? "CsrGraph store" : "CsrGraph recompute");
    ExpectSameResult(ComputeTriangleCores(DeltaCsr(g), mode), want,
                     store ? "DeltaCsr store" : "DeltaCsr recompute");
    for (int threads : {1, 2, 4}) {
      SCOPED_TRACE(threads);
      ExpectSameResult(ComputeTriangleCores(AnalysisContext(g, threads), mode),
                       want,
                       store ? "AnalysisContext store"
                             : "AnalysisContext recompute");
    }
  }
}

TEST(ParallelPeelTest, AnalysisContextOverloadUsesCachedSupports) {
  Rng rng(31);
  const Graph g = PowerLawCluster(100, 3, 0.5, rng);
  AnalysisContext ctx(g, 4);
  auto& computations = obs::MetricsRegistry::Global().GetCounter(
      "analysis.support_computations");
  const uint64_t before = computations.Value();
  ctx.Supports();  // force the cache
  const TriangleCoreResult recompute = ComputeTriangleCores(ctx);
  const TriangleCoreResult store =
      ComputeTriangleCores(ctx, TriangleStorageMode::kStoreTriangles);
  EXPECT_EQ(computations.Value(), before + 1);  // computed exactly once
  EXPECT_EQ(recompute.kappa, store.kappa);
  EXPECT_EQ(recompute.triangle_count, store.triangle_count);
}

TEST(ParallelPeelTest, EmitsRoundAndFrontierHistograms) {
  auto& registry = obs::MetricsRegistry::Global();
  auto& rounds = registry.GetHistogram("peel.rounds");
  auto& frontier = registry.GetHistogram("peel.frontier_edges");
  const uint64_t rounds_before = rounds.Count();
  const uint64_t frontier_before = frontier.Count();
  Graph g(6);
  PlantClique(g, {0, 1, 2, 3, 4, 5});
  ComputeTriangleCores(CsrGraph(g));
  // One level (κ = 4 everywhere) peeled in one round of 15 edges.
  EXPECT_EQ(rounds.Count(), rounds_before + 1);
  EXPECT_EQ(frontier.Count(), frontier_before + 1);
}

}  // namespace
}  // namespace tkc
