// The round-synchronous peel behind every ComputeTriangleCores overload,
// held to the definitional NaiveTriangleCores oracle and the
// code-independent κ-certificate on adversarial shapes: κ must be exact at
// every thread count, and order/peel_sequence must be identical across
// thread counts and overloads (the round structure is deterministic) and
// must themselves form a valid peel.

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>
#include "tkc/baselines/naive.h"
#include "tkc/core/analysis_context.h"
#include "tkc/core/triangle_core.h"
#include "tkc/gen/generators.h"
#include "tkc/graph/csr.h"
#include "tkc/graph/delta_csr.h"
#include "tkc/graph/triangle.h"
#include "tkc/obs/metrics.h"
#include "tkc/util/random.h"
#include "tkc/verify/certificate.h"

namespace tkc {
namespace {

// κ from the context overload must equal the naive oracle's for every
// thread count, and the result must be internally consistent.
void ExpectMatchesOracle(const Graph& g, const char* where) {
  const std::vector<uint32_t> oracle = NaiveTriangleCores(g);
  const CsrGraph csr(g);
  for (int threads : {1, 2, 4, 7}) {
    AnalysisContext ctx(g, threads);
    const TriangleCoreResult r = ComputeTriangleCores(ctx);
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
      EXPECT_LE(r.kappa[r.peel_sequence[i - 1]], r.kappa[r.peel_sequence[i]])
          << where;
    }
    verify::VerifyReport cert = verify::CheckKappaCertificate(csr, r.kappa);
    EXPECT_TRUE(cert.AllPassed())
        << where << ": " << cert.FirstFailure()->name;
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

TEST(ParallelPeelTest, AllOverloadsAgreeAtEveryThreadCount) {
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
  const TriangleCoreResult want = ComputeTriangleCores(csr);
  EXPECT_GE(frontier.Max(), 2048u);
  ExpectSameResult(ComputeTriangleCores(DeltaCsr(g)), want, "DeltaCsr");
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    ExpectSameResult(ComputeTriangleCores(AnalysisContext(g, threads)), want,
                     "AnalysisContext");
  }
}

TEST(ParallelPeelTest, LiveRowsCompactAcrossLevelsInEveryOverload) {
  // Cliques nested around a shared hub core {0, 1, 2}: clique i holds the
  // hubs plus its own block of members, so each level peels one clique's
  // edges out of the hub rows, and the hub-hub edges survive to the top
  // level. A sparse background adds support-0 edges and stray triangles.
  Rng rng(8086);
  const std::vector<int> blocks = {3, 6, 9, 13, 18};
  VertexId n = 3;
  for (int b : blocks) n += static_cast<VertexId>(b);
  Graph g = GnmRandom(n, 3 * n, rng);
  VertexId next = 3;
  for (int b : blocks) {
    std::vector<VertexId> members = {0, 1, 2};
    for (int i = 0; i < b; ++i) members.push_back(next++);
    PlantClique(g, members);
  }

  // Edit the graph through a DeltaCsr overlay: tombstone hub edges and
  // background edges, then insert fresh edges (new ids past the base's
  // capacity): random pairs, two tombstoned hub edges again, and a new
  // vertex joined to the hubs.
  DeltaCsr delta(std::make_shared<const CsrGraph>(g));
  for (VertexId v : {4u, 9u, 20u, 33u}) delta.RemoveEdge(0, v);
  auto live = delta.EdgeIds();
  for (size_t i = 0; i < live.size(); i += 13) delta.RemoveEdgeById(live[i]);
  for (int i = 0; i < 40; ++i) {
    const auto u = static_cast<VertexId>(rng.NextBounded(n));
    const auto v = static_cast<VertexId>(rng.NextBounded(n));
    if (u != v) delta.AddEdge(u, v);
  }
  for (VertexId v : {9u, 33u}) delta.AddEdge(0, v);
  const VertexId fresh = delta.AddVertex();
  for (VertexId hub : {0u, 1u, 2u}) delta.AddEdge(hub, fresh);
  ASSERT_GT(delta.OverlaidVertices(), 3u);
  ASSERT_GT(delta.EdgeCapacity(), delta.base().EdgeCapacity());

  auto& compacted =
      obs::MetricsRegistry::Global().GetCounter("core.peel.entries_compacted");
  const uint64_t before = compacted.Value();
  const TriangleCoreResult want = ComputeTriangleCores(delta);
  const uint64_t compacted_once = compacted.Value() - before;

  const std::shared_ptr<const CsrGraph> frozen = delta.Compact();
  ExpectSameResult(ComputeTriangleCores(*frozen), want, "CsrGraph");
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    ExpectSameResult(ComputeTriangleCores(AnalysisContext(frozen, threads)),
                     want, "AnalysisContext");
  }
  verify::VerifyReport cert =
      verify::CheckKappaCertificate(*frozen, want.kappa);
  EXPECT_TRUE(cert.AllPassed()) << cert.FirstFailure()->name;

  // Several levels, and every edge in a triangle that peels below the top
  // level leaves both endpoint rows at the next level start.
  std::vector<uint32_t> levels;
  uint64_t expect_compacted = 0;
  const std::vector<uint32_t> support = ComputeEdgeSupports(*frozen);
  frozen->ForEachEdge([&](EdgeId e, const Edge&) {
    levels.push_back(want.kappa[e]);
    if (support[e] != 0 && want.kappa[e] < want.max_kappa) {
      expect_compacted += 2;
    }
  });
  std::sort(levels.begin(), levels.end());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
  EXPECT_GE(levels.size(), 5u);
  EXPECT_EQ(compacted_once, expect_compacted);
}

TEST(ParallelPeelTest, AnalysisContextOverloadUsesCachedSupports) {
  Rng rng(31);
  const Graph g = PowerLawCluster(100, 3, 0.5, rng);
  AnalysisContext ctx(g, 4);
  auto& computations = obs::MetricsRegistry::Global().GetCounter(
      "analysis.support_computations");
  const uint64_t before = computations.Value();
  ctx.Supports();  // force the cache
  const TriangleCoreResult first = ComputeTriangleCores(ctx);
  const TriangleCoreResult second = ComputeTriangleCores(ctx);
  EXPECT_EQ(computations.Value(), before + 1);  // computed exactly once
  ExpectSameResult(second, first, "second decomposition");
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
