#include "tkc/core/analysis_context.h"

#include <gtest/gtest.h>

#include <vector>

#include "tkc/baselines/dn_graph.h"
#include "tkc/core/triangle_core.h"
#include "tkc/gen/generators.h"
#include "tkc/graph/triangle.h"
#include "tkc/obs/metrics.h"
#include "tkc/util/parallel.h"
#include "tkc/util/random.h"

namespace tkc {
namespace {

// Random graph with dead-edge holes, so EdgeId preservation through the
// freeze is exercised on a non-contiguous id space.
Graph MakeTestGraph(uint64_t seed) {
  Rng rng(seed);
  Graph g = PowerLawCluster(80, 4, 0.6, rng);
  std::vector<EdgeId> live = g.EdgeIds();
  for (size_t i = 0; i < live.size() / 10; ++i) {
    EdgeId e = live[rng.NextBounded(live.size())];
    if (g.IsEdgeAlive(e)) g.RemoveEdgeById(e);
  }
  return g;
}

void ExpectSameCores(const TriangleCoreResult& a, const TriangleCoreResult& b,
                     const char* what) {
  EXPECT_EQ(a.kappa, b.kappa) << what;
  EXPECT_EQ(a.order, b.order) << what;
  EXPECT_EQ(a.peel_sequence, b.peel_sequence) << what;
  EXPECT_EQ(a.max_kappa, b.max_kappa) << what;
  EXPECT_EQ(a.triangle_count, b.triangle_count) << what;
}

TEST(AnalysisContextTest, SupportsMatchEveryPath) {
  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    Graph g = MakeTestGraph(seed);
    CsrGraph csr(g);
    const auto full_scan = ComputeEdgeSupportsFullScan(csr);
    EXPECT_EQ(ComputeEdgeSupports(csr, 1), full_scan) << "seed=" << seed;
    EXPECT_EQ(ComputeEdgeSupports(csr, 4), full_scan) << "seed=" << seed;
    EXPECT_EQ(csr.ComputeSupports(4), full_scan) << "seed=" << seed;
    AnalysisContext ctx(g, 4);
    EXPECT_EQ(ctx.Supports(), full_scan) << "seed=" << seed;
  }
}

TEST(AnalysisContextTest, DecompositionIdenticalAcrossPathsModesThreads) {
  for (uint64_t seed : {10, 11, 12}) {
    Graph g = MakeTestGraph(seed);
    CsrGraph csr(g);
    for (TriangleStorageMode mode : {TriangleStorageMode::kStoreTriangles,
                                     TriangleStorageMode::kRecomputeTriangles}) {
      const TriangleCoreResult want = ComputeTriangleCores(csr, mode);
      for (int threads : {1, 4}) {
        AnalysisContext ctx(g, threads);
        ExpectSameCores(ComputeTriangleCores(ctx, mode), want, "context path");
        // A second decomposition from the same context reuses the cache and
        // must still be identical.
        ExpectSameCores(ComputeTriangleCores(ctx, mode), want, "cached");
      }
    }
  }
}

TEST(AnalysisContextTest, DnBaselinesMatchGraphPath) {
  Graph g = MakeTestGraph(40);

  for (int threads : {1, 4}) {
    AnalysisContext ctx(g, threads);
    DnGraphResult tg = TriDn(g);
    DnGraphResult tc = TriDn(ctx);
    EXPECT_EQ(tg.lambda, tc.lambda) << "threads=" << threads;
    EXPECT_EQ(tg.iterations, tc.iterations) << "threads=" << threads;
    EXPECT_EQ(tg.edge_updates, tc.edge_updates) << "threads=" << threads;
    DnGraphResult bg = BiTriDn(g);
    DnGraphResult bc = BiTriDn(ctx);
    EXPECT_EQ(bg.lambda, bc.lambda) << "threads=" << threads;
    EXPECT_EQ(bg.iterations, bc.iterations) << "threads=" << threads;
    EXPECT_EQ(bg.edge_updates, bc.edge_updates) << "threads=" << threads;
  }
}

TEST(AnalysisContextTest, SupportsComputedAtMostOncePerContext) {
  Graph g = MakeTestGraph(50);
  auto& counter = obs::MetricsRegistry::Global().GetCounter(
      "analysis.support_computations");
  counter.Reset();

  AnalysisContext ctx(g, 2);
  EXPECT_EQ(counter.Value(), 0u);  // construction does not compute

  // Every consumer below needs supports; the kernel must run exactly once.
  ctx.Supports();
  ctx.TriangleCount();
  ctx.MaxSupport();
  ComputeTriangleCores(ctx, TriangleStorageMode::kStoreTriangles);
  ComputeTriangleCores(ctx, TriangleStorageMode::kRecomputeTriangles);
  TriDn(ctx, 2);
  BiTriDn(ctx, 2);
  EXPECT_EQ(counter.Value(), 1u);

  // A fresh context recomputes (once).
  AnalysisContext ctx2(g, 1);
  ctx2.Supports();
  EXPECT_EQ(counter.Value(), 2u);
}

TEST(AnalysisContextTest, TrianglesMaterializedOnceAndComplete) {
  Graph g = MakeTestGraph(60);
  auto& counter = obs::MetricsRegistry::Global().GetCounter(
      "analysis.triangle_materializations");
  counter.Reset();

  AnalysisContext ctx(g, 1);
  const auto& tris = ctx.Triangles();
  ctx.Triangles();
  ComputeTriangleCores(ctx, TriangleStorageMode::kStoreTriangles);
  EXPECT_EQ(counter.Value(), 1u);
  EXPECT_EQ(static_cast<uint64_t>(tris.size()),
            CountTriangles(ctx.csr(), 1));
  EXPECT_EQ(static_cast<uint64_t>(tris.size()), ctx.TriangleCount());
}

TEST(AnalysisContextTest, AdoptsExistingSnapshot) {
  Graph g = MakeTestGraph(70);
  CsrGraph csr(g);
  AnalysisContext ctx(csr, 1);
  EXPECT_EQ(ctx.csr().NumEdges(), g.NumEdges());
  EXPECT_EQ(ctx.Supports(), ComputeEdgeSupports(csr));
}

}  // namespace
}  // namespace tkc
