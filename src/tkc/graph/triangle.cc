#include "tkc/graph/triangle.h"

#include <algorithm>

#include "tkc/graph/intersect.h"
#include "tkc/obs/metrics.h"
#include "tkc/obs/trace.h"
#include "tkc/util/parallel.h"

namespace tkc {

namespace {

// Shared counters for every triangle-enumeration pass, whichever layer
// runs it (see docs/observability.md for the naming scheme).
// `triangle.wedges_examined` is the *actual* intersection work the pass
// performed — merge iterations plus gallop probes — not the old
// min-degree upper bound, so the value stays comparable between the
// full-adjacency and oriented enumeration modes.
void RecordEnumeration(const IntersectStats& stats, uint64_t triangles) {
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter& wedge_counter =
      registry.GetCounter("triangle.wedges_examined");
  static obs::Counter& merge_counter =
      registry.GetCounter("triangle.merge_steps");
  static obs::Counter& gallop_counter =
      registry.GetCounter("triangle.gallop_probes");
  static obs::Counter& simd_counter =
      registry.GetCounter("triangle.simd_lanes_used");
  static obs::Counter& bitmap_counter =
      registry.GetCounter("triangle.bitmap_probes");
  static obs::Counter& triangle_counter =
      registry.GetCounter("triangle.triangles_found");
  wedge_counter.Add(stats.Total());
  merge_counter.Add(stats.merge_steps);
  gallop_counter.Add(stats.gallop_probes);
  simd_counter.Add(stats.simd_lanes);
  bitmap_counter.Add(stats.bitmap_probes);
  triangle_counter.Add(triangles);
  TKC_SPAN_COUNTER("wedges_examined", stats.Total());
  TKC_SPAN_COUNTER("triangles_found", triangles);
}

// Counted sorted-merge over the full adjacency of {u, v}: invokes
// fn(w, uw_edge, vw_edge) per common neighbor and returns the number of
// merge iterations actually spent.
template <typename Fn>
uint64_t MergeCommonNeighbors(const CsrGraph& g, VertexId u, VertexId v,
                              Fn&& fn) {
  const auto& a = g.Neighbors(u);
  const auto& b = g.Neighbors(v);
  size_t i = 0, j = 0;
  uint64_t steps = 0;
  while (i < a.size() && j < b.size()) {
    ++steps;
    if (a[i].vertex < b[j].vertex) {
      ++i;
    } else if (a[i].vertex > b[j].vertex) {
      ++j;
    } else {
      fn(a[i].vertex, a[i].edge, b[j].edge);
      ++i;
      ++j;
    }
  }
  return steps;
}

// Oriented support pass over the edge-id range [begin, end): each triangle
// is discovered exactly once, at the edge joining its two lowest-rank
// vertices, by intersecting the endpoints' out-lists through `kernel`
// (already resolved — never kAuto). Support increments land at arbitrary
// edge ids, so callers that parallelize this give each worker a full-size
// `support` shard.
void OrientedSupportRange(const CsrGraph& g, IntersectKernel kernel,
                          EdgeId begin, EdgeId end, uint32_t* support,
                          IntersectStats& stats, uint64_t& triangles) {
  for (EdgeId e = begin; e < end; ++e) {
    if (!g.IsEdgeAlive(e)) continue;
    const Edge oe = g.OrientedEdge(e);
    IntersectDispatch(kernel, g.OutNeighborsBegin(oe.u),
                      g.OutNeighborsEnd(oe.u), g.OutNeighborsBegin(oe.v),
                      g.OutNeighborsEnd(oe.v), stats,
                      [&](VertexId, EdgeId aw, EdgeId bw) {
                        ++support[e];
                        ++support[aw];
                        ++support[bw];
                        ++triangles;
                      });
  }
}

// Vertex-centric twin of OrientedSupportRange for the bitmap kernel, over
// the vertex range [begin, end). Iterating each (v, e_uv) in Out(u) visits
// every live edge exactly once at its lower-rank endpoint u, so the two
// partitions discover the identical triangle set — only the work per
// discovery differs. A hub u (OutDegree ≥ kBitmapHubCutoff) stamps its
// out-list into the scratch bitmap once and probes each neighbor's
// out-list against it — O(1) per probe instead of a merge re-walking
// Out(u) per edge; below the cutoff the stamp doesn't amortize and the
// dispatched per-edge intersection runs instead.
void BitmapSupportRange(const CsrGraph& g, VertexId begin, VertexId end,
                        uint32_t* support, IntersectStats& stats,
                        uint64_t& triangles, VertexBitmap& bitmap) {
  const IntersectKernel simd = ResolveKernel(IntersectKernel::kAuto);
  for (VertexId u = begin; u < end; ++u) {
    const auto out_u = g.OutNeighbors(u);
    if (out_u.empty()) continue;
    if (g.OutDegree(u) >= kBitmapHubCutoff) {
      for (const Neighbor& nb : out_u) bitmap.Set(nb.vertex, nb.edge);
      for (const Neighbor& nb : out_u) {
        for (const Neighbor& vw : g.OutNeighbors(nb.vertex)) {
          ++stats.bitmap_probes;
          if (bitmap.Test(vw.vertex)) {
            ++support[nb.edge];
            ++support[bitmap.EdgeOf(vw.vertex)];
            ++support[vw.edge];
            ++triangles;
          }
        }
      }
      for (const Neighbor& nb : out_u) bitmap.Clear(nb.vertex);
    } else {
      for (const Neighbor& nb : out_u) {
        IntersectDispatch(simd, out_u.begin(), out_u.end(),
                          g.OutNeighborsBegin(nb.vertex),
                          g.OutNeighborsEnd(nb.vertex), stats,
                          [&](VertexId, EdgeId aw, EdgeId bw) {
                            ++support[nb.edge];
                            ++support[aw];
                            ++support[bw];
                            ++triangles;
                          });
      }
    }
  }
}

}  // namespace

uint32_t EdgeSupport(const CsrGraph& g, EdgeId e) {
  Edge edge = g.GetEdge(e);
  return g.CountCommonNeighbors(edge.u, edge.v);
}

std::vector<uint32_t> ComputeEdgeSupports(const CsrGraph& g, int threads,
                                          IntersectKernel kernel) {
  TKC_SPAN("triangle.supports");
  threads = ResolveThreads(threads);
  kernel = kernel == IntersectKernel::kAuto ? CurrentKernel()
                                            : ResolveKernel(kernel);
  const bool bitmap = kernel == IntersectKernel::kBitmap;
  const size_t cap = g.EdgeCapacity();
  // The bitmap kernel partitions the vertex space (each edge owned by its
  // unique lower-rank endpoint); the others partition the edge-id space.
  const size_t domain = bitmap ? g.NumVertices() : cap;
  std::vector<uint32_t> support(cap, 0);
  uint64_t triangles = 0;
  IntersectStats stats;

  if (threads <= 1 || domain == 0) {
    if (bitmap && domain > 0) {
      VertexBitmap scratch(g.NumVertices());
      BitmapSupportRange(g, 0, g.NumVertices(), support.data(), stats,
                         triangles, scratch);
    } else {
      OrientedSupportRange(g, kernel, 0, static_cast<EdgeId>(cap),
                           support.data(), stats, triangles);
    }
    RecordEnumeration(stats, triangles);
    return support;
  }

  // Each worker owns a full-size partial-support shard and discovers the
  // triangles whose lowest-rank edge falls in its static chunk of the
  // partition domain; a second pass reduces the shards in fixed worker
  // order. Plain uint32 additions commute exactly, so the output is
  // identical to the serial path for any thread count.
  struct Shard {
    std::vector<uint32_t> support;
    uint64_t triangles = 0;
    IntersectStats stats;
  };
  std::vector<Shard> shards(static_cast<size_t>(threads));
  ParallelFor(threads, domain, [&](int worker, size_t begin, size_t end) {
    Shard& shard = shards[static_cast<size_t>(worker)];
    shard.support.assign(cap, 0);
    if (bitmap) {
      VertexBitmap scratch(g.NumVertices());
      BitmapSupportRange(g, static_cast<VertexId>(begin),
                         static_cast<VertexId>(end), shard.support.data(),
                         shard.stats, shard.triangles, scratch);
    } else {
      OrientedSupportRange(g, kernel, static_cast<EdgeId>(begin),
                           static_cast<EdgeId>(end), shard.support.data(),
                           shard.stats, shard.triangles);
    }
  });
  ParallelFor(threads, cap, [&](int, size_t begin, size_t end) {
    for (size_t e = begin; e < end; ++e) {
      uint32_t sum = 0;
      for (const Shard& shard : shards) {
        if (!shard.support.empty()) sum += shard.support[e];
      }
      support[e] = sum;
    }
  });
  for (const Shard& shard : shards) {
    triangles += shard.triangles;
    stats += shard.stats;
  }
  RecordEnumeration(stats, triangles);
  return support;
}

std::vector<uint32_t> ComputeEdgeSupportsFullScan(const CsrGraph& g) {
  TKC_SPAN("triangle.supports_full");
  std::vector<uint32_t> support(g.EdgeCapacity(), 0);
  uint64_t triangles = 0;
  IntersectStats stats;
  g.ForEachEdge([&](EdgeId e, const Edge& edge) {
    stats.merge_steps += MergeCommonNeighbors(
        g, edge.u, edge.v, [&](VertexId w, EdgeId uw, EdgeId vw) {
          if (w <= edge.v) return;
          ++support[e];
          ++support[uw];
          ++support[vw];
          ++triangles;
        });
  });
  RecordEnumeration(stats, triangles);
  return support;
}

uint64_t CountTriangles(const CsrGraph& g, int threads,
                        IntersectKernel kernel) {
  TKC_SPAN("triangle.count");
  threads = ResolveThreads(threads);
  kernel = kernel == IntersectKernel::kAuto ? CurrentKernel()
                                            : ResolveKernel(kernel);
  struct Partial {
    uint64_t triangles = 0;
    IntersectStats stats;
  };
  std::vector<Partial> partial(static_cast<size_t>(std::max(threads, 1)));
  if (kernel == IntersectKernel::kBitmap) {
    // Vertex-centric count (see BitmapSupportRange): hubs stamp their
    // out-list once and count bitmap hits; the rest run the dispatched
    // count-only kernel per out-edge.
    const IntersectKernel simd = ResolveKernel(IntersectKernel::kAuto);
    ParallelFor(threads, g.NumVertices(),
                [&](int worker, size_t begin, size_t end) {
      Partial& p = partial[static_cast<size_t>(worker)];
      VertexBitmap bitmap(g.NumVertices());
      for (VertexId u = static_cast<VertexId>(begin); u < end; ++u) {
        const auto out_u = g.OutNeighbors(u);
        if (out_u.empty()) continue;
        if (g.OutDegree(u) >= kBitmapHubCutoff) {
          for (const Neighbor& nb : out_u) bitmap.Set(nb.vertex, nb.edge);
          for (const Neighbor& nb : out_u) {
            for (const Neighbor& vw : g.OutNeighbors(nb.vertex)) {
              ++p.stats.bitmap_probes;
              p.triangles += bitmap.Test(vw.vertex);
            }
          }
          for (const Neighbor& nb : out_u) bitmap.Clear(nb.vertex);
        } else {
          for (const Neighbor& nb : out_u) {
            p.triangles += IntersectDispatchCount(
                simd, out_u.begin(), out_u.end(),
                g.OutNeighborsBegin(nb.vertex), g.OutNeighborsEnd(nb.vertex),
                p.stats);
          }
        }
      }
    });
  } else {
    ParallelFor(threads, g.EdgeCapacity(),
                [&](int worker, size_t begin, size_t end) {
      Partial& p = partial[static_cast<size_t>(worker)];
      for (EdgeId e = static_cast<EdgeId>(begin); e < end; ++e) {
        if (!g.IsEdgeAlive(e)) continue;
        const Edge oe = g.OrientedEdge(e);
        p.triangles += IntersectDispatchCount(
            kernel, g.OutNeighborsBegin(oe.u), g.OutNeighborsEnd(oe.u),
            g.OutNeighborsBegin(oe.v), g.OutNeighborsEnd(oe.v), p.stats);
      }
    });
  }
  uint64_t n = 0;
  IntersectStats stats;
  for (const Partial& p : partial) {
    n += p.triangles;
    stats += p.stats;
  }
  RecordEnumeration(stats, n);
  return n;
}

std::vector<Triangle> ListTriangles(const CsrGraph& g) {
  TKC_SPAN("triangle.list");
  std::vector<Triangle> out;
  IntersectStats stats;
  g.ForEachEdge([&](EdgeId e, const Edge& edge) {
    stats.merge_steps += MergeCommonNeighbors(
        g, edge.u, edge.v, [&](VertexId w, EdgeId uw, EdgeId vw) {
          if (w > edge.v) out.push_back(Triangle{edge.u, edge.v, w, e, uw, vw});
        });
  });
  RecordEnumeration(stats, out.size());
  return out;
}

TriangleStats ComputeTriangleStats(const CsrGraph& g) {
  TriangleStats stats;
  std::vector<uint32_t> support = ComputeEdgeSupports(g);
  uint64_t total_support = 0;
  g.ForEachEdge([&](EdgeId e, const Edge&) {
    total_support += support[e];
    if (support[e] > stats.max_edge_support) {
      stats.max_edge_support = support[e];
    }
  });
  // Every triangle contributes support to exactly 3 edges.
  stats.triangle_count = total_support / 3;
  stats.mean_edge_support =
      g.NumEdges() == 0
          ? 0.0
          : static_cast<double>(total_support) / static_cast<double>(
                                                     g.NumEdges());
  return stats;
}

}  // namespace tkc
