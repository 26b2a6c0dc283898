#include "tkc/core/triangle_core.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <string>

#include "tkc/core/analysis_context.h"
#include "tkc/graph/delta_csr.h"
#include "tkc/graph/intersect_simd.h"
#include "tkc/obs/mem.h"
#include "tkc/obs/metrics.h"
#include "tkc/obs/perf_counters.h"
#include "tkc/obs/timeline.h"
#include "tkc/obs/trace.h"
#include "tkc/util/check.h"
#include "tkc/util/parallel.h"

#if TKC_CHECK_LEVEL >= 2
#include "tkc/verify/certificate.h"
#endif

namespace tkc {

namespace {

// Edge lifecycle within the round loop. `state` is written only between
// rounds, and the pool's fork/join barriers order those writes before the
// next round's reads — workers never mutate it mid-round, which keeps the
// round processing TSan-clean without atomics on the state array.
enum : uint8_t {
  kAlive = 0,     // not yet reached the current level
  kFrontier = 1,  // peeling in the round being processed
  kPeeled = 2,    // κ assigned in an earlier round/level
};

// Atomically lowers support[target] by one, clamped at the current level k
// (an edge that reached k peels at k — further losses cannot lower κ). The
// successful k+1 → k transition is unique per edge, so pushing to the
// caller's next-frontier buffer exactly there inserts each edge exactly
// once, with no revisit flag needed.
uint64_t Decrement(std::atomic<uint32_t>* support, EdgeId target, uint32_t k,
                   std::vector<EdgeId>& next) {
  uint32_t cur = support[target].load(std::memory_order_relaxed);
  while (cur > k) {
    if (support[target].compare_exchange_weak(cur, cur - 1,
                                              std::memory_order_relaxed)) {
      if (cur == k + 1) next.push_back(target);
      return 1;
    }
  }
  return 0;
}

// The peel's private adjacency: a copy of every row of the graph that
// keeps only edges lying in at least one triangle (an edge of support 0 is
// no triangle's partner, so no intersection result changes), from which
// peeled edges are compacted out at each level start. Compaction keeps the
// order within a row, so rows stay sorted and feed the same intersection
// kernels as the graph's own rows. Rows are only written between rounds.
class LiveRows {
 public:
  template <typename GraphT>
  LiveRows(const GraphT& g, const std::vector<uint32_t>& support)
      : begin_(static_cast<size_t>(g.NumVertices()) + 1, 0),
        len_(g.NumVertices(), 0),
        dirty_(g.NumVertices(), 0) {
    const VertexId n = g.NumVertices();
    for (VertexId v = 0; v < n; ++v) {
      for (const Neighbor& nb : g.Neighbors(v)) {
        if (support[nb.edge] != 0) ++len_[v];
      }
      begin_[v + 1] = begin_[v] + len_[v];
    }
    entries_.reserve(begin_[n]);
    for (VertexId v = 0; v < n; ++v) {
      for (const Neighbor& nb : g.Neighbors(v)) {
        if (support[nb.edge] != 0) entries_.push_back(nb);
      }
    }
  }

  const Neighbor* Begin(VertexId v) const {
    return entries_.data() + begin_[v];
  }
  const Neighbor* End(VertexId v) const { return Begin(v) + len_[v]; }

  // Queues `v`'s row for the next Compact().
  void MarkDirty(VertexId v) {
    if (dirty_[v] != 0) return;
    dirty_[v] = 1;
    dirty_list_.push_back(v);
  }

  // Drops the entries whose edge is kPeeled from every queued row and
  // returns how many were dropped.
  uint64_t Compact(const std::vector<uint8_t>& state) {
    uint64_t dropped = 0;
    for (VertexId v : dirty_list_) {
      dirty_[v] = 0;
      Neighbor* row = entries_.data() + begin_[v];
      Neighbor* live = std::remove_if(
          row, row + len_[v],
          [&](const Neighbor& nb) { return state[nb.edge] == kPeeled; });
      const auto kept = static_cast<uint32_t>(live - row);
      dropped += len_[v] - kept;
      len_[v] = kept;
    }
    dirty_list_.clear();
    return dropped;
  }

 private:
  std::vector<size_t> begin_;    // |V|+1 row starts into entries_
  std::vector<uint32_t> len_;    // live length of each row
  std::vector<Neighbor> entries_;
  std::vector<uint8_t> dirty_;   // row queued for compaction
  std::vector<VertexId> dirty_list_;
};

// Per-worker round tallies, summed once after the peel. Each worker adds
// its chunk's locals here once per chunk, on its own cache line.
struct alignas(64) WorkerTally {
  uint64_t relaxations = 0;
  uint64_t scanned = 0;
};

// Steps 7-18 of Algorithm 1, the one peel behind every entry point, in the
// round-synchronous form of the PKT scheme: levels k ascend, and within a
// level the frontier — unpeeled edges whose κ̃ has reached k — peels in
// rounds until the level drains. κ̃ starts at `initial_support`, which
// must be the exact triangle count of each edge (LiveRows leaves the
// support-0 edges out). Each peeled edge intersects its endpoints' live
// rows to find its triangles. Rounds of at least kSerialRoundCutoff edges
// are split over `threads` workers; the result is the same for every
// thread count.
template <typename GraphT>
void PeelRoundSynchronous(const GraphT& g,
                          const std::vector<uint32_t>& initial_support,
                          int threads, TriangleCoreResult& result) {
  TKC_SPAN_PERF("peel");
  const size_t cap = g.EdgeCapacity();
  result.kappa.assign(cap, 0);
  result.order.assign(cap, kInvalidOrder);

  // κ̃ lives in an atomic array for the CAS decrements; dead edge ids keep
  // state kPeeled so no rule ever touches them. This array and the
  // per-worker `buffers` below are the round loop's only cross-thread
  // state, and their contract is atomic-only / owner-only rather than
  // lock-based (see docs/static_analysis.md):
  //  * support[] is touched mid-round exclusively through the relaxed CAS
  //    in Decrement — never a plain read-modify-write;
  //  * buffers[w] is appended to only by worker w (each push guarded by
  //    the unique k+1 -> k CAS transition), and drained by the coordinator
  //    strictly between rounds, after the pool's fork/join barrier.
  auto support = std::make_unique<std::atomic<uint32_t>[]>(cap);
  std::vector<uint8_t> state(cap, kPeeled);
  // Unpeeled edges, ascending; compacted once per level so later levels
  // scan only what is left instead of the whole edge-id space.
  std::vector<EdgeId> pending;
  for (EdgeId e = 0; e < cap; ++e) {
    support[e].store(initial_support[e], std::memory_order_relaxed);
    if (g.IsEdgeAlive(e)) {
      state[e] = kAlive;
      pending.push_back(e);
    }
  }
  size_t remaining = pending.size();
  result.peel_sequence.reserve(remaining);

  auto& registry = obs::MetricsRegistry::Global();
  auto& rounds_hist = registry.GetHistogram("peel.rounds");
  auto& frontier_hist = registry.GetHistogram("peel.frontier_edges");

  LiveRows rows = [&] {
    TKC_SPAN("peel.compact");
    return LiveRows(g, initial_support);
  }();
  uint64_t compacted = 0;
  const IntersectKernel kernel = CurrentKernel();

  const size_t workers = static_cast<size_t>(std::max(threads, 1));
  std::vector<std::vector<EdgeId>> buffers(workers);
  std::vector<WorkerTally> tally(workers);
  std::vector<EdgeId> frontier;
  uint32_t next_order = 0;

  // Dispatching the pool for a handful of edges costs more than the round;
  // below this frontier size the round runs inline on the calling thread.
  constexpr size_t kSerialRoundCutoff = 2048;

  while (remaining > 0) {
    {
      // Drop the edges the last level peeled from the rows they touch.
      TKC_SPAN("peel.compact");
      compacted += rows.Compact(state);
    }
    // Level skip: drop the last level's edges from `pending` too and find
    // the smallest remaining support — every clamp so far was at a lower
    // floor, so no unpeeled edge sits below it.
    size_t kept = 0;
    uint32_t k = std::numeric_limits<uint32_t>::max();
    for (EdgeId e : pending) {
      if (state[e] == kPeeled) continue;
      pending[kept++] = e;
      k = std::min(k, support[e].load(std::memory_order_relaxed));
    }
    pending.resize(kept);
    result.max_kappa = k;

    // Initial frontier of level k (ascending, since pending is).
    frontier.clear();
    for (EdgeId e : pending) {
      if (support[e].load(std::memory_order_relaxed) <= k) {
        frontier.push_back(e);
      }
    }

    uint64_t rounds = 0;
    uint64_t level_edges = 0;
    while (!frontier.empty()) {
      ++rounds;
      // Coordinator-side timeline slice for the whole round; worker-side
      // "peel.chunk" slices below nest visually under it in the trace.
      obs::TimelineScope round_scope("peel.round");
      round_scope.AddArg("level", k);
      round_scope.AddArg("round", rounds);
      round_scope.AddArg("frontier", frontier.size());
      frontier_hist.Observe(frontier.size());
      for (EdgeId e : frontier) state[e] = kFrontier;

      // One round: every frontier edge scans its triangles. A triangle
      // with a peeled partner was already settled; with both partners in
      // this frontier it dies with no survivor to relax; with exactly one
      // partner in the frontier, the lower-id frontier edge relaxes the
      // survivor (the other would double-count it); with no partner in the
      // frontier, the peeling edge relaxes both.
      const int round_threads =
          frontier.size() < kSerialRoundCutoff ? 1 : threads;
      ParallelFor(round_threads, frontier.size(),
                  [&](int worker, size_t begin, size_t end) {
        obs::TimelineScope chunk_scope("peel.chunk");
        chunk_scope.AddArg("level", k);
        chunk_scope.AddArg("round", rounds);
        chunk_scope.AddArg("edges", end - begin);
        auto& next = buffers[static_cast<size_t>(worker)];
        uint64_t relax = 0;
        IntersectStats stats;
        for (size_t i = begin; i < end; ++i) {
          const EdgeId e = frontier[i];
          const Edge edge = g.GetEdge(e);
          IntersectDispatch(
              kernel, rows.Begin(edge.u), rows.End(edge.u),
              rows.Begin(edge.v), rows.End(edge.v), stats,
              [&](VertexId, EdgeId p1, EdgeId p2) {
                const uint8_t s1 = state[p1];
                const uint8_t s2 = state[p2];
                if (s1 == kPeeled || s2 == kPeeled) return;
                if (s1 == kFrontier && s2 == kFrontier) return;
                if (s1 == kFrontier) {
                  if (e < p1) relax += Decrement(support.get(), p2, k, next);
                } else if (s2 == kFrontier) {
                  if (e < p2) relax += Decrement(support.get(), p1, k, next);
                } else {
                  relax += Decrement(support.get(), p1, k, next);
                  relax += Decrement(support.get(), p2, k, next);
                }
              });
        }
        WorkerTally& t = tally[static_cast<size_t>(worker)];
        t.relaxations += relax;
        t.scanned += stats.Total();
      });

      // Finalize the round (frontier is id-ascending, so order and
      // peel_sequence are identical for every thread count). Edges of
      // support 0 are in no live row, so only the others dirty a row.
      for (EdgeId e : frontier) {
        state[e] = kPeeled;
        result.kappa[e] = k;
        result.order[e] = next_order++;
        result.peel_sequence.push_back(e);
        if (initial_support[e] != 0) {
          const Edge edge = g.GetEdge(e);
          rows.MarkDirty(edge.u);
          rows.MarkDirty(edge.v);
        }
      }
      remaining -= frontier.size();
      level_edges += frontier.size();

      frontier.clear();
      for (auto& buf : buffers) {
        frontier.insert(frontier.end(), buf.begin(), buf.end());
        buf.clear();
      }
      std::sort(frontier.begin(), frontier.end());
    }
    rounds_hist.Observe(rounds);
    registry.GetCounter("core.peel.level." + std::to_string(k))
        .Add(level_edges);
  }

  uint64_t relaxations = 0;
  uint64_t scanned = 0;
  for (const WorkerTally& t : tally) {
    relaxations += t.relaxations;
    scanned += t.scanned;
  }
  TKC_SPAN_COUNTER("edges_peeled", result.peel_sequence.size());
  TKC_SPAN_COUNTER("support_relaxations", relaxations);
  TKC_SPAN_COUNTER("adjacency_scanned", scanned);
  TKC_SPAN_COUNTER("entries_compacted", compacted);
  registry.GetCounter("core.peel.edges_peeled")
      .Add(result.peel_sequence.size());
  registry.GetCounter("core.peel.support_relaxations").Add(relaxations);
  registry.GetCounter("core.peel.adjacency_scanned").Add(scanned);
  registry.GetCounter("core.peel.entries_compacted").Add(compacted);
  registry.GetGauge("core.peel.max_kappa").Set(result.max_kappa);
}

// Full Algorithm 1 over a self-contained graph: count supports inline
// (steps 1-5), then peel on the calling thread.
template <typename GraphT>
TriangleCoreResult PeelTriangleCores(const GraphT& g) {
  TKC_SPAN_MEM("core.decompose");
  const size_t cap = g.EdgeCapacity();
  TriangleCoreResult result;

  // Steps 1-5: κ̃(e) = number of triangles on e (the upper bound), each
  // triangle discovered once at its lexicographically smallest edge.
  std::vector<uint32_t> support(cap, 0);
  {
    TKC_SPAN("support_count");
    uint64_t wedges = 0;
    g.ForEachEdge([&](EdgeId e, const Edge& edge) {
      wedges += IntersectNeighbors(g, edge.u, edge.v,
                                   [&](VertexId w, EdgeId uw, EdgeId vw) {
                                     if (w <= edge.v) return;
                                     ++support[e];
                                     ++support[uw];
                                     ++support[vw];
                                     ++result.triangle_count;
                                   });
    });
    auto& registry = obs::MetricsRegistry::Global();
    registry.GetCounter("triangle.wedges_examined").Add(wedges);
    registry.GetCounter("triangle.triangles_found")
        .Add(result.triangle_count);
    TKC_SPAN_COUNTER("wedges_examined", wedges);
    TKC_SPAN_COUNTER("triangles_found", result.triangle_count);
  }

  PeelRoundSynchronous(g, support, /*threads=*/1, result);
  return result;
}

}  // namespace

TriangleCoreResult ComputeTriangleCores(const CsrGraph& g) {
  TriangleCoreResult result = PeelTriangleCores(g);
  TKC_VERIFY_L2(verify::CheckOrDie(
      verify::CheckKappaCertificate(g, result.kappa),
      "ComputeTriangleCores(CsrGraph)"));
  return result;
}

TriangleCoreResult ComputeTriangleCores(const DeltaCsr& g) {
  TriangleCoreResult result = PeelTriangleCores(g);
  TKC_VERIFY_L2(verify::CheckOrDie(
      verify::CheckKappaCertificate(g, result.kappa),
      "ComputeTriangleCores(DeltaCsr)"));
  return result;
}

TriangleCoreResult ComputeTriangleCores(const AnalysisContext& ctx) {
  TKC_SPAN_MEM("core.decompose");
  const CsrGraph& g = ctx.csr();
  TriangleCoreResult result;
  // Initial κ̃ from the context's shared support cache (first use computes
  // it under a nested "support_count" span; later uses are free).
  result.triangle_count = ctx.TriangleCount();
  PeelRoundSynchronous(g, ctx.Supports(), ctx.threads(), result);
  TKC_VERIFY_L2(verify::CheckOrDie(
      verify::CheckKappaCertificate(g, result.kappa),
      "ComputeTriangleCores(AnalysisContext)"));
  return result;
}

uint32_t MaxKappa(const CsrGraph& g, const TriangleCoreResult& r) {
  uint32_t m = 0;
  g.ForEachEdge([&](EdgeId e, const Edge&) { m = std::max(m, r.kappa[e]); });
  return m;
}

}  // namespace tkc
