#include "tkc/core/dynamic_core.h"

#include <algorithm>
#include <deque>
#include <ostream>
#include <utility>

#include "tkc/graph/delta_csr.h"
#include "tkc/graph/triangle.h"
#include "tkc/obs/metrics.h"
#include "tkc/obs/trace.h"
#include "tkc/util/check.h"
#include "tkc/util/timer.h"

#if TKC_CHECK_LEVEL >= 2
#include "tkc/verify/certificate.h"
#endif

namespace tkc {

namespace {

// Folds the per-event UpdateStats into the process-wide registry: shared
// work counters plus per-kind latency and affected-region histograms (the
// Rule-0 locality claim, measurable).
void RecordUpdate(bool is_insert, double seconds, const UpdateStats& s) {
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter& inserts = registry.GetCounter("dyn.insert.count");
  static obs::Counter& removes = registry.GetCounter("dyn.remove.count");
  static obs::Counter& candidates =
      registry.GetCounter("dyn.candidate_edges");
  static obs::Counter& promoted = registry.GetCounter("dyn.promoted_edges");
  static obs::Counter& demoted = registry.GetCounter("dyn.demoted_edges");
  static obs::Counter& triangles =
      registry.GetCounter("dyn.triangles_scanned");
  static obs::Histogram& insert_latency =
      registry.GetHistogram("dyn.insert.latency_ns");
  static obs::Histogram& remove_latency =
      registry.GetHistogram("dyn.remove.latency_ns");
  static obs::Histogram& insert_affected =
      registry.GetHistogram("dyn.insert.affected_edges");
  static obs::Histogram& remove_affected =
      registry.GetHistogram("dyn.remove.affected_edges");
  (is_insert ? inserts : removes).Add(1);
  candidates.Add(s.candidate_edges);
  promoted.Add(s.promoted_edges);
  demoted.Add(s.demoted_edges);
  triangles.Add(s.triangles_scanned);
  (is_insert ? insert_latency : remove_latency).ObserveSeconds(seconds);
  (is_insert ? insert_affected : remove_affected).Observe(s.candidate_edges);
  TKC_SPAN_COUNTER("candidate_edges", s.candidate_edges);
  TKC_SPAN_COUNTER("triangles_scanned", s.triangles_scanned);
}

// The batched counterpart: one record per ApplyBatch. The shared dyn.*
// work counters keep accumulating (so metrics artifacts show the same
// candidates/promoted/demoted/triangles_scanned series for either path)
// plus batch-shape counters and a per-batch latency histogram.
void RecordBatch(double seconds, const BatchStats& b) {
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter& batches = registry.GetCounter("dyn.batch.count");
  static obs::Counter& events = registry.GetCounter("dyn.batch.events");
  static obs::Counter& coalesced =
      registry.GetCounter("dyn.batch.coalesced_events");
  static obs::Counter& inserts = registry.GetCounter("dyn.batch.net_inserts");
  static obs::Counter& removes = registry.GetCounter("dyn.batch.net_removes");
  static obs::Counter& levels = registry.GetCounter("dyn.batch.levels");
  static obs::Counter& sweeps = registry.GetCounter("dyn.batch.sweeps");
  static obs::Counter& candidates =
      registry.GetCounter("dyn.candidate_edges");
  static obs::Counter& promoted = registry.GetCounter("dyn.promoted_edges");
  static obs::Counter& demoted = registry.GetCounter("dyn.demoted_edges");
  static obs::Counter& triangles =
      registry.GetCounter("dyn.triangles_scanned");
  static obs::Histogram& latency =
      registry.GetHistogram("dyn.batch.latency_ns");
  static obs::Histogram& affected =
      registry.GetHistogram("dyn.batch.affected_edges");
  batches.Add(1);
  events.Add(b.events);
  coalesced.Add(b.coalesced_events);
  inserts.Add(b.net_inserts);
  removes.Add(b.net_removes);
  levels.Add(b.levels);
  sweeps.Add(b.sweeps);
  candidates.Add(b.work.candidate_edges);
  promoted.Add(b.work.promoted_edges);
  demoted.Add(b.work.demoted_edges);
  triangles.Add(b.work.triangles_scanned);
  latency.ObserveSeconds(seconds);
  affected.Observe(b.work.candidate_edges);
  TKC_SPAN_COUNTER("events", b.events);
  TKC_SPAN_COUNTER("candidate_edges", b.work.candidate_edges);
  TKC_SPAN_COUNTER("triangles_scanned", b.work.triangles_scanned);
}

}  // namespace

std::string UpdateStats::ToString() const {
  return "candidates=" + std::to_string(candidate_edges) +
         " promoted=" + std::to_string(promoted_edges) +
         " demoted=" + std::to_string(demoted_edges) +
         " triangles_scanned=" + std::to_string(triangles_scanned);
}

std::ostream& operator<<(std::ostream& os, const UpdateStats& stats) {
  return os << stats.ToString();
}

std::string BatchStats::ToString() const {
  return "events=" + std::to_string(events) +
         " coalesced=" + std::to_string(coalesced_events) +
         " inserts=" + std::to_string(net_inserts) +
         " removes=" + std::to_string(net_removes) +
         " levels=" + std::to_string(levels) +
         " sweeps=" + std::to_string(sweeps) + " " + work.ToString();
}

std::ostream& operator<<(std::ostream& os, const BatchStats& stats) {
  return os << stats.ToString();
}

DynamicTriangleCore::DynamicTriangleCore(DeltaCsr graph)
    : graph_(std::move(graph)) {
  TriangleCoreResult initial = ComputeTriangleCores(graph_);
  kappa_ = std::move(initial.kappa);
  GrowArrays();
}

DynamicTriangleCore::DynamicTriangleCore(
    DeltaCsr graph, const TriangleCoreResult& initial)
    : graph_(std::move(graph)), kappa_(initial.kappa) {
  TKC_CHECK(kappa_.size() == graph_.EdgeCapacity());
  GrowArrays();
}

void DynamicTriangleCore::GrowArrays() {
  const size_t cap = graph_.EdgeCapacity();
  if (kappa_.size() < cap) kappa_.resize(cap, 0);
  if (flag_.size() < cap) flag_.resize(cap, 0);
  if (cand_support_.size() < cap) cand_support_.resize(cap, 0);
  if (queued_.size() < cap) queued_.resize(cap, 0);
  if (seed_flag_.size() < cap) seed_flag_.resize(cap, 0);
}

uint32_t DynamicTriangleCore::InsertionBound(EdgeId e0) const {
  // h-index over min(κ(e1), κ(e2)) of e0's triangles: the largest k such
  // that at least k triangles have partner-min >= k.
  std::vector<uint32_t> mins;
  ForEachTriangleOnEdge(graph_, e0, [&](VertexId, EdgeId e1, EdgeId e2) {
    mins.push_back(std::min(kappa_[e1], kappa_[e2]));
  });
  std::sort(mins.begin(), mins.end(), std::greater<uint32_t>());
  uint32_t k1 = 0;
  for (size_t i = 0; i < mins.size(); ++i) {
    if (mins[i] >= i + 1) k1 = static_cast<uint32_t>(i + 1);
  }
  return k1;
}

EdgeId DynamicTriangleCore::InsertEdge(VertexId u, VertexId v) {
  bool inserted = false;
  EdgeId e0 = graph_.AddEdge(u, v, &inserted);
  if (!inserted) return e0;
  TKC_SPAN("dyn.insert");
  Timer latency;
  GrowArrays();
  last_stats_ = UpdateStats{};

  const uint32_t k1 = InsertionBound(e0);
  kappa_[e0] = k1;

  // Per-level Rule-0 regions are independent (a level-k promotion depends
  // only on edges with κ > k, which other levels never produce), so all
  // levels are evaluated against pre-insertion κ values and the +1
  // promotions are applied at the end. Only levels that can seed a
  // candidate region need processing: a level-k region is reachable only
  // through a triangle on e0 whose partner minimum is exactly k (that
  // partner is the seed), plus level k1 where e0 itself is the candidate.
  std::vector<uint32_t> levels;
  ForEachTriangleOnEdge(graph_, e0, [&](VertexId, EdgeId e1, EdgeId e2) {
    uint32_t m = std::min(kappa_[e1], kappa_[e2]);
    if (m <= k1) levels.push_back(m);
  });
  levels.push_back(k1);
  std::sort(levels.begin(), levels.end());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());

  std::vector<EdgeId> promotions;
  for (uint32_t k : levels) {
    ProcessInsertLevel(e0, k, &promotions);
  }
  for (EdgeId e : promotions) ++kappa_[e];
  last_stats_.promoted_edges = promotions.size();

  total_stats_.candidate_edges += last_stats_.candidate_edges;
  total_stats_.promoted_edges += last_stats_.promoted_edges;
  total_stats_.triangles_scanned += last_stats_.triangles_scanned;
  RecordUpdate(/*is_insert=*/true, latency.Seconds(), last_stats_);
  VerifyAfterUpdate("DynamicTriangleCore::InsertEdge");
  return e0;
}

void DynamicTriangleCore::VerifyAfterUpdate(const char* where) {
#if TKC_CHECK_LEVEL >= 2
  if (in_batch_) return;
  verify::CheckOrDie(verify::CheckKappaCertificate(graph_, kappa_), where);
#else
  (void)where;
#endif
}

void DynamicTriangleCore::ProcessInsertLevel(
    EdgeId e0, uint32_t k, std::vector<EdgeId>* promotions) {
  // --- Region growth (Rule 0): edges with κ == k triangle-connected to e0
  // through triangles whose other two edges have κ >= k. Only candidates
  // (κ == k) propagate the search; κ > k edges are stable walls.
  std::vector<EdgeId> cands;
  std::deque<EdgeId> frontier;
  auto consider = [&](EdgeId f) {
    if (kappa_[f] == k && flag_[f] == 0) {
      flag_[f] = 1;
      cands.push_back(f);
      frontier.push_back(f);
    }
  };
  auto expand = [&](EdgeId x) {
    ForEachTriangleOnEdge(graph_, x, [&](VertexId, EdgeId f1, EdgeId f2) {
      ++last_stats_.triangles_scanned;
      if (kappa_[f1] < k || kappa_[f2] < k) return;
      consider(f1);
      consider(f2);
    });
  };
  // e0 participates in the region by fiat; if its tentative κ equals k
  // (k == k1) it is itself a promotion candidate.
  if (kappa_[e0] == k) {
    flag_[e0] = 1;
    cands.push_back(e0);
  }
  expand(e0);
  while (!frontier.empty()) {
    EdgeId c = frontier.front();
    frontier.pop_front();
    if (c != e0) expand(c);
  }
  last_stats_.candidate_edges += cands.size();

  // --- Repeel: a candidate is promoted to k+1 iff it retains >= k+1
  // triangles whose partners have κ > k or are surviving candidates.
  // `Qual` evaluates partner eligibility under the current eviction state.
  auto qual = [&](EdgeId f) { return kappa_[f] > k || flag_[f] == 1; };
  std::deque<EdgeId> evict_queue;
  for (EdgeId c : cands) {
    uint32_t s = 0;
    ForEachTriangleOnEdge(graph_, c, [&](VertexId, EdgeId f1, EdgeId f2) {
      ++last_stats_.triangles_scanned;
      if (qual(f1) && qual(f2)) ++s;
    });
    cand_support_[c] = s;
    if (s < k + 1) evict_queue.push_back(c);
  }
  while (!evict_queue.empty()) {
    EdgeId c = evict_queue.front();
    evict_queue.pop_front();
    if (flag_[c] != 1) continue;  // already evicted
    if (cand_support_[c] >= k + 1) continue;  // support was restored? never
    flag_[c] = 2;
    // Triangles that counted for a candidate partner stop counting.
    ForEachTriangleOnEdge(graph_, c, [&](VertexId, EdgeId f1, EdgeId f2) {
      ++last_stats_.triangles_scanned;
      auto drop = [&](EdgeId cand, EdgeId other) {
        if (flag_[cand] != 1) return;
        if (!(kappa_[other] > k || flag_[other] == 1)) return;
        // Triangle (c, cand, other) previously counted toward cand.
        if (--cand_support_[cand] < k + 1) evict_queue.push_back(cand);
      };
      drop(f1, f2);
      drop(f2, f1);
    });
  }
  for (EdgeId c : cands) {
    if (flag_[c] == 1) promotions->push_back(c);
    flag_[c] = 0;  // reset scratch
    cand_support_[c] = 0;
  }
}

void DynamicTriangleCore::ProcessBatchInsertLevel(
    const std::vector<EdgeId>& seeds, uint32_t k,
    std::vector<EdgeId>* promotions) {
  // The multi-seed generalization of ProcessInsertLevel: one Rule-0 region
  // is grown from every seed at once and repeeled once, instead of one
  // region per inserted edge. Seeds are marked in seed_flag_ and expanded
  // up front; the frontier never re-expands them. A seed only contributes
  // at levels k <= κ(seed) — above that its own κ disqualifies every
  // triangle through it — so cheaper seeds are skipped outright.
  std::vector<EdgeId> cands;
  std::deque<EdgeId> frontier;
  auto consider = [&](EdgeId f) {
    if (kappa_[f] == k && flag_[f] == 0) {
      flag_[f] = 1;
      cands.push_back(f);
      frontier.push_back(f);
    }
  };
  auto expand = [&](EdgeId x) {
    ForEachTriangleOnEdge(graph_, x, [&](VertexId, EdgeId f1, EdgeId f2) {
      ++last_stats_.triangles_scanned;
      if (kappa_[f1] < k || kappa_[f2] < k) return;
      consider(f1);
      consider(f2);
    });
  };
  for (EdgeId s : seeds) {
    if (kappa_[s] == k && flag_[s] == 0) {
      flag_[s] = 1;
      cands.push_back(s);
    }
  }
  for (EdgeId s : seeds) {
    if (kappa_[s] >= k) expand(s);
  }
  while (!frontier.empty()) {
    EdgeId c = frontier.front();
    frontier.pop_front();
    if (!seed_flag_[c]) expand(c);
  }
  last_stats_.candidate_edges += cands.size();

  // Repeel, identical to the single-seed path.
  auto qual = [&](EdgeId f) { return kappa_[f] > k || flag_[f] == 1; };
  std::deque<EdgeId> evict_queue;
  for (EdgeId c : cands) {
    uint32_t s = 0;
    ForEachTriangleOnEdge(graph_, c, [&](VertexId, EdgeId f1, EdgeId f2) {
      ++last_stats_.triangles_scanned;
      if (qual(f1) && qual(f2)) ++s;
    });
    cand_support_[c] = s;
    if (s < k + 1) evict_queue.push_back(c);
  }
  while (!evict_queue.empty()) {
    EdgeId c = evict_queue.front();
    evict_queue.pop_front();
    if (flag_[c] != 1) continue;
    if (cand_support_[c] >= k + 1) continue;
    flag_[c] = 2;
    ForEachTriangleOnEdge(graph_, c, [&](VertexId, EdgeId f1, EdgeId f2) {
      ++last_stats_.triangles_scanned;
      auto drop = [&](EdgeId cand, EdgeId other) {
        if (flag_[cand] != 1) return;
        if (!(kappa_[other] > k || flag_[other] == 1)) return;
        if (--cand_support_[cand] < k + 1) evict_queue.push_back(cand);
      };
      drop(f1, f2);
      drop(f2, f1);
    });
  }
  for (EdgeId c : cands) {
    if (flag_[c] == 1) promotions->push_back(c);
    flag_[c] = 0;
    cand_support_[c] = 0;
  }
}

BatchStats DynamicTriangleCore::ApplyBatch(
    std::span<const EdgeEvent> events) {
  TKC_SPAN("dyn.apply_batch");
  Timer latency;
  BatchStats batch;
  batch.events = events.size();
  last_stats_ = UpdateStats{};
  in_batch_ = true;

  // --- Coalesce to the net effect per endpoint pair. κ is a function of
  // the final graph alone, so replaying only net changes yields the same
  // decomposition as replaying every event. Within each pair the events
  // are walked in stream order against the pre-batch existence, so
  // insert/delete pairs cancel exactly.
  struct Keyed {
    VertexId u, v;
    uint32_t seq;
    EdgeEvent::Kind kind;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(events.size());
  for (uint32_t i = 0; i < events.size(); ++i) {
    const EdgeEvent& ev = events[i];
    TKC_CHECK_MSG(ev.u != ev.v, "ApplyBatch: self-loop event");
    keyed.push_back(
        Keyed{std::min(ev.u, ev.v), std::max(ev.u, ev.v), i, ev.kind});
  }
  std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    if (a.u != b.u) return a.u < b.u;
    if (a.v != b.v) return a.v < b.v;
    return a.seq < b.seq;
  });
  std::vector<Edge> net_inserts;
  std::vector<Edge> net_removes;
  for (size_t i = 0; i < keyed.size();) {
    size_t j = i;
    const bool exists0 = graph_.HasEdge(keyed[i].u, keyed[i].v);
    bool exists = exists0;
    while (j < keyed.size() && keyed[j].u == keyed[i].u &&
           keyed[j].v == keyed[i].v) {
      exists = keyed[j].kind == EdgeEvent::Kind::kInsert;
      ++j;
    }
    if (exists != exists0) {
      (exists ? net_inserts : net_removes)
          .push_back(Edge{keyed[i].u, keyed[i].v});
    }
    i = j;
  }
  batch.net_inserts = net_inserts.size();
  batch.net_removes = net_removes.size();
  batch.coalesced_events =
      batch.events - batch.net_inserts - batch.net_removes;

  // --- Removal phase: structurally remove every net-removed edge first,
  // seeding the partners of each destroyed triangle under the pre-batch κ
  // values (each destroyed triangle is enumerated exactly once, at the
  // first of its edges to be removed), then run ONE demotion pump over the
  // fully mutated graph. The pump recomputes h(f) from the final
  // adjacency, so a single queue pass absorbs the combined effect of all
  // removals, and its decreasing iteration converges to the exact
  // decomposition of the intermediate graph.
  std::vector<EdgeId> queue;
  std::vector<std::pair<EdgeId, EdgeId>> destroyed;
  for (const Edge& r : net_removes) {
    const EdgeId e0 = graph_.FindEdge(r.u, r.v);
    TKC_CHECK(e0 != kInvalidEdge);
    const uint32_t k0 = kappa_[e0];
    destroyed.clear();
    ForEachTriangleOnEdge(graph_, e0, [&](VertexId, EdgeId e1, EdgeId e2) {
      ++last_stats_.triangles_scanned;
      destroyed.emplace_back(e1, e2);
    });
    graph_.RemoveEdgeById(e0);
    kappa_[e0] = 0;
    auto seed = [&](EdgeId f, EdgeId other) {
      if (kappa_[f] == 0 || queued_[f]) return;
      if (std::min(k0, kappa_[other]) >= kappa_[f]) {
        queued_[f] = 1;
        queue.push_back(f);
      }
    };
    for (const auto& [e1, e2] : destroyed) {
      seed(e1, e2);
      seed(e2, e1);
    }
  }
  PumpDemotions(queue);

  // --- Insert phase: structurally insert everything, bound each new edge
  // below by its insertion h-index (valid because the current κ array is
  // pointwise <= the final decomposition, and the edge set
  // {final κ >= h(e)} ∪ {e} supports e at level h(e)), then iterate
  // level-deduplicated multi-seed promotion sweeps until no edge moves.
  // Each sweep's promoted set seeds the next, so cascades that per-event
  // application would discover one insertion at a time are found in
  // κ-increment-bounded rounds.
  std::vector<EdgeId> fresh;
  fresh.reserve(net_inserts.size());
  for (const Edge& ins : net_inserts) {
    bool inserted = false;
    const EdgeId e0 = graph_.AddEdge(ins.u, ins.v, &inserted);
    TKC_CHECK(inserted);
    fresh.push_back(e0);
  }
  GrowArrays();
  for (EdgeId e0 : fresh) kappa_[e0] = InsertionBound(e0);

  std::vector<EdgeId> seeds = std::move(fresh);
  while (!seeds.empty()) {
    ++batch.sweeps;
    std::vector<uint32_t> levels;
    for (EdgeId s : seeds) {
      const uint32_t ks = kappa_[s];
      ForEachTriangleOnEdge(graph_, s, [&](VertexId, EdgeId f1, EdgeId f2) {
        ++last_stats_.triangles_scanned;
        const uint32_t m = std::min(kappa_[f1], kappa_[f2]);
        if (m <= ks) levels.push_back(m);
      });
      levels.push_back(ks);
    }
    std::sort(levels.begin(), levels.end());
    levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
    batch.levels += levels.size();

    for (EdgeId s : seeds) seed_flag_[s] = 1;
    std::vector<EdgeId> promotions;
    for (uint32_t k : levels) {
      ProcessBatchInsertLevel(seeds, k, &promotions);
    }
    for (EdgeId s : seeds) seed_flag_[s] = 0;
    for (EdgeId e : promotions) ++kappa_[e];
    last_stats_.promoted_edges += promotions.size();
    seeds = std::move(promotions);
  }

  in_batch_ = false;
  batch.work = last_stats_;
  total_stats_.candidate_edges += batch.work.candidate_edges;
  total_stats_.promoted_edges += batch.work.promoted_edges;
  total_stats_.demoted_edges += batch.work.demoted_edges;
  total_stats_.triangles_scanned += batch.work.triangles_scanned;
  RecordBatch(latency.Seconds(), batch);
  VerifyAfterUpdate("DynamicTriangleCore::ApplyBatch");
  return batch;
}

UpdateStats DynamicTriangleCore::ApplyEvents(
    const std::vector<EdgeEvent>& events) {
  TKC_SPAN("dyn.apply_events");
  UpdateStats batch;
  in_batch_ = true;
  for (const EdgeEvent& ev : events) {
    if (ev.kind == EdgeEvent::Kind::kInsert) {
      InsertEdge(ev.u, ev.v);
    } else {
      RemoveEdge(ev.u, ev.v);
    }
    batch.candidate_edges += last_stats_.candidate_edges;
    batch.promoted_edges += last_stats_.promoted_edges;
    batch.demoted_edges += last_stats_.demoted_edges;
    batch.triangles_scanned += last_stats_.triangles_scanned;
  }
  in_batch_ = false;
  VerifyAfterUpdate("DynamicTriangleCore::ApplyEvents");
  return batch;
}

size_t DynamicTriangleCore::RemoveVertexEdges(VertexId v) {
  if (v >= graph_.NumVertices()) return 0;
  std::vector<EdgeId> incident;
  for (const Neighbor& nb : graph_.Neighbors(v)) incident.push_back(nb.edge);
  in_batch_ = true;
  for (EdgeId e : incident) RemoveEdgeById(e);
  in_batch_ = false;
  if (!incident.empty()) {
    VerifyAfterUpdate("DynamicTriangleCore::RemoveVertexEdges");
  }
  return incident.size();
}

bool DynamicTriangleCore::RemoveEdge(VertexId u, VertexId v) {
  EdgeId e0 = graph_.FindEdge(u, v);
  if (e0 == kInvalidEdge) return false;
  RemoveEdgeInternal(e0);
  return true;
}

void DynamicTriangleCore::RemoveEdgeById(EdgeId e0) {
  TKC_CHECK(graph_.IsEdgeAlive(e0));
  RemoveEdgeInternal(e0);
}

void DynamicTriangleCore::RemoveEdgeInternal(EdgeId e0) {
  TKC_SPAN("dyn.remove");
  Timer latency;
  last_stats_ = UpdateStats{};
  const uint32_t k0 = kappa_[e0];

  // Partners of every destroyed triangle whose κ could drop (Rule 0: the
  // triangle supported f's level iff the other two edges both had κ >=
  // κ(f)).
  std::vector<std::pair<EdgeId, EdgeId>> destroyed;
  ForEachTriangleOnEdge(graph_, e0, [&](VertexId, EdgeId e1, EdgeId e2) {
    destroyed.emplace_back(e1, e2);
  });
  graph_.RemoveEdgeById(e0);
  kappa_[e0] = 0;

  std::vector<EdgeId> queue;
  auto seed = [&](EdgeId f, EdgeId other) {
    if (kappa_[f] == 0 || queued_[f]) return;
    if (std::min(k0, kappa_[other]) >= kappa_[f]) {
      queued_[f] = 1;
      queue.push_back(f);
    }
  };
  for (const auto& [e1, e2] : destroyed) {
    seed(e1, e2);
    seed(e2, e1);
  }
  PumpDemotions(queue);

  total_stats_.candidate_edges += last_stats_.candidate_edges;
  total_stats_.demoted_edges += last_stats_.demoted_edges;
  total_stats_.triangles_scanned += last_stats_.triangles_scanned;
  RecordUpdate(/*is_insert=*/false, latency.Seconds(), last_stats_);
  VerifyAfterUpdate("DynamicTriangleCore::RemoveEdge");
}

void DynamicTriangleCore::PumpDemotions(std::vector<EdgeId>& queue) {
  // Asynchronous decreasing iteration: κ(f) <- h(f) where h(f) is the
  // largest k such that f keeps >= k triangles with partner-min >= k.
  // Starting from valid upper bounds this converges exactly to the
  // decomposition (any fixpoint of h is dominated by the true κ, and the
  // iteration never undershoots it).
  size_t head = 0;
  while (head < queue.size()) {
    EdgeId f = queue[head++];
    queued_[f] = 0;
    if (!graph_.IsEdgeAlive(f)) continue;
    const uint32_t kf = kappa_[f];
    if (kf == 0) continue;
    ++last_stats_.candidate_edges;

    // Count triangles qualified at the current level; collect the partner
    // minima histogram (capped at kf) for the h recomputation.
    if (hist_.size() < static_cast<size_t>(kf) + 1) hist_.resize(kf + 1);
    std::fill(hist_.begin(), hist_.begin() + kf + 1, 0);
    ForEachTriangleOnEdge(graph_, f, [&](VertexId, EdgeId f1, EdgeId f2) {
      ++last_stats_.triangles_scanned;
      uint32_t m = std::min(kappa_[f1], kappa_[f2]);
      hist_[std::min(m, kf)]++;
    });
    uint32_t cum = 0;
    uint32_t h = 0;
    for (uint32_t k = kf; k > 0; --k) {
      cum += hist_[k];
      if (cum >= k) {
        h = k;
        break;
      }
    }
    if (h >= kf) continue;  // support intact, no change

    kappa_[f] = h;
    ++last_stats_.demoted_edges;
    // Theorem-1 neighbors whose qualified count may have used f at a level
    // f no longer reaches.
    ForEachTriangleOnEdge(graph_, f, [&](VertexId, EdgeId f1, EdgeId f2) {
      ++last_stats_.triangles_scanned;
      for (EdgeId p : {f1, f2}) {
        if (kappa_[p] > h && kappa_[p] <= kf && !queued_[p]) {
          queued_[p] = 1;
          queue.push_back(p);
        }
      }
    });
  }
}

}  // namespace tkc
