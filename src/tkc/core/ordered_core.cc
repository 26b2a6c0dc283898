#include "tkc/core/ordered_core.h"

#include <algorithm>
#include <deque>

#include "tkc/core/core_extraction.h"
#include "tkc/graph/triangle.h"
#include "tkc/util/check.h"

#if TKC_CHECK_LEVEL >= 2
#include "tkc/verify/certificate.h"
#endif

namespace tkc {

OrderedDynamicCore::OrderedDynamicCore(Graph graph)
    : graph_(std::move(graph)) {
  const CsrGraph frozen(graph_);
  TriangleCoreResult initial = ComputeTriangleCores(frozen);
  kappa_ = initial.kappa;
  core_apex_.resize(graph_.EdgeCapacity());
  // Initial bookkeeping from Rule 1: the κ(e) triangles processed last.
  graph_.ForEachEdge([&](EdgeId e, const Edge&) {
    for (const CoreTriangle& t : CoreTrianglesOf(frozen, initial, e)) {
      core_apex_[e].push_back(t.apex);
    }
    std::sort(core_apex_[e].begin(), core_apex_[e].end());
  });
  GrowArrays();
}

void OrderedDynamicCore::GrowArrays() {
  const size_t cap = graph_.EdgeCapacity();
  if (kappa_.size() < cap) kappa_.resize(cap, 0);
  if (core_apex_.size() < cap) core_apex_.resize(cap);
  if (flag_.size() < cap) flag_.resize(cap, 0);
  if (cand_support_.size() < cap) cand_support_.resize(cap, 0);
  if (queued_.size() < cap) queued_.resize(cap, 0);
}

bool OrderedDynamicCore::IsInCore(EdgeId e, VertexId apex) const {
  const auto& booked = core_apex_[e];
  return std::binary_search(booked.begin(), booked.end(), apex);
}

void OrderedDynamicCore::RepairCore(EdgeId e) {
  if (!graph_.IsEdgeAlive(e)) {
    core_apex_[e].clear();
    return;
  }
  const uint32_t k = kappa_[e];
  // Rank qualifying triangles: keep already-booked ones first (minimal
  // churn — DelFromCore only removes what Theorem 1 forces out), then by
  // partner strength.
  struct Candidate {
    bool was_booked;
    uint32_t partner_min;
    VertexId apex;
  };
  std::vector<Candidate> qualifying;
  ForEachTriangleOnEdge(graph_, e, [&](VertexId w, EdgeId e1, EdgeId e2) {
    uint32_t m = std::min(kappa_[e1], kappa_[e2]);
    if (m >= k) qualifying.push_back({IsInCore(e, w), m, w});
  });
  TKC_CHECK_MSG(qualifying.size() >= k,
                "Theorem 1 violated: not enough supporting triangles");
  std::sort(qualifying.begin(), qualifying.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.was_booked != b.was_booked) return a.was_booked;
              if (a.partner_min != b.partner_min) {
                return a.partner_min > b.partner_min;
              }
              return a.apex < b.apex;
            });
  core_apex_[e].clear();
  for (uint32_t i = 0; i < k; ++i) {
    core_apex_[e].push_back(qualifying[i].apex);
  }
  std::sort(core_apex_[e].begin(), core_apex_[e].end());
}

EdgeId OrderedDynamicCore::InsertEdge(VertexId u, VertexId v) {
  bool inserted = false;
  EdgeId e0 = graph_.AddEdge(u, v, &inserted);
  if (!inserted) return e0;
  GrowArrays();
  kappa_[e0] = 0;
  core_apex_[e0].clear();

  // Algorithm 2, step 1: process each newly created triangle in turn. The
  // new edge climbs one level per processed triangle at most, exactly as
  // in the paper's Figure 3 walkthrough.
  std::vector<std::pair<EdgeId, EdgeId>> new_triangles;
  ForEachTriangleOnEdge(graph_, e0, [&](VertexId, EdgeId e1, EdgeId e2) {
    new_triangles.emplace_back(e1, e2);
  });
  for (const auto& [e1, e2] : new_triangles) {
    ProcessAddedTriangle(e0, e1, e2);
  }
  // A triangle-free insertion still needs consistent (empty) bookkeeping.
  if (new_triangles.empty()) core_apex_[e0].clear();
  VerifyAfterUpdate("OrderedDynamicCore::InsertEdge");
  return e0;
}

void OrderedDynamicCore::VerifyAfterUpdate(const char* where) {
#if TKC_CHECK_LEVEL >= 2
  if (in_batch_) return;
  TKC_CHECK_MSG(CheckInvariants(), where);
  verify::CheckOrDie(verify::CheckKappaCertificate(CsrGraph(graph_), kappa_),
                     where);
#else
  (void)where;
#endif
}

void OrderedDynamicCore::ProcessAddedTriangle(EdgeId a, EdgeId b, EdgeId c) {
  const uint32_t mu = std::min({kappa_[a], kappa_[b], kappa_[c]});

  // Rule 0: candidates are the κ == μ edges triangle-connected to the new
  // triangle's μ-edges through triangles whose partners stay at κ >= μ.
  std::vector<EdgeId> cands;
  std::deque<EdgeId> frontier;
  auto consider = [&](EdgeId f) {
    if (kappa_[f] == mu && flag_[f] == 0) {
      flag_[f] = 1;
      cands.push_back(f);
      frontier.push_back(f);
    }
  };
  consider(a);
  consider(b);
  consider(c);
  while (!frontier.empty()) {
    EdgeId e = frontier.front();
    frontier.pop_front();
    ForEachTriangleOnEdge(graph_, e, [&](VertexId, EdgeId f1, EdgeId f2) {
      if (kappa_[f1] < mu || kappa_[f2] < mu) return;
      consider(f1);
      consider(f2);
    });
  }

  // Single-level repeel: promotion to μ+1 needs μ+1 triangles whose
  // partners either already sit above μ or are surviving candidates.
  auto qual = [&](EdgeId f) { return kappa_[f] > mu || flag_[f] == 1; };
  std::deque<EdgeId> evict_queue;
  for (EdgeId e : cands) {
    uint32_t s = 0;
    ForEachTriangleOnEdge(graph_, e, [&](VertexId, EdgeId f1, EdgeId f2) {
      if (qual(f1) && qual(f2)) ++s;
    });
    cand_support_[e] = s;
    if (s < mu + 1) evict_queue.push_back(e);
  }
  while (!evict_queue.empty()) {
    EdgeId e = evict_queue.front();
    evict_queue.pop_front();
    if (flag_[e] != 1) continue;
    flag_[e] = 2;
    ForEachTriangleOnEdge(graph_, e, [&](VertexId, EdgeId f1, EdgeId f2) {
      auto drop = [&](EdgeId cand, EdgeId other) {
        if (flag_[cand] != 1) return;
        if (!(kappa_[other] > mu || flag_[other] == 1)) return;
        if (--cand_support_[cand] < mu + 1) evict_queue.push_back(cand);
      };
      drop(f1, f2);
      drop(f2, f1);
    });
  }
  std::vector<EdgeId> survivors;
  for (EdgeId e : cands) {
    if (flag_[e] == 1) survivors.push_back(e);
    flag_[e] = 0;
    cand_support_[e] = 0;
  }
  for (EdgeId e : survivors) ++kappa_[e];
  // AddToCore repair: promoted edges need μ+1 booked triangles at the new
  // level (the peel just certified they exist).
  for (EdgeId e : survivors) RepairCore(e);
}

bool OrderedDynamicCore::RemoveEdge(VertexId u, VertexId v) {
  EdgeId e0 = graph_.FindEdge(u, v);
  if (e0 == kInvalidEdge) return false;
  RemoveEdgeById(e0);
  return true;
}

void OrderedDynamicCore::RemoveEdgeById(EdgeId e0) {
  TKC_CHECK(graph_.IsEdgeAlive(e0));
  const uint32_t k0 = kappa_[e0];
  std::vector<std::pair<EdgeId, EdgeId>> destroyed;
  ForEachTriangleOnEdge(graph_, e0, [&](VertexId, EdgeId e1, EdgeId e2) {
    destroyed.emplace_back(e1, e2);
  });
  graph_.RemoveEdgeById(e0);
  kappa_[e0] = 0;
  core_apex_[e0].clear();

  touched_.clear();
  std::vector<EdgeId> queue;
  auto seed = [&](EdgeId f, EdgeId other) {
    // DelFromCore side: f may have booked the destroyed triangle whenever
    // its partners reached f's level.
    if (std::min(k0, kappa_[other]) >= kappa_[f]) touched_.push_back(f);
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

  std::sort(touched_.begin(), touched_.end());
  touched_.erase(std::unique(touched_.begin(), touched_.end()),
                 touched_.end());
  for (EdgeId e : touched_) RepairCore(e);
  VerifyAfterUpdate("OrderedDynamicCore::RemoveEdgeById");
}

void OrderedDynamicCore::PumpDemotions(std::vector<EdgeId>& queue) {
  size_t head = 0;
  while (head < queue.size()) {
    EdgeId f = queue[head++];
    queued_[f] = 0;
    if (!graph_.IsEdgeAlive(f)) continue;
    const uint32_t kf = kappa_[f];
    if (kf == 0) continue;
    std::vector<uint32_t> hist(kf + 1, 0);
    ForEachTriangleOnEdge(graph_, f, [&](VertexId, EdgeId f1, EdgeId f2) {
      uint32_t m = std::min(kappa_[f1], kappa_[f2]);
      hist[std::min(m, kf)]++;
    });
    uint32_t cum = 0;
    uint32_t h = 0;
    for (uint32_t k = kf; k > 0; --k) {
      cum += hist[k];
      if (cum >= k) {
        h = k;
        break;
      }
    }
    if (h >= kf) continue;
    kappa_[f] = h;
    touched_.push_back(f);
    ForEachTriangleOnEdge(graph_, f, [&](VertexId, EdgeId f1, EdgeId f2) {
      for (EdgeId p : {f1, f2}) {
        if (kappa_[p] > h && kappa_[p] <= kf) {
          // p's booked set may have leaned on f.
          touched_.push_back(p);
          if (!queued_[p]) {
            queued_[p] = 1;
            queue.push_back(p);
          }
        }
      }
    });
  }
}

void OrderedDynamicCore::ApplyEvents(const std::vector<EdgeEvent>& events) {
  in_batch_ = true;
  for (const EdgeEvent& ev : events) {
    if (ev.kind == EdgeEvent::Kind::kInsert) {
      InsertEdge(ev.u, ev.v);
    } else {
      RemoveEdge(ev.u, ev.v);
    }
  }
  in_batch_ = false;
  VerifyAfterUpdate("OrderedDynamicCore::ApplyEvents");
}

bool OrderedDynamicCore::CheckInvariants() const {
  bool ok = true;
  graph_.ForEachEdge([&](EdgeId e, const Edge& edge) {
    const auto& booked = core_apex_[e];
    if (booked.size() != kappa_[e]) ok = false;
    if (!std::is_sorted(booked.begin(), booked.end())) ok = false;
    if (std::adjacent_find(booked.begin(), booked.end()) != booked.end()) {
      ok = false;
    }
    for (VertexId w : booked) {
      EdgeId e1 = graph_.FindEdge(edge.u, w);
      EdgeId e2 = graph_.FindEdge(edge.v, w);
      if (e1 == kInvalidEdge || e2 == kInvalidEdge) {
        ok = false;
        continue;
      }
      // Theorem 1 on the booked core.
      if (kappa_[e1] < kappa_[e] || kappa_[e2] < kappa_[e]) ok = false;
    }
  });
  return ok;
}

}  // namespace tkc
