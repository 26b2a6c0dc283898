#ifndef TKC_CORE_DYNAMIC_CORE_H_
#define TKC_CORE_DYNAMIC_CORE_H_

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "tkc/core/triangle_core.h"
#include "tkc/graph/delta_csr.h"
#include "tkc/graph/edge_event.h"

namespace tkc {

/// Counters describing the work done by the last insert/remove call; the
/// Table III benchmark reports these alongside the timings to show why the
/// incremental algorithm beats re-computation (it touches a tiny,
/// κ-bounded neighborhood — Rule 0 — instead of every edge).
struct UpdateStats {
  uint64_t candidate_edges = 0;   // edges examined as potential changers
  uint64_t promoted_edges = 0;    // κ increased by 1
  uint64_t demoted_edges = 0;     // κ decreased
  uint64_t triangles_scanned = 0; // triangle visits during the update

  /// "candidates=N promoted=N demoted=N triangles_scanned=N".
  std::string ToString() const;
};

std::ostream& operator<<(std::ostream& os, const UpdateStats& stats);

/// Outcome of one ApplyBatch call: the shared work counters plus the
/// batch-shape numbers (how much the coalescer elided, how many region
/// searches actually ran) that make the amortization measurable.
struct BatchStats {
  UpdateStats work;
  uint64_t events = 0;            // events handed in
  uint64_t coalesced_events = 0;  // elided by net-effect coalescing
  uint64_t net_inserts = 0;       // structural inserts applied
  uint64_t net_removes = 0;       // structural removals applied
  uint64_t levels = 0;            // deduplicated insert levels processed
  uint64_t sweeps = 0;            // promotion sweeps until fixpoint

  /// "events=N coalesced=N inserts=N removes=N levels=N sweeps=N" + work.
  std::string ToString() const;
};

std::ostream& operator<<(std::ostream& os, const BatchStats& stats);

/// Incrementally maintained Triangle K-Core decomposition (the paper's
/// Algorithm 2, with the appendix's Algorithms 5-7 realized as a local
/// affected-region search + repeel) over the engine's `DeltaCsr` overlay
/// view: a frozen CSR base plus copy-on-write edits. Build it from a
/// `Graph` with `DynamicTriangleCore{DeltaCsr(g)}`; EdgeIds are the
/// Graph's, and every insert allocates a fresh id.
///
/// Semantics maintained as an invariant after every call: `kappa()[e]`
/// equals the κ(e) that `ComputeTriangleCores(graph())` would produce — the
/// maximum Triangle K-Core number of every live edge.
///
/// Update strategy (per inserted edge e0 = (u,v)):
///   1. k1 = max k such that e0 lies in >= k triangles whose other two
///      edges have κ >= k (an h-index over partner minima). Then
///      κ(e0) ∈ {k1, k1+1} and every other edge changes by at most one,
///      and only edges with κ <= k1 can change (the paper's Rule 0 /
///      Lemmas 1-2).
///   2. For each level k <= k1, grow the Rule-0 affected region: edges with
///      κ == k triangle-connected to e0 through triangles whose other
///      edges have κ >= k.
///   3. Peel the region: a candidate survives (κ += 1) iff it keeps >= k+1
///      triangles whose partners have κ > k or are surviving candidates —
///      a cascading eviction identical in spirit to Algorithm 1 restricted
///      to the region.
/// Per removed edge: partners of each destroyed triangle seed a cascading
/// "support re-check" queue; an edge whose remaining Theorem-1-qualified
/// support drops below κ(e) is demoted to its local h-value and its
/// triangle neighbors re-checked. This decreasing iteration provably
/// converges to the exact decomposition from any valid upper bound.
///
/// `ApplyBatch` amortizes the same machinery over an event batch: events
/// are coalesced to their net effect per edge, all net removals share one
/// demotion pump over the fully mutated graph, and all net insertions
/// share level-deduplicated region searches iterated to fixpoint. κ is a
/// function of the final graph alone, so the result is identical to
/// per-event application at any batch size.
class DynamicTriangleCore {
 public:
  /// Takes ownership of `graph` and runs Algorithm 1 once to initialize κ.
  explicit DynamicTriangleCore(DeltaCsr graph);

  /// Starts from an already-computed decomposition (must match `graph`).
  DynamicTriangleCore(DeltaCsr graph, const TriangleCoreResult& initial);

  const DeltaCsr& graph() const { return graph_; }

  /// Maintenance-only escape hatch for the owning engine (compaction needs
  /// to mutate the substrate without touching κ). Callers must preserve
  /// the topology–κ invariant.
  DeltaCsr& MutableGraphForMaintenance() { return graph_; }

  /// κ per EdgeId; sized graph().EdgeCapacity(); dead ids hold 0.
  const std::vector<uint32_t>& kappa() const { return kappa_; }

  uint32_t KappaOf(EdgeId e) const { return kappa_[e]; }

  /// Inserts {u,v} and restores the invariant. Returns the edge id (the
  /// existing id if the edge was already present — a no-op update).
  EdgeId InsertEdge(VertexId u, VertexId v);

  /// Removes {u,v} and restores the invariant. Returns false if absent.
  bool RemoveEdge(VertexId u, VertexId v);

  /// Removes a live edge by id and restores the invariant.
  void RemoveEdgeById(EdgeId e);

  /// Applies a mixed event stream in order (each event through the
  /// single-edge path, as the paper processes changes triangle-by-
  /// triangle). Returns the aggregate work counters for the batch.
  UpdateStats ApplyEvents(const std::vector<EdgeEvent>& events);

  /// Applies an event batch through the amortized path (see class
  /// comment): coalesce → shared removal pump → shared insert sweeps.
  /// Self-loop events are rejected with a check failure (the hardened io
  /// parser filters them before they get here). The resulting κ(e) per
  /// live edge equals per-event application; note that when coalescing
  /// elides a remove+reinsert pair the *id* of that edge keeps its old
  /// value instead of being reallocated.
  BatchStats ApplyBatch(std::span<const EdgeEvent> events);

  /// Removes every edge incident to `v` (the paper's dynamic model treats
  /// vertex departure as the deletion of its edges). Returns the number of
  /// edges removed.
  size_t RemoveVertexEdges(VertexId v);

  /// Work counters for the most recent insert/remove/batch.
  const UpdateStats& last_update_stats() const { return last_stats_; }

  /// Cumulative counters since construction.
  const UpdateStats& total_stats() const { return total_stats_; }

 private:
  void GrowArrays();
  // Computes the h-bound k1 for freshly inserted edge e0.
  uint32_t InsertionBound(EdgeId e0) const;
  // Rule-0 region growth + repeel for a single level; appends survivors.
  void ProcessInsertLevel(EdgeId e0, uint32_t k,
                          std::vector<EdgeId>* promotions);
  // Multi-seed variant for ApplyBatch: one region growth + repeel per
  // level shared by every seed (seed_flag_ marks the by-fiat members).
  void ProcessBatchInsertLevel(const std::vector<EdgeId>& seeds, uint32_t k,
                               std::vector<EdgeId>* promotions);
  void RemoveEdgeInternal(EdgeId e0);
  // Cascading demotion queue pump; entries of `queued_` touched by `queue`
  // are reset before returning.
  void PumpDemotions(std::vector<EdgeId>& queue);
  // TKC_CHECK_LEVEL >= 2 oracle: certifies kappa_ against the independent
  // recount after a mutation; suppressed mid-batch so ApplyEvents /
  // RemoveVertexEdges pay for one certificate per batch, not per event.
  void VerifyAfterUpdate(const char* where);

  DeltaCsr graph_;
  std::vector<uint32_t> kappa_;
  bool in_batch_ = false;
  // Scratch (lazily grown to EdgeCapacity, cleaned after every update):
  // 0 = untouched, 1 = live candidate, 2 = evicted candidate.
  std::vector<uint8_t> flag_;
  std::vector<uint32_t> cand_support_;
  std::vector<uint8_t> queued_;
  std::vector<uint8_t> seed_flag_;  // batch sweep seeds (already expanded)
  std::vector<uint32_t> hist_;      // partner-min histogram scratch
  UpdateStats last_stats_;
  UpdateStats total_stats_;
};

}  // namespace tkc

#endif  // TKC_CORE_DYNAMIC_CORE_H_
