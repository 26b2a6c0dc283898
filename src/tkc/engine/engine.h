#ifndef TKC_ENGINE_ENGINE_H_
#define TKC_ENGINE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "tkc/core/analysis_context.h"
#include "tkc/core/dynamic_core.h"
#include "tkc/graph/delta_csr.h"
#include "tkc/graph/edge_event.h"
#include "tkc/graph/graph.h"
#include "tkc/util/thread_annotations.h"
#include "tkc/verify/report.h"

namespace tkc::engine {

/// Compaction and verification policy for TkcEngine.
struct EngineOptions {
  /// Compact once at least this many edits have accumulated AND the edit
  /// count exceeds `compaction_ratio` of the base's live edges. Zero means
  /// "any edit count" for that criterion.
  size_t compaction_min_edits = 4096;
  double compaction_ratio = 0.25;

  /// Run the independent κ-certificate (src/tkc/verify/) against the
  /// freshly frozen base at every compaction boundary, regardless of
  /// TKC_CHECK_LEVEL. Failures are recorded (see certificates_ok()), not
  /// fatal, so the CLI can turn them into exit code 3.
  bool verify_compactions = false;

  /// ResolveThreads convention for snapshot analytics (0 = process
  /// default).
  int threads = 0;
};

/// One immutable, zero-copy view of the engine's state at an epoch
/// boundary: the AnalysisContext shares the base CSR with the engine's
/// DeltaCsr (no arrays are copied), and the κ vector is shared between
/// every snapshot of the same epoch.
struct EngineSnapshot {
  uint64_t epoch = 0;
  std::shared_ptr<const AnalysisContext> context;
  std::shared_ptr<const std::vector<uint32_t>> kappa;
  uint32_t max_kappa = 0;
};

/// The serving layer: owns the versioned graph (DeltaCsr) plus the
/// incrementally maintained decomposition, ingests event batches, and
/// hands out frozen AnalysisContext snapshots at epoch boundaries so the
/// static read path (extraction, hierarchy, stats, plots) runs against the
/// live decomposition without rebuilding anything.
///
///   events ──ApplyBatch──▶ DeltaCsr overlay + κ maintenance
///                 │ (threshold)
///                 ▼
///             Compact()  ──▶ new base CSR, epoch++, optional certificate
///                 │
///                 ▼
///            Snapshot()  ──▶ shared AnalysisContext + κ (zero-copy)
///
/// Not thread-safe for concurrent mutation; snapshots, once taken, are
/// safe to read from any thread (AnalysisContext's contract).
class TkcEngine {
 public:
  /// Freezes `base` into epoch 0 and runs Algorithm 1 once to initialize
  /// the decomposition.
  explicit TkcEngine(const Graph& base, EngineOptions options = {});

  /// Adopts an already-frozen snapshot as epoch 0 — zero-copy, the
  /// `--graph-cache` serving path — and runs Algorithm 1 once. The
  /// snapshot must be unrelabeled (events arrive in original vertex ids).
  explicit TkcEngine(std::shared_ptr<const CsrGraph> base,
                     EngineOptions options = {});

  /// Applies one event batch through the amortized maintenance path and
  /// compacts afterwards if the accumulated edits cross the policy
  /// threshold.
  BatchStats ApplyBatch(std::span<const EdgeEvent> events)
      TKC_EXCLUDES(snapshot_mu_);

  /// Forces a compaction (freeze overlays into a new base, bump epoch).
  /// Returns false (and does nothing) if the view is already clean.
  bool Compact() TKC_EXCLUDES(snapshot_mu_);

  /// Returns the zero-copy snapshot of the current state, compacting
  /// first if edits are pending (a snapshot is always at an epoch
  /// boundary). Snapshots of the same epoch share one cached
  /// AnalysisContext and κ vector — repeated calls between edits cost
  /// nothing and keep lazily computed supports/triangles warm.
  EngineSnapshot Snapshot() TKC_EXCLUDES(snapshot_mu_);

  const DeltaCsr& graph() const { return dyn_.graph(); }
  const std::vector<uint32_t>& kappa() const { return dyn_.kappa(); }
  uint64_t epoch() const { return dyn_.graph().epoch(); }
  const UpdateStats& total_stats() const { return dyn_.total_stats(); }
  const BatchStats& last_batch_stats() const { return last_batch_; }
  size_t compactions() const { return compactions_; }

  /// False iff any compaction-boundary κ-certificate failed (only ever
  /// false when EngineOptions::verify_compactions is set or
  /// TKC_CHECK_LEVEL >= 2 aborts first). The last failing report is kept
  /// for diagnostics.
  bool certificates_ok() const { return certificates_ok_; }
  const verify::VerifyReport& last_certificate() const {
    return last_certificate_;
  }

 private:
  bool ShouldCompact() const;
  void CompactNow() TKC_EXCLUDES(snapshot_mu_);

  // Mutation state: dyn_ (the DeltaCsr overlay plus the maintained κ) and
  // everything below it is single-writer by contract — ApplyBatch /
  // Compact / Snapshot must come from one thread (or be externally
  // synchronized). The epoch counter lives in DeltaCsr and is published to
  // snapshot readers through the shared_ptr handoff, not through a lock.
  EngineOptions options_;
  DynamicTriangleCore dyn_;
  BatchStats last_batch_;
  size_t compactions_ = 0;

  // Per-epoch snapshot cache (invalidated by compaction). Snapshots are
  // handed to arbitrary reader threads, so the cache itself is
  // lock-protected: concurrent Snapshot() calls on a clean engine are safe
  // and share one context, and the compiler holds every access to the
  // MutexLock discipline.
  mutable Mutex snapshot_mu_;
  std::shared_ptr<const AnalysisContext> cached_context_
      TKC_GUARDED_BY(snapshot_mu_);
  std::shared_ptr<const std::vector<uint32_t>> cached_kappa_
      TKC_GUARDED_BY(snapshot_mu_);
  uint32_t cached_max_kappa_ TKC_GUARDED_BY(snapshot_mu_) = 0;
  uint64_t cached_epoch_ TKC_GUARDED_BY(snapshot_mu_) = 0;
  bool cache_valid_ TKC_GUARDED_BY(snapshot_mu_) = false;

  bool certificates_ok_ = true;
  verify::VerifyReport last_certificate_;
};

}  // namespace tkc::engine

#endif  // TKC_ENGINE_ENGINE_H_
