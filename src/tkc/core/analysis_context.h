#ifndef TKC_CORE_ANALYSIS_CONTEXT_H_
#define TKC_CORE_ANALYSIS_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "tkc/graph/csr.h"
#include "tkc/graph/graph.h"
#include "tkc/graph/triangle.h"
#include "tkc/util/thread_annotations.h"

namespace tkc {

/// The unified read path for every static analysis: a frozen CsrGraph
/// snapshot plus the derived data the algorithms share — the per-edge
/// triangle-support array and (on demand) the materialized triangle list.
/// Both are computed lazily, at most once per context, by the parallel
/// support kernel; the `analysis.support_computations` /
/// `analysis.triangle_materializations` counters make "computed once"
/// checkable in tests.
///
/// EdgeIds are inherited from the source Graph unchanged, so κ/order/support
/// arrays produced against a context index the Graph's edges directly.
///
/// Thread-safe for concurrent readers (lazy initialization is locked); the
/// snapshot itself is immutable.
class AnalysisContext {
 public:
  /// Freezes `g`. `threads` follows the ResolveThreads convention
  /// (0 = process default from SetDefaultThreads/--threads, 1 = serial);
  /// every derived result is identical for every thread count.
  explicit AnalysisContext(const Graph& g, int threads = 0);

  /// Adopts an existing snapshot.
  explicit AnalysisContext(CsrGraph csr, int threads = 0);

  /// Shares an existing snapshot without copying it — the zero-copy
  /// handoff the versioned engine uses: the engine's DeltaCsr base and
  /// every AnalysisContext of that epoch point at the same CSR arrays.
  explicit AnalysisContext(std::shared_ptr<const CsrGraph> csr,
                           int threads = 0);

  const CsrGraph& csr() const { return *csr_; }

  /// The underlying shared snapshot (always non-null).
  const std::shared_ptr<const CsrGraph>& csr_ptr() const { return csr_; }

  int threads() const { return threads_; }

  /// Per-edge triangle supports, indexed by EdgeId (dead ids hold 0).
  /// Computed on first use by the shared parallel kernel, then cached.
  const std::vector<uint32_t>& Supports() const;

  /// All triangles, in ForEachTriangle order. Materialized on first use.
  const std::vector<Triangle>& Triangles() const;

  /// Total triangle count (= sum of supports / 3); forces Supports().
  uint64_t TriangleCount() const;

  /// Largest per-edge support (0 on triangle-free graphs); forces
  /// Supports().
  uint32_t MaxSupport() const;

 private:
  std::shared_ptr<const CsrGraph> csr_;
  int threads_;
  // Lazy caches: filled at most once, under mu_. The references Supports()
  // and Triangles() return outlive the critical section on purpose — once
  // a cache is filled it is never mutated again, so post-initialization
  // readers need no lock (the fill happens-before the return that handed
  // them the reference).
  mutable Mutex mu_;
  mutable std::optional<std::vector<uint32_t>> supports_ TKC_GUARDED_BY(mu_);
  mutable std::optional<std::vector<Triangle>> triangles_ TKC_GUARDED_BY(mu_);
  mutable uint64_t triangle_count_ TKC_GUARDED_BY(mu_) = 0;
  mutable uint32_t max_support_ TKC_GUARDED_BY(mu_) = 0;
};

}  // namespace tkc

#endif  // TKC_CORE_ANALYSIS_CONTEXT_H_
