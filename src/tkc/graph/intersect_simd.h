#ifndef TKC_GRAPH_INTERSECT_SIMD_H_
#define TKC_GRAPH_INTERSECT_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "tkc/graph/graph.h"
#include "tkc/graph/intersect.h"

#if defined(__x86_64__) || defined(_M_X64)
#define TKC_SIMD_X86 1
#include <immintrin.h>
#endif

namespace tkc {

/// Which sorted-set intersection kernel the triangle/support hot path runs.
/// All kernels produce bit-identical results — the same (w, ea, eb) triples
/// in the same ascending-w order for the emit variants, the same totals for
/// the count variants — so the choice is purely a throughput knob:
///
///  * kScalar — the merge/gallop hybrid in intersect.h (the baseline).
///  * kSse    — 4-lane block intersection (SSE shuffles + cyclic rotations).
///  * kAvx2   — 8-lane block intersection (AVX2 lane permutes).
///  * kBitmap — vertex-centric hub path for the support pass: high out-degree
///    vertices stamp their out-list into a bitmap once and probe neighbors'
///    out-lists against it; per-edge queries fall back to the best SIMD tier.
///  * kAuto   — resolve to the widest ISA the CPU reports at runtime.
///
/// The enum ordinals are stable: they are what the `triangle.kernel` gauge
/// reports in metrics artifacts.
enum class IntersectKernel : int {
  kScalar = 0,
  kSse = 1,
  kAvx2 = 2,
  kBitmap = 3,
  kAuto = 4,
};

/// Stable lowercase name ("scalar", "sse", "avx2", "bitmap", "auto") — the
/// spelling --kernel= accepts and artifacts report.
const char* KernelName(IntersectKernel kernel);

/// Parses a --kernel= spelling; returns false (out untouched) on an
/// unknown name.
bool ParseKernel(std::string_view name, IntersectKernel* out);

/// Whether the running CPU supports the ISA a kernel needs. kScalar,
/// kBitmap, and kAuto are always supported (kBitmap's probe loop is plain
/// integer code; its per-edge fallback re-resolves).
bool KernelIsaSupported(IntersectKernel kernel);

/// Collapses a requested kernel to the one that will actually run: kAuto
/// picks the widest supported ISA (avx2 > sse > scalar); a kernel whose ISA
/// the CPU lacks falls back to kScalar; everything else is returned as-is.
/// The result is never kAuto and never an unsupported ISA.
IntersectKernel ResolveKernel(IntersectKernel kernel);

/// Process-wide default kernel used when a caller passes kAuto. Starts at
/// kAuto (= best supported ISA); the CLI/bench --kernel= flag sets it.
/// Setting it also updates the `triangle.kernel` gauge in the global
/// metrics registry with the *resolved* ordinal. Mirrors the
/// DefaultThreads/SetDefaultThreads convention in util/parallel.h.
IntersectKernel DefaultKernel();
void SetDefaultKernel(IntersectKernel kernel);

/// The kernel a kAuto caller runs right now: ResolveKernel(DefaultKernel()).
IntersectKernel CurrentKernel();

/// Out-degree at which the bitmap kernel stamps a vertex's out-list into
/// the bitmap instead of intersecting per edge: below this, building and
/// clearing the stamp costs more than the merges it replaces (tuned against
/// `triangle.bitmap_probes`; see docs/performance.md).
inline constexpr uint32_t kBitmapHubCutoff = 32;

/// Scratch bitmap + vertex→edge map over the vertex id space, reused across
/// hub vertices by the bitmap support kernel. One instance per worker.
class VertexBitmap {
 public:
  explicit VertexBitmap(VertexId num_vertices)
      : words_((static_cast<size_t>(num_vertices) + 63) / 64, 0),
        edge_of_(num_vertices, kInvalidEdge) {}

  void Set(VertexId v, EdgeId e) {
    words_[v >> 6] |= uint64_t{1} << (v & 63);
    edge_of_[v] = e;
  }
  bool Test(VertexId v) const {
    return (words_[v >> 6] >> (v & 63)) & 1;
  }
  /// Id of the edge whose Set() stamped `v` (valid only while Test(v)).
  EdgeId EdgeOf(VertexId v) const { return edge_of_[v]; }
  void Clear(VertexId v) {
    words_[v >> 6] &= ~(uint64_t{1} << (v & 63));
  }

 private:
  std::vector<uint64_t> words_;
  std::vector<EdgeId> edge_of_;
};

namespace detail {

// Scalar two-pointer merge over [ab, ae) × [bb, be), counting iterations
// into `stats.merge_steps` — the tail loop every SIMD kernel shares, and
// the window loop they drop into when a block-compare reports matches.
template <typename Fn>
inline void MergeRange(const Neighbor* ab, const Neighbor* ae,
                       const Neighbor* bb, const Neighbor* be,
                       uint64_t& merge_steps, Fn&& fn) {
  while (ab != ae && bb != be) {
    ++merge_steps;
    if (ab->vertex < bb->vertex) {
      ++ab;
    } else if (ab->vertex > bb->vertex) {
      ++bb;
    } else {
      fn(ab->vertex, ab->edge, bb->edge);
      ++ab;
      ++bb;
    }
  }
}

#if defined(TKC_SIMD_X86)

// The adjacency entry is AoS: {u32 vertex, u32 edge}. One _mm_shuffle_ps
// with mask (2,0,2,0) gathers the 4 vertex fields of 4 consecutive entries
// into one vector, in order. (The AVX2 variant below gathers 8, in a fixed
// cross-lane permutation — harmless, because the all-pairs rotations cover
// every lane pairing regardless of lane order.)
__attribute__((target("sse4.2,popcnt"))) inline __m128i
LoadVertices4(const Neighbor* p) {
  const __m128i lo =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  const __m128i hi =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 2));
  return _mm_castps_si128(_mm_shuffle_ps(
      _mm_castsi128_ps(lo), _mm_castsi128_ps(hi), _MM_SHUFFLE(2, 0, 2, 0)));
}

// All-pairs 4×4 equality via the three cyclic rotations of the b block:
// bit i of the returned mask is set iff a-lane i matched some b-lane.
// Values within a block are distinct (sorted unique adjacency), so each
// a-lane matches at most one b-lane and popcount(mask) is the exact number
// of common values in the two blocks.
__attribute__((target("sse4.2,popcnt"))) inline int
BlockMask4(__m128i va, __m128i vb) {
  __m128i m = _mm_cmpeq_epi32(va, vb);
  m = _mm_or_si128(m, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0x39)));
  m = _mm_or_si128(m, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0x4E)));
  m = _mm_or_si128(m, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0x93)));
  return _mm_movemask_ps(_mm_castsi128_ps(m));
}

// Block-wise sorted intersection, W = 4. Each iteration compares one
// 4-entry block of each list; on any match the (at most 4×4) window is
// re-walked by the scalar merge, which preserves the exact emission order
// and edge-id pairing of the baseline kernel. Advancing the block whose
// maximum is smaller (both on a tie) never skips a match: an element whose
// partner lies beyond the other block's window compares greater than that
// block's maximum, so only the partner's side advances.
template <typename Fn>
__attribute__((target("sse4.2,popcnt"))) void IntersectSseEmit(
    const Neighbor* ab, const Neighbor* ae, const Neighbor* bb,
    const Neighbor* be, IntersectStats& stats, Fn&& fn) {
  while (ae - ab >= 4 && be - bb >= 4) {
    stats.simd_lanes += 4;
    if (BlockMask4(LoadVertices4(ab), LoadVertices4(bb)) != 0) {
      MergeRange(ab, ab + 4, bb, bb + 4, stats.merge_steps, fn);
    }
    const VertexId amax = ab[3].vertex;
    const VertexId bmax = bb[3].vertex;
    if (amax <= bmax) ab += 4;
    if (bmax <= amax) bb += 4;
  }
  MergeRange(ab, ae, bb, be, stats.merge_steps, fn);
}

// Count-only twin: popcount of the block mask, no window re-walk.
__attribute__((target("sse4.2,popcnt"))) inline uint64_t IntersectSseCount(
    const Neighbor* ab, const Neighbor* ae, const Neighbor* bb,
    const Neighbor* be, IntersectStats& stats) {
  uint64_t n = 0;
  while (ae - ab >= 4 && be - bb >= 4) {
    stats.simd_lanes += 4;
    const int mask = BlockMask4(LoadVertices4(ab), LoadVertices4(bb));
    n += static_cast<uint64_t>(_mm_popcnt_u32(static_cast<unsigned>(mask)));
    const VertexId amax = ab[3].vertex;
    const VertexId bmax = bb[3].vertex;
    if (amax <= bmax) ab += 4;
    if (bmax <= amax) bb += 4;
  }
  MergeRange(ab, ae, bb, be, stats.merge_steps,
             [&](VertexId, EdgeId, EdgeId) { ++n; });
  return n;
}

__attribute__((target("avx2,popcnt"))) inline __m256i
LoadVertices8(const Neighbor* p) {
  const __m256i lo =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  const __m256i hi =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 4));
  // Per-128-bit-lane shuffle: lane order comes out permuted
  // (v0 v1 v4 v5 | v2 v3 v6 v7), which the rotation sweep below tolerates.
  return _mm256_castps_si256(
      _mm256_shuffle_ps(_mm256_castsi256_ps(lo), _mm256_castsi256_ps(hi),
                        _MM_SHUFFLE(2, 0, 2, 0)));
}

// All-pairs 8×8 equality: 8 cyclic cross-lane rotations of the b block
// cover all 64 lane pairings whatever the stored lane order is.
__attribute__((target("avx2,popcnt"))) inline int BlockMask8(__m256i va,
                                                             __m256i vb) {
  const __m256i step = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
  __m256i acc = _mm256_cmpeq_epi32(va, vb);
  __m256i rot = vb;
  for (int r = 1; r < 8; ++r) {
    rot = _mm256_permutevar8x32_epi32(rot, step);
    acc = _mm256_or_si256(acc, _mm256_cmpeq_epi32(va, rot));
  }
  return _mm256_movemask_ps(_mm256_castsi256_ps(acc));
}

template <typename Fn>
__attribute__((target("avx2,popcnt"))) void IntersectAvx2Emit(
    const Neighbor* ab, const Neighbor* ae, const Neighbor* bb,
    const Neighbor* be, IntersectStats& stats, Fn&& fn) {
  while (ae - ab >= 8 && be - bb >= 8) {
    stats.simd_lanes += 8;
    if (BlockMask8(LoadVertices8(ab), LoadVertices8(bb)) != 0) {
      MergeRange(ab, ab + 8, bb, bb + 8, stats.merge_steps, fn);
    }
    const VertexId amax = ab[7].vertex;
    const VertexId bmax = bb[7].vertex;
    if (amax <= bmax) ab += 8;
    if (bmax <= amax) bb += 8;
  }
  MergeRange(ab, ae, bb, be, stats.merge_steps, fn);
}

__attribute__((target("avx2,popcnt"))) inline uint64_t IntersectAvx2Count(
    const Neighbor* ab, const Neighbor* ae, const Neighbor* bb,
    const Neighbor* be, IntersectStats& stats) {
  uint64_t n = 0;
  while (ae - ab >= 8 && be - bb >= 8) {
    stats.simd_lanes += 8;
    const int mask = BlockMask8(LoadVertices8(ab), LoadVertices8(bb));
    n += static_cast<uint64_t>(_mm_popcnt_u32(static_cast<unsigned>(mask)));
    const VertexId amax = ab[7].vertex;
    const VertexId bmax = bb[7].vertex;
    if (amax <= bmax) ab += 8;
    if (bmax <= amax) bb += 8;
  }
  MergeRange(ab, ae, bb, be, stats.merge_steps,
             [&](VertexId, EdgeId, EdgeId) { ++n; });
  return n;
}

#endif  // TKC_SIMD_X86

}  // namespace detail

/// Dispatched intersection: same contract as IntersectSortedHybrid — invokes
/// `fn(w, ea, eb)` per common vertex in ascending-w order — through the
/// kernel `kernel` must already be resolved (never kAuto; call
/// ResolveKernel/CurrentKernel first, and hoist it out of hot loops).
/// Heavily skewed pairs take the galloping path regardless of kernel: block
/// compares walk the long list linearly, which is exactly the regime the
/// cutoff exists to avoid. kBitmap has no per-pair form and runs the widest
/// supported SIMD tier here.
template <typename Fn>
void IntersectDispatch(IntersectKernel kernel, const Neighbor* ab,
                       const Neighbor* ae, const Neighbor* bb,
                       const Neighbor* be, IntersectStats& stats, Fn&& fn) {
  const size_t la = static_cast<size_t>(ae - ab);
  const size_t lb = static_cast<size_t>(be - bb);
  if (la == 0 || lb == 0) return;
  if (la > lb * kGallopCutoffRatio || lb > la * kGallopCutoffRatio) {
    IntersectSortedHybrid(ab, ae, bb, be, stats, std::forward<Fn>(fn));
    return;
  }
#if defined(TKC_SIMD_X86)
  if (kernel == IntersectKernel::kBitmap) {
    kernel = ResolveKernel(IntersectKernel::kAuto);
  }
  switch (kernel) {
    case IntersectKernel::kAvx2:
      detail::IntersectAvx2Emit(ab, ae, bb, be, stats, std::forward<Fn>(fn));
      return;
    case IntersectKernel::kSse:
      detail::IntersectSseEmit(ab, ae, bb, be, stats, std::forward<Fn>(fn));
      return;
    default:
      break;
  }
#else
  (void)kernel;
#endif
  IntersectSortedHybrid(ab, ae, bb, be, stats, std::forward<Fn>(fn));
}

/// Count-only twin of IntersectDispatch (skips the match-window re-walk).
uint64_t IntersectDispatchCount(IntersectKernel kernel, const Neighbor* ab,
                                const Neighbor* ae, const Neighbor* bb,
                                const Neighbor* be, IntersectStats& stats);

/// Common-neighbor query through the process-default kernel — the dispatched
/// replacement for GraphT::ForEachCommonNeighbor on the hot paths
/// (ForEachTriangleOnEdge, the peel's support count). GraphT is
/// anything exposing Neighbors(v) as a contiguous range of Neighbor
/// (Graph, CsrGraph, DeltaCsr). Returns the intersection work done
/// (IntersectStats::Total(), the unit of `triangle.wedges_examined`).
template <typename GraphT, typename Fn>
uint64_t IntersectNeighbors(const GraphT& g, VertexId u, VertexId v,
                            Fn&& fn) {
  const auto& a = g.Neighbors(u);
  const auto& b = g.Neighbors(v);
  const Neighbor* ab = std::to_address(a.begin());
  const Neighbor* bb = std::to_address(b.begin());
  IntersectStats stats;
  IntersectDispatch(CurrentKernel(), ab, ab + a.size(), bb, bb + b.size(),
                    stats, std::forward<Fn>(fn));
  return stats.Total();
}

}  // namespace tkc

#endif  // TKC_GRAPH_INTERSECT_SIMD_H_
