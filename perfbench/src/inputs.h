#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tkc/graph/edge_event.h"
#include "tkc/graph/graph.h"
#include "tkc/util/random.h"

namespace perfbench {

/// A generated graph: one of the two `tkc generate` models the benchmark
/// uses, with the same parameters the CLI passes.
struct GraphSpec {
  enum class Model { kRmat, kPlc };
  Model model = Model::kPlc;
  uint32_t size = 0;  // R-MAT scale, or PLC vertex count
  uint32_t m = 0;     // edges per vertex
  double p = 0.5;     // PLC triad probability (unused by R-MAT)

  tkc::Graph Generate(uint64_t seed) const;
  /// "rmat scale=17 m=8" / "plc n=125000 m=8 p=0.5".
  std::string Describe() const;
};

/// The engine stream of a workload: a base graph plus a closed loop of
/// `batches` batches of `batch_size` events, with one read after every
/// `read_every`-th batch.
struct ReplaySpec {
  GraphSpec base;
  size_t batches = 0;
  size_t batch_size = 64;
  size_t read_every = 8;
};

struct WorkloadSpec {
  std::string name;
  /// The graph decomposed through `tkc decompose`. When `decompose_base`
  /// is set, the replay's base graph file is decomposed instead.
  GraphSpec decompose;
  bool decompose_base = false;
  ReplaySpec replay;
  /// Share of the run's --seconds given to decompose jobs. The replay has a
  /// fixed length and is interleaved with them, so that both kinds of
  /// sample spread over the whole run.
  double decompose_share = 1.0;
  /// Whether the traced run checks the layer-run κ with
  /// verify::CheckKappaCertificate. That oracle costs O(max κ · |E| · deg)
  /// and does not finish within a run's time limit on R-MAT scale 17
  /// (max κ ≈ 98); there κ is gated by the serial/parallel byte identity
  /// and the layer-run comparison instead.
  bool certify_decompose = true;
};

/// The workload named `name` (full size, or tiny when `smoke`), or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name, bool smoke);
std::vector<std::string> WorkloadNames();

/// Seed of an independent input stream derived from the run's --seed.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

/// A churn stream against `base`: 40% removals of live edges, 30% inserts
/// that close an existing wedge (triadic closure, the growth pattern of the
/// paper's DBLP/Wiki studies) and 30% inserts of random absent pairs.
/// Valid when applied in order to `base`.
std::vector<tkc::EdgeEvent> ClosureChurn(const tkc::Graph& base,
                                         size_t num_events, tkc::Rng& rng);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
