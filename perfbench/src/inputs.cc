#include "inputs.h"

#include <algorithm>

#include "tkc/gen/generators.h"

namespace perfbench {

using tkc::Edge;
using tkc::EdgeEvent;
using tkc::Graph;
using tkc::VertexId;

tkc::Graph GraphSpec::Generate(uint64_t seed) const {
  tkc::Rng rng(seed);
  if (model == Model::kRmat) return tkc::Rmat(size, m, 0.57, 0.19, 0.19, rng);
  return tkc::PowerLawCluster(size, m, p, rng);
}

std::string GraphSpec::Describe() const {
  if (model == Model::kRmat) {
    return "rmat scale=" + std::to_string(size) + " m=" + std::to_string(m);
  }
  std::string text = "plc n=" + std::to_string(size) +
                     " m=" + std::to_string(m) + " p=" + std::to_string(p);
  text.erase(text.find_last_not_of('0') + 1);  // "p=0.500000" -> "p=0.5"
  return text;
}

namespace {

using Model = GraphSpec::Model;

const std::vector<WorkloadSpec>& Workloads(bool smoke) {
  // The decompose workloads carry a short replay and replay-churn a
  // decompose of its base graph, so that every workload reports every
  // end-to-end metric; see perfbench/README.md. The short replay runs on a
  // small dense graph whose batch cost varies little between seeds.
  const ReplaySpec sentinel = {{Model::kPlc, 1000, 10, 0.9}, 160, 64, 8};
  static const std::vector<WorkloadSpec> full = {
      {"decompose-rmat", {Model::kRmat, 17, 8}, false, sentinel, 1.0, false},
      {"decompose-plc", {Model::kPlc, 125000, 8, 0.5}, false, sentinel, 1.0,
       true},
      {"replay-churn", {}, true, {{Model::kPlc, 8000, 6, 0.5}, 160, 64, 8},
       0.5, true},
  };
  const ReplaySpec tiny_sentinel = {{Model::kPlc, 200, 10, 0.9}, 16, 64, 8};
  static const std::vector<WorkloadSpec> tiny = {
      {"decompose-rmat", {Model::kRmat, 9, 8}, false, tiny_sentinel, 1.0,
       true},
      {"decompose-plc", {Model::kPlc, 2000, 8, 0.5}, false, tiny_sentinel,
       1.0, true},
      {"replay-churn", {}, true, {{Model::kPlc, 400, 6, 0.5}, 16, 64, 8}, 0.5,
       true},
  };
  return smoke ? tiny : full;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name, bool smoke) {
  for (const WorkloadSpec& w : Workloads(smoke)) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& w : Workloads(false)) names.push_back(w.name);
  return names;
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 finalizer over (seed, stream): distinct streams of one seed
  // and equal streams of nearby seeds are unrelated.
  uint64_t z = seed + (stream + 1) * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<EdgeEvent> ClosureChurn(const Graph& base, size_t num_events,
                                    tkc::Rng& rng) {
  Graph shadow = base;
  std::vector<Edge> live;
  live.reserve(base.NumEdges() + num_events);
  base.ForEachEdge([&](tkc::EdgeId, const Edge& e) { live.push_back(e); });
  const VertexId n = base.NumVertices();

  std::vector<EdgeEvent> events;
  events.reserve(num_events);
  auto insert = [&](VertexId u, VertexId v) {
    shadow.AddEdge(u, v);
    live.push_back({std::min(u, v), std::max(u, v)});
    events.push_back({EdgeEvent::Kind::kInsert, u, v});
  };
  // Closes a wedge a - w - b: w is an endpoint of a random live edge (so
  // wedges are drawn in proportion to degree), b another neighbor of w.
  auto try_closure = [&]() {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const Edge e = live[rng.NextBounded(live.size())];
      const bool flip = rng.NextBool(0.5);
      const VertexId a = flip ? e.v : e.u;
      const VertexId w = flip ? e.u : e.v;
      const auto& nbrs = shadow.Neighbors(w);
      const VertexId b = nbrs[rng.NextBounded(nbrs.size())].vertex;
      if (b == a || shadow.HasEdge(a, b)) continue;
      insert(a, b);
      return true;
    }
    return false;
  };
  auto random_pair = [&]() {
    for (;;) {
      const auto u = static_cast<VertexId>(rng.NextBounded(n));
      const auto v = static_cast<VertexId>(rng.NextBounded(n));
      if (u == v || shadow.HasEdge(u, v)) continue;
      insert(u, v);
      return;
    }
  };

  while (events.size() < num_events) {
    const double r = rng.NextDouble();
    if (r < 0.4 && !live.empty()) {
      const size_t i = rng.NextBounded(live.size());
      const Edge e = live[i];
      live[i] = live.back();
      live.pop_back();
      shadow.RemoveEdge(e.u, e.v);
      events.push_back({EdgeEvent::Kind::kRemove, e.u, e.v});
    } else if (r < 0.7 && !live.empty() && try_closure()) {
      continue;
    } else {
      random_pair();
    }
  }
  return events;
}

}  // namespace perfbench
