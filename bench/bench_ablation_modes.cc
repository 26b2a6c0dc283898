// Ablation over the design choices Section IV discusses:
//   (1) kStoreTriangles vs kRecomputeTriangles — the paper's trade-off for
//       graphs whose triangle set does not fit in memory (store is faster,
//       recompute is O(1) extra memory);
//   (2) per-update locality of the dynamic algorithm vs update cost — how
//       the touched-edge count (Rule 0's bound) tracks the churn level.

#include <cstdio>

#include "bench_common.h"
#include "tkc/core/dynamic_core.h"
#include "tkc/core/ordered_core.h"
#include "tkc/core/triangle_core.h"
#include "tkc/gen/dynamic_gen.h"
#include "tkc/util/random.h"

namespace tkc::bench {
namespace {

int Run(int argc, char** argv) {
  BenchConfig cfg = ParseArgs(argc, argv);
  BenchReporter report("ablation_modes", cfg);
  std::printf("=== Ablation 1: triangle storage mode in Algorithm 1 ===\n\n");
  TablePrinter table({12, 12, 12, 12, 14, 14});
  table.Row({"dataset", "|E|", "store(s)", "recompute(s)", "stored entries",
             "extra MiB"});
  table.Rule();
  for (const char* name : {"ppi", "dblp", "astro", "epinions", "wiki"}) {
    Dataset ds = MakeDataset(name, cfg.seed, cfg.size_factor);
    const CsrGraph g(ds.graph);
    Timer t;
    TriangleCoreResult stored =
        ComputeTriangleCores(g, TriangleStorageMode::kStoreTriangles);
    double store_s = t.Seconds();
    t.Restart();
    TriangleCoreResult recomputed =
        ComputeTriangleCores(g, TriangleStorageMode::kRecomputeTriangles);
    double recompute_s = t.Seconds();
    bool same = stored.kappa == recomputed.kappa;
    // Each triangle is stored once per incident edge as a pair of EdgeIds.
    uint64_t entries = 3 * stored.triangle_count;
    double mib = entries * 2.0 * sizeof(EdgeId) / (1024.0 * 1024.0);
    table.Row({name, FmtCount(g.NumEdges()), Fmt(store_s),
               Fmt(recompute_s), FmtCount(entries), Fmt(mib, 1)});
    report.AddRow(tkc::obs::JsonValue::Object()
                      .Set("ablation", "storage_mode")
                      .Set("dataset", name)
                      .Set("edges", g.NumEdges())
                      .Set("store_seconds", store_s)
                      .Set("recompute_seconds", recompute_s)
                      .Set("stored_entries", entries)
                      .Set("extra_mib", mib)
                      .Set("modes_agree", same));
    if (!same) std::printf("  !! modes disagree on %s\n", name);
  }
  table.Rule();

  std::printf("\n=== Ablation 2: locality of the dynamic update vs churn "
              "===\n\n");
  TablePrinter t2({14, 12, 16, 18, 14});
  t2.Row({"churn %", "events", "update total(s)", "touched edges/event",
          "vs full peel"});
  t2.Rule();
  Dataset ds = MakeDataset("astro", cfg.seed, cfg.size_factor);
  const CsrGraph astro(ds.graph);
  Timer t;
  TriangleCoreResult base = ComputeTriangleCores(astro);
  double peel_s = t.Seconds();
  (void)base;
  for (double churn : {0.001, 0.005, 0.01, 0.05}) {
    Rng rng(cfg.seed + 99);
    size_t each = std::max<size_t>(
        1, static_cast<size_t>(ds.graph.NumEdges() * churn / 2));
    std::vector<EdgeEvent> events = RandomChurn(ds.graph, each, each, rng);
    DynamicTriangleCore dyn{DeltaCsr(ds.graph)};
    t.Restart();
    for (const EdgeEvent& ev : events) {
      if (ev.kind == EdgeEvent::Kind::kInsert) {
        dyn.InsertEdge(ev.u, ev.v);
      } else {
        dyn.RemoveEdge(ev.u, ev.v);
      }
    }
    double upd_s = t.Seconds();
    double touched_per_event =
        static_cast<double>(dyn.total_stats().candidate_edges) /
        events.size();
    t2.Row({Fmt(100 * churn, 1) + "%", FmtCount(events.size()), Fmt(upd_s, 4),
            Fmt(touched_per_event, 1),
            Fmt(peel_s / std::max(upd_s, 1e-9), 1) + "x faster"});
    report.AddRow(tkc::obs::JsonValue::Object()
                      .Set("ablation", "locality_vs_churn")
                      .Set("churn", churn)
                      .Set("events", events.size())
                      .Set("update_seconds", upd_s)
                      .Set("touched_edges_per_event", touched_per_event)
                      .Set("full_peel_seconds", peel_s));
  }
  t2.Rule();
  std::printf("\nTouched edges per event stays flat as churn grows — the\n"
              "Rule 0 region depends on local structure, not graph size.\n");

  std::printf("\n=== Ablation 3: update granularity — batch levels vs "
              "per-triangle bookkeeping ===\n\n");
  TablePrinter t3({14, 12, 16, 20});
  t3.Row({"dataset", "events", "batch updater(s)", "per-triangle(s)"});
  t3.Rule();
  for (const char* name : {"ppi", "dblp"}) {
    Dataset d = MakeDataset(name, cfg.seed, cfg.size_factor);
    Rng rng(cfg.seed + 7);
    size_t each = std::max<size_t>(1, d.graph.NumEdges() / 200);
    std::vector<EdgeEvent> events = RandomChurn(d.graph, each, each, rng);
    DynamicTriangleCore batch{DeltaCsr(d.graph)};
    Timer tt;
    batch.ApplyEvents(events);
    double batch_s = tt.Seconds();
    OrderedDynamicCore ordered(d.graph);
    tt.Restart();
    ordered.ApplyEvents(events);
    double ordered_s = tt.Seconds();
    bool agree = true;
    ordered.graph().ForEachEdge([&](EdgeId e, const Edge&) {
      agree = agree && ordered.kappa()[e] == batch.kappa()[e];
    });
    t3.Row({name, FmtCount(events.size()), Fmt(batch_s, 4),
            Fmt(ordered_s, 4) + (agree ? "" : "  !! disagree")});
    report.AddRow(tkc::obs::JsonValue::Object()
                      .Set("ablation", "update_granularity")
                      .Set("dataset", name)
                      .Set("events", events.size())
                      .Set("batch_seconds", batch_s)
                      .Set("ordered_seconds", ordered_s)
                      .Set("agree", agree));
  }
  t3.Rule();
  std::printf("\nThe per-triangle variant additionally maintains the booked\n"
              "core content (IsInCore queries) — the paper's Algorithms 5-7\n"
              "bookkeeping — at a modest time premium.\n");
  return report.Finish(0);
}

}  // namespace
}  // namespace tkc::bench

int main(int argc, char** argv) { return tkc::bench::Run(argc, argv); }
