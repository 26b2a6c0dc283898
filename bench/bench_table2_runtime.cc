// Reproduces Table II: execution time of Triangle K-Core (Algorithm 1)
// against CSV and the DN-Graph variants TriDN / BiTriDN on the Table I
// dataset analogues.
//
// Expected shape (paper): Triangle K-Core is fastest everywhere; the
// DN-Graph variants pay an iterative multiple of it; CSV is slowest and
// infeasible on large graphs (the paper could not run CSV or TriDN on its
// three largest datasets — we apply the same cutoffs).

#include <cstdio>
#include <string>

#include "bench_common.h"
#include "tkc/baselines/csv.h"
#include "tkc/baselines/dn_graph.h"
#include "tkc/core/analysis_context.h"
#include "tkc/core/triangle_core.h"

namespace tkc::bench {
namespace {

// Feasibility gates mirroring the paper's "could not run" notes: CSV and
// TriDN did not run on the paper's three largest datasets (wiki, flickr,
// livejournal) and BiTriDN took too long to converge there. TriDN's
// unit-step convergence additionally prices it out of the 380k+-edge sets
// here; bench_claim3_convergence exhibits its full iteration cost on astro.
constexpr size_t kCsvMaxEdges = 950000;
constexpr size_t kTriDnMaxEdges = 200000;
constexpr size_t kBiTriDnMaxEdges = 1200000;

int Run(int argc, char** argv) {
  BenchConfig cfg = ParseArgs(argc, argv);
  BenchReporter report("table2_runtime", cfg);
  std::printf(
      "=== Table II: execution time (seconds) — Triangle K-Core vs "
      "competitors ===\n");
  std::printf("size-factor=%.3f seed=%llu\n\n", cfg.size_factor,
              static_cast<unsigned long long>(cfg.seed));

  TablePrinter table({14, 10, 10, 12, 10, 10, 10, 10});
  table.Row({"dataset", "|V|", "|E|", "triangles", "TKC", "BiTriDN", "TriDN",
             "CSV"});
  table.Rule();

  for (const DatasetSpec& spec : AllDatasetSpecs()) {
    Dataset ds = MakeDataset(spec.name, cfg.seed, cfg.size_factor);
    const Graph& g = ds.graph;
    const size_t edges = g.NumEdges();

    AnalysisContext ctx(g, cfg.threads);
    Timer t;
    TriangleCoreResult cores = ComputeTriangleCores(ctx.csr());
    double tkc_s = t.Seconds();

    // Phase split on the shared CSR read path: support pass in both
    // enumeration modes (full adjacency vs oriented out-lists), then the
    // peel alone — at 1 thread and at --threads — against each context's
    // pre-forced support cache.
    AnalysisContext serial_ctx(ctx.csr_ptr(), /*threads=*/1);
    t.Restart();
    auto support_full = ComputeEdgeSupportsFullScan(ctx.csr());
    const double support_full_s = t.Seconds();
    t.Restart();
    auto support_oriented = ComputeEdgeSupports(ctx.csr(), 1);
    const double support_oriented_s = t.Seconds();
    ctx.Supports();
    serial_ctx.Supports();
    t.Restart();
    TriangleCoreResult serial_peel = ComputeTriangleCores(serial_ctx);
    const double peel_serial_s = t.Seconds();
    t.Restart();
    TriangleCoreResult parallel_peel = ComputeTriangleCores(ctx);
    const double peel_parallel_s = t.Seconds();

    std::string bitridn_s = "skipped", tridn_s = "skipped",
                csv_s = "skipped";
    bool values_match = support_full == support_oriented &&
                        serial_peel.kappa == parallel_peel.kappa &&
                        serial_peel.kappa == cores.kappa;
    tkc::obs::JsonValue row = tkc::obs::JsonValue::Object();
    row.Set("dataset", spec.name)
        .Set("vertices", g.NumVertices())
        .Set("edges", edges)
        .Set("triangles", cores.triangle_count)
        .Set("tkc_seconds", tkc_s)
        .Set("support_full_seconds", support_full_s)
        .Set("support_oriented_seconds", support_oriented_s)
        .Set("peel_serial_seconds", peel_serial_s)
        .Set("peel_parallel_seconds", peel_parallel_s)
        .Set("peel_threads", ctx.threads());
    if (edges <= kBiTriDnMaxEdges) {
      t.Restart();
      DnGraphResult bi = BiTriDn(g);
      double s = t.Seconds();
      bitridn_s = Fmt(s) + " (" + FmtCount(bi.iterations) + "it)";
      row.Set("bitridn_seconds", s).Set("bitridn_iterations", bi.iterations);
      g.ForEachEdge([&](EdgeId e, const Edge&) {
        if (bi.lambda[e] != cores.kappa[e]) values_match = false;
      });
    }
    if (edges <= kTriDnMaxEdges) {
      t.Restart();
      DnGraphResult tri = TriDn(g);
      double s = t.Seconds();
      tridn_s = Fmt(s) + " (" + FmtCount(tri.iterations) + "it)";
      row.Set("tridn_seconds", s).Set("tridn_iterations", tri.iterations);
      g.ForEachEdge([&](EdgeId e, const Edge&) {
        if (tri.lambda[e] != cores.kappa[e]) values_match = false;
      });
    }
    if (edges <= kCsvMaxEdges) {
      CsvOptions opt;
      opt.max_neighborhood = 96;
      opt.clique_node_budget = 20000;
      t.Restart();
      CsvResult csv = ComputeCsv(ctx.csr(), opt);
      double s = t.Seconds();
      csv_s = Fmt(s);
      row.Set("csv_seconds", s);
      (void)csv;
    }
    row.Set("values_match", values_match);
    report.AddRow(std::move(row));

    table.Row({spec.name, FmtCount(g.NumVertices()), FmtCount(edges),
               FmtCount(cores.triangle_count), Fmt(tkc_s), bitridn_s,
               tridn_s, csv_s});
    std::printf(
        "  phases: support full=%s oriented=%s | peel t1=%s t%d=%s\n",
        Fmt(support_full_s).c_str(), Fmt(support_oriented_s).c_str(),
        Fmt(peel_serial_s).c_str(), ctx.threads(),
        Fmt(peel_parallel_s).c_str());
    if (!values_match) {
      std::printf("  !! kernel/baseline outputs disagreed with kappa on %s\n",
                  spec.name.c_str());
    }
  }
  table.Rule();
  std::printf(
      "\nNotes: DN-Graph variants converge to exactly kappa(e) (Claim 3);\n"
      "'skipped' mirrors the paper's infeasibility cutoffs for large "
      "graphs.\n");
  return report.Finish(0);
}

}  // namespace
}  // namespace tkc::bench

int main(int argc, char** argv) { return tkc::bench::Run(argc, argv); }
