// The benchmark of record: drives the tkc library in-process through its
// public entry points on one generated workload, prints every metric with
// its unit, and gates the run on the correctness of the outputs.
//
//   tkc_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                 [--smoke] [--corrupt] [--out-dir=DIR] [--work-dir=DIR]
//
// --trace=0 measures the end-to-end metrics (no spans are recorded);
// --trace=1 runs every layer once under spans and reports the per-layer
// metrics, writing the span dump next to the result. --smoke shrinks the
// inputs to a few hundred edges. --corrupt bumps one κ value before the
// gate, which must then fail (the smoke test's negative check). The last
// line of stdout is the result object; exit status 1 means a check failed,
// 2 a usage or I/O error.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "inputs.h"
#include "spans.h"
#include "tkc/cli/cli.h"
#include "tkc/core/analysis_context.h"
#include "tkc/core/parallel_peel.h"
#include "tkc/core/triangle_core.h"
#include "tkc/engine/engine.h"
#include "tkc/graph/csr.h"
#include "tkc/io/edge_list.h"
#include "tkc/io/event_list.h"
#include "tkc/obs/json.h"
#include "tkc/util/parallel.h"
#include "tkc/util/timer.h"
#include "tkc/verify/certificate.h"
#include "tkc/viz/density_plot.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using tkc::Timer;
using tkc::obs::JsonValue;

// N of the parallel jobs. Not nproc: on a shared 4-vCPU host each parallel
// peel round waits for its slowest worker, so one preempted worker of four
// stalls every round; two workers keep the spread of the job in bounds.
constexpr int kParallelThreads = 2;
constexpr int kSetupReps = 3;     // set-ups per run; setup_s is their median
constexpr int kMinDecomposePairs = 3;

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool smoke = false;
  bool corrupt = false;
  std::string out_dir = ".bench_build/perfbench-results";
  std::string work_dir = ".bench_build/perfbench-work";
};

// ---------------------------------------------------------------------------
// Small helpers.

// Linear interpolation between closest ranks (q in [0, 1]).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// Resets the process's peak-RSS mark so it covers only what follows.
bool ResetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return f.good();
}

// VmHWM of this process in MiB (0 when /proc is unavailable).
double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// A stream buffer appending into a string that keeps its capacity between
/// jobs, so the decompose rows land in memory and no disk wait is timed.
class StringSink : public std::streambuf {
 public:
  StringSink() { setp(buf_, buf_ + sizeof(buf_)); }

  void Clear() {
    text_.clear();
    setp(buf_, buf_ + sizeof(buf_));
  }
  std::string& Text() {
    Flush();
    return text_;
  }

 protected:
  int_type overflow(int_type ch) override {
    Flush();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }
  int sync() override {
    Flush();
    return 0;
  }

 private:
  void Flush() {
    text_.append(pbase(), pptr());
    setp(buf_, buf_ + sizeof(buf_));
  }

  char buf_[1 << 16];
  std::string text_;
};

/// Counts checks against failures; nothing here is timed.
struct Gate {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  bool Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 20) failures.push_back(what);
    }
    return ok;
  }
};

// ---------------------------------------------------------------------------
// The decompose job's output: "# u v kappa co_clique_size", one row per
// edge, then "# edges=E triangles=T max_kappa=K seconds=S".

struct DecomposeSummary {
  uint64_t edges = 0;
  uint64_t triangles = 0;
  uint64_t max_kappa = 0;
  bool ok = false;
};

// The rows without the summary line, whose seconds= field differs per run.
std::string_view Rows(std::string_view text) {
  const size_t at = text.rfind("# edges=");
  return at == std::string_view::npos ? text : text.substr(0, at);
}

uint64_t FieldValue(std::string_view line, std::string_view key, bool* ok) {
  const size_t at = line.find(key);
  uint64_t value = 0;
  if (at == std::string_view::npos) {
    *ok = false;
    return 0;
  }
  const char* begin = line.data() + at + key.size();
  const auto [ptr, ec] = std::from_chars(begin, line.data() + line.size(), value);
  if (ec != std::errc()) *ok = false;
  return value;
}

DecomposeSummary ParseSummary(std::string_view text) {
  DecomposeSummary s;
  const size_t at = text.rfind("# edges=");
  if (at == std::string_view::npos) return s;
  const std::string_view line = text.substr(at);
  s.ok = true;
  s.edges = FieldValue(line, "edges=", &s.ok);
  s.triangles = FieldValue(line, "triangles=", &s.ok);
  s.max_kappa = FieldValue(line, "max_kappa=", &s.ok);
  return s;
}

// Largest value of the third column over the rows (comment lines skipped).
uint64_t MaxKappaOfRows(std::string_view rows) {
  uint64_t best = 0;
  size_t pos = 0;
  while (pos < rows.size()) {
    size_t end = rows.find('\n', pos);
    if (end == std::string_view::npos) end = rows.size();
    const std::string_view line = rows.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    size_t field = line.find(' ');
    field = line.find(' ', field + 1);
    uint64_t kappa = 0;
    std::from_chars(line.data() + field + 1, line.data() + line.size(), kappa);
    best = std::max(best, kappa);
  }
  return best;
}

// Bumps the κ (third field) of the first row: the corruption the gate must
// catch.
void CorruptFirstRow(std::string& text) {
  size_t pos = 0;
  while (pos < text.size() && text[pos] == '#') pos = text.find('\n', pos) + 1;
  size_t field = text.find(' ', pos);
  field = text.find(' ', field + 1) + 1;
  // "k" becomes "1k": a different, larger value.
  text = text.substr(0, field) + "1" + text.substr(field);
}

// Renders rows in the decompose job's format from a layer-run result.
std::string RenderRows(const tkc::CsrGraph& g,
                       const std::vector<uint32_t>& kappa) {
  std::ostringstream out;
  out << "# u v kappa co_clique_size\n";
  g.ForEachEdge([&](tkc::EdgeId e, const tkc::Edge&) {
    const tkc::Edge oe = g.OriginalEdge(e);
    out << oe.u << ' ' << oe.v << ' ' << kappa[e] << ' ' << kappa[e] + 2
        << '\n';
  });
  return out.str();
}

// Bumps κ of the first live edge.
void CorruptKappa(const tkc::CsrGraph& g, std::vector<uint32_t>& kappa) {
  bool done = false;
  g.ForEachEdge([&](tkc::EdgeId e, const tkc::Edge&) {
    if (!done) ++kappa[e];
    done = true;
  });
}

// ---------------------------------------------------------------------------
// The workload run.

struct Paths {
  fs::path graph;   // edge list the decompose job reads
  fs::path base;    // replay base graph
  fs::path events;  // replay event stream
};

struct LayerRun {
  std::unique_ptr<tkc::AnalysisContext> ctx;
  tkc::TriangleCoreResult result;
  double seconds = 0;  // parse + freeze + support + peel
};

struct ReplayTotals {
  std::vector<double> batch_s;
  std::vector<double> read_s;
  uint64_t events = 0;
  uint64_t candidate_edges = 0;
  uint64_t kappa_changes = 0;
  uint64_t triangles_scanned = 0;
};

class Bench {
 public:
  Bench(const Options& opt, const WorkloadSpec& spec)
      : opt_(opt), spec_(spec), rec_(opt.trace) {}

  int Run();

 private:
  void Setup();
  void WarmUp();
  void DecomposePair(int pair);
  void TimedPhase();
  void ReplayStep(size_t batch);
  void DecomposeJob(int threads, const std::string& span) {
    DecomposeJob(threads, span, rec_);
  }
  void DecomposeJob(int threads, const std::string& span, SpanRecorder& rec);
  LayerRun Layers(int threads, SpanRecorder& rec);
  void GateDecompose(const LayerRun* serial, const LayerRun* parallel);
  void GateReplay();
  JsonValue EndToEndMetrics() const;
  JsonValue PerLayerMetrics(const LayerRun& serial,
                            double untraced_layers_s) const;

  const Options& opt_;
  const WorkloadSpec& spec_;
  SpanRecorder rec_;
  Gate gate_;
  Paths paths_;

  std::vector<double> setup_s_;
  std::optional<tkc::engine::TkcEngine> engine_;
  std::vector<tkc::EdgeEvent> events_;
  size_t compactions_ = 0;

  StringSink sink_;
  std::string reference_;  // first decompose job's full output
  std::map<int, std::vector<double>> decompose_s_;  // by thread count
  double peak_rss_mb_ = 0;
  ReplayTotals replay_;
};

void Bench::Setup() {
  const int reps = opt_.trace ? 1 : kSetupReps;
  const ReplaySpec& rs = spec_.replay;
  for (int rep = 0; rep < reps; ++rep) {
    engine_.reset();
    Timer t;
    rec_.NextRun();
    ScopedSpan setup(rec_, "setup");
    if (!spec_.decompose_base) {
      ScopedSpan s(rec_, "gen.graph");
      const tkc::Graph g =
          spec_.decompose.Generate(StreamSeed(opt_.seed, 0));
      if (!tkc::WriteEdgeListFile(g, paths_.graph.string())) {
        throw std::runtime_error("cannot write " + paths_.graph.string());
      }
    }
    {
      ScopedSpan s(rec_, "gen.replay");
      const tkc::Graph base = rs.base.Generate(StreamSeed(opt_.seed, 1));
      tkc::Rng rng(StreamSeed(opt_.seed, 2));
      const auto events = ClosureChurn(base, rs.batches * rs.batch_size, rng);
      if (!tkc::WriteEdgeListFile(base, paths_.base.string()) ||
          !tkc::WriteEventListFile(events, paths_.events.string())) {
        throw std::runtime_error("cannot write the replay inputs");
      }
    }
    std::optional<tkc::Graph> base;
    {
      ScopedSpan s(rec_, "io.load_replay");
      base = tkc::ReadEdgeListFile(paths_.base.string(), nullptr, 1);
      auto events = tkc::ReadEventListFile(paths_.events.string(), nullptr, 1);
      if (!base || !events) throw std::runtime_error("cannot read replay inputs");
      events_ = std::move(*events);
    }
    {
      ScopedSpan s(rec_, "engine.init");
      tkc::engine::EngineOptions options;
      options.threads = 1;
      engine_.emplace(*base, options);
    }
    setup_s_.push_back(t.Seconds());
  }
}

void Bench::DecomposeJob(int threads, const std::string& span_name,
                         SpanRecorder& rec) {
  const std::vector<std::string> args = {
      "decompose", paths_.graph.string(),
      "--threads=" + std::to_string(threads)};
  std::ostringstream err;
  sink_.Clear();
  std::ostream out(&sink_);
  int code = 0;
  double seconds = 0;
  {
    rec.NextRun();
    ScopedSpan span(rec, span_name);
    Timer t;
    code = tkc::RunCli(args, out, err);
    out.flush();
    seconds = t.Seconds();
  }
  decompose_s_[threads].push_back(seconds);
  std::string& text = sink_.Text();
  if (!gate_.Check(code == 0, "decompose --threads=" + std::to_string(threads) +
                                  " exited " + std::to_string(code) + ": " +
                                  err.str())) {
    return;
  }
  if (reference_.empty()) {
    reference_ = text;
    return;
  }
  // The corruption goes into the first parallel job's rows.
  if (opt_.corrupt && threads == kParallelThreads &&
      decompose_s_[threads].size() == 1) {
    CorruptFirstRow(text);
  }
  gate_.Check(Rows(text) == Rows(reference_),
              "decompose rows at --threads=" + std::to_string(threads) +
                  " differ from the first job's rows");
}

// One untimed job, for the traced run: the first decompose in a process
// pays page faults on fresh heap memory that later jobs do not, which would
// land in the first job span's unattributed time. Its rows become the
// reference for the later jobs.
void Bench::WarmUp() {
  SpanRecorder untraced(false);
  DecomposeJob(1, "warm_up", untraced);
  decompose_s_.clear();
}

void Bench::DecomposePair(int pair) {
  // Alternate which thread count goes first, so drift cancels.
  const bool serial_first = pair % 2 == 0;
  DecomposeJob(serial_first ? 1 : kParallelThreads, "cli.decompose");
  DecomposeJob(serial_first ? kParallelThreads : 1, "cli.decompose");
}

void Bench::TimedPhase() {
  // The first pair sizes the rest: plan as many pairs as fit the workload's
  // share of the budget. Its serial job is cold (see WarmUp) and is one
  // sample among at least kMinDecomposePairs.
  Timer first;
  DecomposePair(0);
  const int pairs = std::max(
      kMinDecomposePairs,
      static_cast<int>(std::lround(opt_.seconds * spec_.decompose_share /
                                   first.Seconds())));
  const size_t batches = spec_.replay.batches;
  int done_pairs = 1;
  size_t done_batches = 0;
  // Interleave: run whichever job is further behind its planned count, so
  // both kinds of sample spread over the whole run.
  while (done_pairs < pairs || done_batches < batches) {
    const double pair_progress = (done_pairs + 0.5) / pairs;
    const double batch_progress =
        (static_cast<double>(done_batches) + 0.5) / static_cast<double>(batches);
    if (done_batches == batches ||
        (done_pairs < pairs && pair_progress <= batch_progress)) {
      DecomposePair(done_pairs++);
    } else {
      ReplayStep(done_batches++);
    }
  }
}

void Bench::ReplayStep(size_t b) {
  tkc::SetDefaultThreads(1);
  const ReplaySpec& rs = spec_.replay;
  tkc::engine::TkcEngine& engine = *engine_;
  const std::span<const tkc::EdgeEvent> chunk(
      events_.data() + b * rs.batch_size, rs.batch_size);
  rec_.NextRun();
  tkc::BatchStats stats;
  double seconds = 0;
  {
    ScopedSpan span(rec_, "engine.apply_batch");
    Timer t;
    stats = engine.ApplyBatch(chunk);
    seconds = t.Seconds();
  }
  replay_.batch_s.push_back(seconds);
  replay_.events += chunk.size();
  replay_.candidate_edges += stats.work.candidate_edges;
  replay_.kappa_changes += stats.work.promoted_edges + stats.work.demoted_edges;
  replay_.triangles_scanned += stats.work.triangles_scanned;
  if ((b + 1) % rs.read_every != 0) return;

  // A read: snapshot, triangle count, density plot at κ + 2.
  rec_.NextRun();
  tkc::DensityPlot plot;
  tkc::engine::EngineSnapshot snap;
  uint64_t triangles = 0;
  {
    ScopedSpan span(rec_, "query.read");
    Timer t;
    {
      ScopedSpan s(rec_, "engine.snapshot");
      snap = engine.Snapshot();
    }
    {
      ScopedSpan s(rec_, "query.support");
      triangles = snap.context->TriangleCount();
    }
    {
      ScopedSpan s(rec_, "viz.plot");
      std::vector<uint32_t> coclique(snap.kappa->size());
      for (size_t e = 0; e < coclique.size(); ++e) {
        coclique[e] = (*snap.kappa)[e] + 2;
      }
      plot = tkc::BuildDensityPlot(snap.context->csr(), coclique);
    }
    replay_.read_s.push_back(t.Seconds());
  }
  const tkc::CsrGraph& g = snap.context->csr();
  gate_.Check(plot.points.size() == g.NumVertices(),
              "read after batch " + std::to_string(b + 1) + ": plot has " +
                  std::to_string(plot.points.size()) + " points for " +
                  std::to_string(g.NumVertices()) + " vertices");
  uint64_t support_sum = 0;
  for (const uint32_t s : snap.context->Supports()) support_sum += s;
  gate_.Check(triangles * 3 == support_sum,
              "read triangle count disagrees with the support sum");
}

LayerRun Bench::Layers(int threads, SpanRecorder& rec) {
  const bool par = threads > 1;
  auto name = [&](const char* base) {
    return std::string(base) + (par ? "_par" : "");
  };
  LayerRun run;
  rec.NextRun();
  ScopedSpan top(rec, name("layers"));
  Timer t;
  std::optional<tkc::Graph> g;
  {
    ScopedSpan s(rec, name("io.parse"));
    g = tkc::ReadEdgeListFile(paths_.graph.string(), nullptr, threads);
  }
  if (!gate_.Check(g.has_value(), "layer run cannot read the graph")) {
    return run;
  }
  {
    // The decompose job freezes serially at every thread count.
    ScopedSpan s(rec, name("graph.freeze"));
    run.ctx = std::make_unique<tkc::AnalysisContext>(
        tkc::CsrGraph::Freeze(*g, tkc::RelabelMode::kNone, 1), threads);
  }
  {
    ScopedSpan s(rec, name("graph.support"));
    run.ctx->Supports();
  }
  {
    ScopedSpan s(rec, name("core.peel"));
    run.result = par ? tkc::ComputeTriangleCoresParallel(*run.ctx)
                     : tkc::ComputeTriangleCores(*run.ctx);
  }
  run.seconds = t.Seconds();
  return run;
}

void Bench::GateDecompose(const LayerRun* serial, const LayerRun* parallel) {
  const DecomposeSummary summary = ParseSummary(reference_);
  if (!gate_.Check(summary.ok, "decompose summary line missing")) return;
  const std::string_view rows = Rows(reference_);
  gate_.Check(MaxKappaOfRows(rows) == summary.max_kappa,
              "largest kappa row disagrees with the summary max_kappa");
  if (serial == nullptr) {
    // Untraced run: an independent triangle count over a fresh load.
    auto g = tkc::ReadEdgeListFile(paths_.graph.string(), nullptr,
                                   kParallelThreads);
    if (!gate_.Check(g.has_value(), "gate cannot read the graph")) return;
    const tkc::AnalysisContext ctx(*g, kParallelThreads);
    gate_.Check(ctx.TriangleCount() == summary.triangles,
                "summary triangles disagree with a fresh triangle count");
    gate_.Check(ctx.csr().NumEdges() == summary.edges,
                "summary edge count disagrees with a fresh load");
    return;
  }
  std::vector<uint32_t> kappa = serial->result.kappa;
  const tkc::CsrGraph& g = serial->ctx->csr();
  if (opt_.corrupt) CorruptKappa(g, kappa);
  gate_.Check(serial->result.triangle_count == summary.triangles,
              "layer-run triangle count disagrees with the decompose job");
  gate_.Check(serial->result.max_kappa == summary.max_kappa,
              "layer-run max kappa disagrees with the decompose job");
  gate_.Check(kappa == parallel->result.kappa,
              "serial and parallel layer-run kappa differ");
  gate_.Check(Rows(RenderRows(g, kappa)) == rows,
              "layer-run kappa rows differ from the decompose job's rows");
  if (spec_.certify_decompose) {
    const auto report = tkc::verify::CheckKappaCertificate(g, kappa);
    gate_.Check(report.AllPassed(), "kappa certificate failed on the layer run");
  }
}

void Bench::GateReplay() {
  tkc::engine::TkcEngine& engine = *engine_;
  engine.Compact();
  const tkc::engine::EngineSnapshot snap = engine.Snapshot();
  const tkc::CsrGraph& g = snap.context->csr();
  std::vector<uint32_t> kappa = *snap.kappa;
  if (opt_.corrupt) CorruptKappa(g, kappa);
  const tkc::TriangleCoreResult fresh = tkc::ComputeTriangleCores(*snap.context);
  bool same = true;
  g.ForEachEdge([&](tkc::EdgeId e, const tkc::Edge&) {
    same = same && fresh.kappa[e] == kappa[e];
  });
  gate_.Check(same, "maintained kappa differs from a recompute on the final "
                    "snapshot");
  gate_.Check(engine.certificates_ok(), "an engine compaction certificate failed");
  const auto report = tkc::verify::CheckKappaCertificate(g, kappa);
  gate_.Check(report.AllPassed(),
              "kappa certificate failed on the final snapshot");
  gate_.Check(replay_.batch_s.size() == spec_.replay.batches,
              "not every batch was applied");
}

JsonValue Metric(double value, const char* unit) {
  JsonValue m = JsonValue::Object();
  m.Set("value", value).Set("unit", unit);
  return m;
}

JsonValue Bench::EndToEndMetrics() const {
  double batch_total = 0;
  for (const double s : replay_.batch_s) batch_total += s;
  JsonValue m = JsonValue::Object();
  m.Set("setup_s", Metric(Median(setup_s_), "s"))
      .Set("decompose_s", Metric(Median(decompose_s_.at(1)), "s"))
      .Set("decompose_par_s",
           Metric(Median(decompose_s_.at(kParallelThreads)), "s"))
      .Set("peak_rss_mb", Metric(peak_rss_mb_, "MiB"))
      .Set("events_per_s",
           Metric(static_cast<double>(replay_.events) / batch_total, "1/s"))
      .Set("batch_p50_ms", Metric(Quantile(replay_.batch_s, 0.5) * 1e3, "ms"))
      .Set("batch_p90_ms", Metric(Quantile(replay_.batch_s, 0.9) * 1e3, "ms"))
      .Set("query_p50_ms", Metric(Median(replay_.read_s) * 1e3, "ms"));
  return m;
}

JsonValue Bench::PerLayerMetrics(const LayerRun& serial,
                                 double untraced_layers_s) const {
  const auto totals = rec_.Totals();
  auto total = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_s;
  };
  auto count = [](uint64_t v) { return Metric(static_cast<double>(v), "count"); };
  const double peel = total("core.peel");
  const double peel_par = total("core.peel_par");
  JsonValue m = JsonValue::Object();
  m.Set("io.parse_s", Metric(total("io.parse"), "s"))
      .Set("io.parse_par_s", Metric(total("io.parse_par"), "s"))
      .Set("graph.freeze_s", Metric(total("graph.freeze"), "s"))
      .Set("graph.support_s", Metric(total("graph.support"), "s"))
      .Set("graph.support_par_s", Metric(total("graph.support_par"), "s"))
      .Set("graph.triangles", count(serial.result.triangle_count))
      .Set("core.peel_s", Metric(peel, "s"))
      .Set("core.peel_par_s", Metric(peel_par, "s"))
      .Set("core.max_kappa", count(serial.result.max_kappa))
      .Set("core.peel_speedup", Metric(peel / peel_par, "ratio"))
      .Set("cli.job_s", Metric(total("cli.decompose"), "s"))
      .Set("cli.unattributed_s",
           Metric(totals.at("cli.decompose").self_s, "s"))
      .Set("engine.init_s", Metric(total("engine.init"), "s"))
      .Set("engine.apply_batch_s", Metric(total("engine.apply_batch"), "s"))
      .Set("engine.candidate_edges", count(replay_.candidate_edges))
      .Set("engine.kappa_changes", count(replay_.kappa_changes))
      .Set("engine.triangles_scanned", count(replay_.triangles_scanned))
      .Set("engine.useful_ratio",
           Metric(static_cast<double>(replay_.kappa_changes) /
                      static_cast<double>(replay_.candidate_edges),
                  "ratio"))
      .Set("engine.snapshot_s", Metric(total("engine.snapshot"), "s"))
      .Set("engine.compactions", count(compactions_))
      .Set("query.support_s", Metric(total("query.support"), "s"))
      .Set("viz.plot_s", Metric(total("viz.plot"), "s"))
      .Set("trace.overhead_s",
           Metric(serial.seconds - untraced_layers_s, "s"));
  return m;
}

// Span names by self time, largest first.
void PrintSelfTimes(const SpanRecorder& rec, std::ostream& os) {
  const auto totals = rec.Totals();
  std::vector<std::pair<std::string, SpanTotals>> rows(totals.begin(),
                                                       totals.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_s > b.second.self_s;
  });
  os << "span                     count    total_s     self_s\n";
  char line[128];
  for (const auto& [name, t] : rows) {
    std::snprintf(line, sizeof(line), "%-24s %5llu %10.4f %10.4f\n",
                  name.c_str(), static_cast<unsigned long long>(t.count),
                  t.total_s, t.self_s);
    os << line;
  }
}

int Bench::Run() {
  const fs::path work = fs::path(opt_.work_dir) /
                        (opt_.workload + "-" + std::to_string(opt_.seed));
  fs::create_directories(work);
  fs::create_directories(opt_.out_dir);
  paths_.base = work / "base.txt";
  paths_.events = work / "events.txt";
  paths_.graph = spec_.decompose_base ? paths_.base : work / "graph.txt";

  Setup();
  std::optional<LayerRun> serial, parallel;
  double untraced_layers_s = 0;
  if (!opt_.trace) {
    if (!ResetPeakRss()) {
      std::cerr << "warning: cannot reset the peak-RSS mark; peak_rss_mb "
                   "includes input generation\n";
    }
    TimedPhase();
    peak_rss_mb_ = PeakRssMb();
    GateDecompose(nullptr, nullptr);
  } else {
    WarmUp();
    // Each job sits next to its layer run, so both see the same heap.
    DecomposeJob(1, "cli.decompose");
    {
      SpanRecorder untraced(false);
      untraced_layers_s = Layers(1, untraced).seconds;
    }
    serial = Layers(1, rec_);
    DecomposeJob(kParallelThreads, "cli.decompose_par");
    parallel = Layers(kParallelThreads, rec_);
    // The job spans are opaque; charge them the layer spans of the same
    // thread count so their self time is the unattributed remainder.
    const auto& spans = rec_.spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name == "cli.decompose") {
        rec_.Attribute(static_cast<int>(i), serial->seconds);
      } else if (spans[i].name == "cli.decompose_par") {
        rec_.Attribute(static_cast<int>(i), parallel->seconds);
      }
    }
    for (size_t b = 0; b < spec_.replay.batches; ++b) ReplayStep(b);
    if (serial->ctx && parallel->ctx) GateDecompose(&*serial, &*parallel);
  }
  compactions_ = engine_->compactions();
  GateReplay();

  const bool correct = gate_.failed == 0;
  JsonValue metrics = opt_.trace
                          ? PerLayerMetrics(*serial, untraced_layers_s)
                          : EndToEndMetrics();
  JsonValue result = JsonValue::Object();
  result.Set("correct", correct)
      .Set("attempted", static_cast<unsigned long long>(gate_.attempted))
      .Set("failed", static_cast<unsigned long long>(gate_.failed))
      .Set("metrics", metrics);

  // The full record next to the result: workload, samples, failures.
  const std::string stem = opt_.workload + "-seed" + std::to_string(opt_.seed);
  JsonValue record = JsonValue::Object();
  JsonValue failures = JsonValue::Array();
  for (const std::string& f : gate_.failures) failures.Push(f);
  JsonValue samples = JsonValue::Object();
  auto list = [](const std::vector<double>& v) {
    JsonValue a = JsonValue::Array();
    for (const double x : v) a.Push(x);
    return a;
  };
  samples.Set("setup_s", list(setup_s_))
      .Set("batch_s", list(replay_.batch_s))
      .Set("read_s", list(replay_.read_s));
  for (const auto& [threads, v] : decompose_s_) {
    samples.Set("decompose_s_threads" + std::to_string(threads), list(v));
  }
  record.Set("schema", "tkc.perfbench.v1")
      .Set("workload", opt_.workload)
      .Set("seed", static_cast<unsigned long long>(opt_.seed))
      .Set("trace", opt_.trace)
      .Set("smoke", opt_.smoke)
      .Set("decompose_graph", spec_.decompose_base
                                  ? spec_.replay.base.Describe()
                                  : spec_.decompose.Describe())
      .Set("replay_base", spec_.replay.base.Describe())
      .Set("parallel_threads", kParallelThreads)
      .Set("result", result)
      .Set("samples", std::move(samples))
      .Set("failures", std::move(failures));
  const fs::path record_path =
      fs::path(opt_.out_dir) /
      (stem + "-trace" + std::to_string(opt_.trace ? 1 : 0) + ".json");
  std::ofstream(record_path) << record.Dump(2) << '\n';
  if (opt_.trace) {
    JsonValue dump = rec_.ToJson();
    dump.Set("workload", opt_.workload)
        .Set("seed", static_cast<unsigned long long>(opt_.seed));
    std::ofstream(fs::path(opt_.out_dir) / (stem + ".spans.json"))
        << dump.Dump(1) << '\n';
  }

  if (opt_.trace) {
    PrintSelfTimes(rec_, std::cerr);
    // The two ratios with their bases.
    auto value = [&](const char* name) {
      return metrics.Find(name)->Find("value")->Number();
    };
    std::cerr << "core.peel_speedup = core.peel_s / core.peel_par_s = "
              << value("core.peel_s") << " / " << value("core.peel_par_s")
              << " = " << value("core.peel_speedup") << '\n'
              << "engine.useful_ratio = engine.kappa_changes / "
                 "engine.candidate_edges = "
              << value("engine.kappa_changes") << " / "
              << value("engine.candidate_edges") << " = "
              << value("engine.useful_ratio") << '\n';
  }
  for (const std::string& f : gate_.failures) std::cerr << "FAILED: " << f << '\n';
  std::cerr << "record: " << record_path.string() << '\n';
  fs::remove_all(work);
  std::cout << result.Dump() << std::endl;
  return correct ? 0 : 1;
}

int Usage() {
  std::cerr << "usage: tkc_perfbench --workload=NAME --seed=N --seconds=S "
               "--trace=0|1 [--smoke] [--corrupt] [--out-dir=DIR] "
               "[--work-dir=DIR]\nworkloads:";
  for (const std::string& name : WorkloadNames()) std::cerr << ' ' << name;
  std::cerr << '\n';
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&](std::string_view key) -> std::optional<std::string> {
      if (arg.rfind(key, 0) != 0 || arg.size() <= key.size() ||
          arg[key.size()] != '=') {
        return std::nullopt;
      }
      return std::string(arg.substr(key.size() + 1));
    };
    try {
      if (auto v = value("--workload")) {
        opt.workload = *v;
      } else if (auto v = value("--seed")) {
        opt.seed = std::stoull(*v);
        have_seed = true;
      } else if (auto v = value("--seconds")) {
        opt.seconds = std::stod(*v);
        have_seconds = opt.seconds > 0;
      } else if (auto v = value("--trace")) {
        if (*v != "0" && *v != "1") return Usage();
        opt.trace = *v == "1";
        have_trace = true;
      } else if (auto v = value("--out-dir")) {
        opt.out_dir = *v;
      } else if (auto v = value("--work-dir")) {
        opt.work_dir = *v;
      } else if (arg == "--smoke") {
        opt.smoke = true;
      } else if (arg == "--corrupt") {
        opt.corrupt = true;
      } else {
        std::cerr << "unknown argument: " << arg << '\n';
        return Usage();
      }
    } catch (const std::exception&) {
      std::cerr << "bad value: " << arg << '\n';
      return Usage();
    }
  }
  const WorkloadSpec* spec = FindWorkload(opt.workload, opt.smoke);
  if (spec == nullptr || !have_seed || !have_seconds || !have_trace) {
    return Usage();
  }
  try {
    return Bench(opt, *spec).Run();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
