#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tkc/obs/json.h"

namespace perfbench {

/// One timed interval around a call into a layer of the library. Spans are
/// recorded by the benchmark itself (the library is a black box here), kept
/// in memory, and written out once the run ends.
struct Span {
  std::string name;
  int64_t start_ns = 0;  // steady clock, relative to the recorder's origin
  int64_t end_ns = 0;
  int parent = -1;       // index into the recorder's span list, -1 = root
  int run_id = 0;        // one id per request (job, batch, read)
  // Time that belongs to other layers although no child span covers it:
  // a `cli.*` job span is opaque (RunCli), so the benchmark charges it the
  // layer spans of the same job replayed outside it. Zero elsewhere.
  int64_t attributed_ns = 0;

  double Seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Per-name totals over every span of that name.
struct SpanTotals {
  uint64_t count = 0;
  double total_s = 0;
  double self_s = 0;  // total minus the time child spans cover
};

/// Single-threaded span recorder. A disabled recorder records nothing, so
/// the untraced runs pay one branch per span.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }

  /// Starts a span as a child of the innermost open span. Returns its
  /// index, or -1 when disabled.
  int Begin(std::string name);
  void End(int index);

  /// Starts a new request: later root spans carry the new id.
  int NextRun() { return ++run_id_; }

  /// Charges `seconds` of already-measured layer time to span `index`
  /// (see Span::attributed_ns).
  void Attribute(int index, double seconds);

  const std::vector<Span>& spans() const { return spans_; }
  std::map<std::string, SpanTotals> Totals() const;

  /// The span dump: every span with its self time, plus the per-name
  /// totals.
  tkc::obs::JsonValue ToJson() const;

 private:
  int64_t NowNs() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  int run_id_ = 0;
};

/// RAII span; a no-op on a disabled recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name)
      : recorder_(recorder), index_(recorder.Begin(std::move(name))) {}
  ~ScopedSpan() { recorder_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  SpanRecorder& recorder_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
