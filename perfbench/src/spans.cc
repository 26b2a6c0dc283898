#include "spans.h"

#include <utility>

namespace perfbench {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int SpanRecorder::Begin(std::string name) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.run_id = span.parent < 0 ? run_id_ : spans_[span.parent].run_id;
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  spans_[index].start_ns = NowNs();  // last, so set-up is not timed
  return index;
}

void SpanRecorder::End(int index) {
  if (index < 0) return;
  spans_[index].end_ns = NowNs();
  // Spans close in LIFO order (ScopedSpan); pop through `index` anyway.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

void SpanRecorder::Attribute(int index, double seconds) {
  if (index < 0) return;
  spans_[index].attributed_ns += static_cast<int64_t>(seconds * 1e9);
}

namespace {

// Self time per span: its duration minus its children's durations (the
// recorder is single-threaded, so children never overlap) minus any time
// attributed to replayed layer spans.
std::vector<int64_t> SelfNs(const std::vector<Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns - spans[i].attributed_ns;
  }
  for (const Span& span : spans) {
    if (span.parent >= 0) self[span.parent] -= span.end_ns - span.start_ns;
  }
  return self;
}

}  // namespace

std::map<std::string, SpanTotals> SpanRecorder::Totals() const {
  const std::vector<int64_t> self = SelfNs(spans_);
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    SpanTotals& t = totals[spans_[i].name];
    ++t.count;
    t.total_s += spans_[i].Seconds();
    t.self_s += static_cast<double>(self[i]) * 1e-9;
  }
  return totals;
}

tkc::obs::JsonValue SpanRecorder::ToJson() const {
  using tkc::obs::JsonValue;
  const std::vector<int64_t> self = SelfNs(spans_);
  JsonValue list = JsonValue::Array();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    JsonValue row = JsonValue::Object();
    row.Set("id", static_cast<long long>(i))
        .Set("name", s.name)
        .Set("parent", s.parent)
        .Set("run_id", s.run_id)
        .Set("start_ns", static_cast<long long>(s.start_ns))
        .Set("end_ns", static_cast<long long>(s.end_ns))
        .Set("self_ns", static_cast<long long>(self[i]));
    if (s.attributed_ns != 0) {
      row.Set("attributed_ns", static_cast<long long>(s.attributed_ns));
    }
    list.Push(std::move(row));
  }
  JsonValue by_name = JsonValue::Object();
  for (const auto& [name, t] : Totals()) {
    JsonValue row = JsonValue::Object();
    row.Set("count", static_cast<unsigned long long>(t.count))
        .Set("total_s", t.total_s)
        .Set("self_s", t.self_s);
    by_name.Set(name, std::move(row));
  }
  JsonValue doc = JsonValue::Object();
  doc.Set("spans", std::move(list)).Set("by_name", std::move(by_name));
  return doc;
}

}  // namespace perfbench
