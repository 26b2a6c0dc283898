#include "tkc/verify/oracle.h"

#include <optional>
#include <string>
#include <utility>

#include "tkc/core/dynamic_core.h"
#include "tkc/core/ordered_core.h"
#include "tkc/core/triangle_core.h"
#include "tkc/verify/certificate.h"

namespace tkc::verify {

namespace {

// Diffs a maintained κ map against a fresh recompute of `g`; returns the
// first divergent live edge as a counterexample, with `step` recorded in
// the level field.
bool DiffAgainstRecompute(const DeltaCsr& g, const std::vector<uint32_t>& kappa,
                          size_t step, Counterexample* ce) {
  TriangleCoreResult fresh = ComputeTriangleCores(g);
  bool ok = true;
  g.ForEachEdge([&](EdgeId e, const Edge& edge) {
    if (!ok || kappa[e] == fresh.kappa[e]) return;
    *ce = {e,
           edge.u,
           edge.v,
           static_cast<uint32_t>(step),
           kappa[e],
           fresh.kappa[e],
           "maintained kappa diverged from Algorithm-1 recompute after "
           "event " +
               std::to_string(step)};
    ok = false;
  });
  return ok;
}

}  // namespace

VerifyReport ReplayEventLog(const Graph& base,
                            const std::vector<EdgeEvent>& events,
                            const ReplayOptions& options) {
  VerifyReport report;
  const std::string scope = "events=" + std::to_string(events.size()) +
                            " check_every=" +
                            std::to_string(options.check_every);

  DynamicTriangleCore dyn{DeltaCsr(base)};
  std::optional<OrderedDynamicCore> ordered;
  if (options.check_ordered) ordered.emplace(base);

  bool batch_ok = true, ordered_ok = true, bookkeeping_ok = true;
  Counterexample batch_ce, ordered_ce, bookkeeping_ce;

  auto apply = [](auto& maintainer, const EdgeEvent& ev) {
    if (ev.kind == EdgeEvent::Kind::kInsert) {
      maintainer.InsertEdge(ev.u, ev.v);
    } else {
      maintainer.RemoveEdge(ev.u, ev.v);
    }
  };

  for (size_t i = 0; i < events.size(); ++i) {
    if (batch_ok) apply(dyn, events[i]);
    if (ordered.has_value() && (ordered_ok || bookkeeping_ok)) {
      apply(*ordered, events[i]);
    }
    const size_t step = i + 1;
    const bool checkpoint =
        step == events.size() ||
        (options.check_every != 0 && step % options.check_every == 0);
    if (!checkpoint) continue;
    if (batch_ok &&
        !DiffAgainstRecompute(dyn.graph(), dyn.kappa(), step, &batch_ce)) {
      batch_ok = false;
    }
    if (ordered.has_value()) {
      if (ordered_ok && !DiffAgainstRecompute(DeltaCsr(ordered->graph()),
                                              ordered->kappa(), step,
                                              &ordered_ce)) {
        ordered_ok = false;
      }
      if (bookkeeping_ok && !ordered->CheckInvariants()) {
        bookkeeping_ce = {kInvalidEdge,
                          kInvalidVertex,
                          kInvalidVertex,
                          static_cast<uint32_t>(step),
                          0,
                          1,
                          "OrderedDynamicCore bookkeeping invariants "
                          "violated after event " +
                              std::to_string(step)};
        bookkeeping_ok = false;
      }
    }
    if (batch_ok && options.certificate_at_checkpoints) {
      VerifyReport cert = CheckKappaCertificate(dyn.graph(), dyn.kappa());
      if (!cert.AllPassed()) report.Merge(std::move(cert));
    }
  }

  report.Add(batch_ok ? Pass("dynamic.replay", scope)
                      : Fail("dynamic.replay", scope, batch_ce));
  if (ordered.has_value()) {
    report.Add(ordered_ok ? Pass("dynamic.replay_ordered", scope)
                          : Fail("dynamic.replay_ordered", scope, ordered_ce));
    report.Add(bookkeeping_ok
                   ? Pass("dynamic.bookkeeping", scope)
                   : Fail("dynamic.bookkeeping", scope, bookkeeping_ce));
  }
  return report;
}

}  // namespace tkc::verify
