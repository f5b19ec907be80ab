#include "src/faults/fault_injector.h"

#include <algorithm>

#include "src/base/check.h"
#include "src/base/trace.h"
#include "src/obs/coverage.h"

namespace vscale {

FaultInjector::FaultInjector(Simulator& sim, FaultPlan plan)
    : sim_(sim), plan_(std::move(plan)), rng_(Rng(plan_.seed).Fork(0xFA017)) {}

void FaultInjector::Arm() {
  if (armed_) {
    return;
  }
  armed_ = true;
  const TimeNs now = sim_.Now();
  for (const FaultEvent& ev : plan_.events) {
    // Copy by value into the closures: the plan vector never changes after Arm,
    // but value capture keeps the events independent of this object's layout.
    const FaultEvent e = ev;
    sim_.ScheduleAt(std::max(now, e.start), [this, e] { Begin(e); });
    sim_.ScheduleAt(std::max(now, e.end()), [this, e] { End(e); });
  }
}

int64_t FaultInjector::Magnitude(FaultKind kind) const {
  // A magnitude only means anything inside an active window: outside one, the
  // scan below silently falls back to DefaultMagnitude even when the plan
  // carries a (stale, expired) magnitude for the kind. Every call site gates on
  // Active() first; hold them to it in checked builds.
  VS_INVARIANT(Active(kind), "Magnitude(%s) queried outside an active window",
               ToString(kind));
  const TimeNs now = sim_.Now();
  int64_t best = 0;
  for (const FaultEvent& ev : plan_.events) {
    if (ev.kind == kind && ev.magnitude > 0 && ev.start <= now && now < ev.end()) {
      best = std::max(best, ev.magnitude);
    }
  }
  return best > 0 ? best : DefaultMagnitude(kind);
}

void FaultInjector::Begin(const FaultEvent& ev) {
  ++active_[static_cast<int>(ev.kind)];
  ++events_started_;
  if (CoverageMap* cov = sim_.observers().cover) {
    cov->OnFaultBegin(static_cast<int>(ev.kind));
  }
  if (Tracer* tr = sim_.observers().trace) {
    tr->Instant(sim_.Now(), TraceCategory::kVscale, "fault_begin", -1, -1, -1,
                ToString(ev.kind), ev.magnitude);
  }
  if (on_transition) {
    on_transition(ev, /*began=*/true);
  }
}

void FaultInjector::End(const FaultEvent& ev) {
  --active_[static_cast<int>(ev.kind)];
  ++events_ended_;
  if (Tracer* tr = sim_.observers().trace) {
    tr->Instant(sim_.Now(), TraceCategory::kVscale, "fault_end", -1, -1, -1,
                ToString(ev.kind), ev.magnitude);
  }
  if (on_transition) {
    on_transition(ev, /*began=*/false);
  }
}

}  // namespace vscale
