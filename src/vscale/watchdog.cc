#include "src/vscale/watchdog.h"

#include <algorithm>

#include "src/base/check.h"
#include "src/base/trace.h"
#include "src/obs/coverage.h"
#include "src/vscale/reconciler.h"

namespace vscale {

void WatchdogConfig::Validate() const {
  VS_REQUIRE(check_period > 0,
             "WatchdogConfig.check_period must be positive (got %lld ns)",
             static_cast<long long>(check_period));
  VS_REQUIRE(missed_cycles >= 1,
             "WatchdogConfig.missed_cycles must be >= 1 (got %d)", missed_cycles);
}

VscaleWatchdog::VscaleWatchdog(GuestKernel& kernel, VscaleDaemon& daemon,
                               WatchdogConfig config)
    : kernel_(kernel),
      obs_(kernel.observers()),
      daemon_(daemon),
      config_(config),
      task_(kernel.sim(), config.check_period, [this] { Check(); }) {
  config_.Validate();
}

void VscaleWatchdog::Start() { task_.Start(); }

void VscaleWatchdog::Stop() { task_.Stop(); }

int VscaleWatchdog::SafeFloor() const {
  const int floor =
      config_.safe_vcpu_floor <= 0 ? kernel_.n_cpus() : config_.safe_vcpu_floor;
  return std::min(floor, kernel_.n_cpus());
}

void VscaleWatchdog::Check() {
  const TimeNs now = kernel_.NowNs();
  const TimeNs deadline =
      static_cast<TimeNs>(config_.missed_cycles) * daemon_.config().poll_period;
  const TimeNs age = now - daemon_.last_heartbeat();
  if (age <= deadline) {
    if (tripped_) {
      // The daemon is heartbeating again (stall window closed or restart done).
      tripped_ = false;
      ++recoveries_;
      if (CoverageMap* cov = obs_.cover) cov->OnWatchdogRecovery();
      last_recovery_ns_ = now;
      if (Tracer* tr = obs_.trace) {
        tr->Instant(now, TraceCategory::kVscale, "watchdog_recover",
                    kernel_.domain().id(), 0, -1);
      }
    }
    return;
  }
  if (tripped_) {
    return;  // already degraded; nothing more to force until it recovers
  }
  tripped_ = true;
  ++trips_;
  // Before daemon_.OnWatchdogTrip() below: the pair feature wants the daemon
  // state the trip landed on, not the state the trip forces it into.
  if (CoverageMap* cov = obs_.cover) cov->OnWatchdogTrip();
  if (first_trip_ns_ == 0) {
    first_trip_ns_ = now;
  }
  if (Tracer* tr = obs_.trace) {
    tr->Instant(now, TraceCategory::kVscale, "watchdog_trip", kernel_.domain().id(), 0,
                -1, "heartbeat_age_ns", age);
  }
  // Emergency unfreeze to the safe floor. This runs in kernel context (the softdog
  // model), not the dead daemon's: the unfreeze work lands on vCPU0's kernel
  // backlog, to be consumed before thread work like any irq bottom half.
  TimeNs emergency_cost = 0;
  for (int i = 1; i < kernel_.n_cpus() && kernel_.online_cpus() < SafeFloor(); ++i) {
    if (kernel_.IsFrozen(i)) {
      emergency_cost += kernel_.UnfreezeCpu(i);
    }
  }
  kernel_.cpu(0).pending_kernel_ns += emergency_cost;
  daemon_.OnWatchdogTrip();
  if (reconciler_ != nullptr) {
    reconciler_->OnWatchdogTrip();
  }
}

}  // namespace vscale
