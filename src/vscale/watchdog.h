// VscaleWatchdog: the last line of defence when the daemon ITSELF is dead.
//
// The hardened daemon (daemon.h) handles channel failures because its control loop
// still runs. But a stalled or crashed daemon runs nothing: the VM would sit frozen
// at whatever size the last cycle left it, indefinitely. This watchdog models the
// kernel-side guard a production deployment would pair with an RT control daemon
// (a hung-task / softdog equivalent): a periodic check that the daemon's heartbeat
// is still advancing. If the heartbeat goes silent for `missed_cycles` daemon poll
// periods, the watchdog trips once: it unfreezes vCPUs up to the safe floor (the
// emergency unfreeze work is charged to vCPU0's kernel backlog — this is irq/kthread
// context, not the dead daemon's), and tells the daemon via OnWatchdogTrip() so a
// later restart must re-earn its resume confirmations before scaling again.
//
// Deterministic like everything else here: driven by PeriodicTask off the virtual
// clock, no wall-clock anywhere. See docs/FAULTS.md.

#ifndef VSCALE_SRC_VSCALE_WATCHDOG_H_
#define VSCALE_SRC_VSCALE_WATCHDOG_H_

#include <cstdint>

#include "src/base/time.h"
#include "src/guest/kernel.h"
#include "src/sim/event_queue.h"
#include "src/vscale/daemon.h"

namespace vscale {

struct WatchdogConfig {
  // How often the watchdog samples the daemon heartbeat.
  TimeNs check_period = Milliseconds(10);
  // Heartbeat age threshold, in daemon poll periods. Must exceed the daemon's
  // worst-case healthy cycle (poll + read retries + apply retries) by a margin.
  int missed_cycles = 8;
  // Emergency unfreeze target; <= 0 = all vCPUs.
  int safe_vcpu_floor = 0;

  void Validate() const;
};

class VscaleReconciler;

class VscaleWatchdog {
 public:
  VscaleWatchdog(GuestKernel& kernel, VscaleDaemon& daemon, WatchdogConfig config);

  // Arms the periodic check. Call once, after the daemon's Start().
  void Start();
  void Stop();

  // Optional tri-state reconciler (reconciler.h): notified on every trip so a
  // freeze-state wedge behind the dead daemon is audited immediately — "tripped
  // but never reconverged" becomes a detectable, repairable state.
  void set_reconciler(VscaleReconciler* r) { reconciler_ = r; }

  bool tripped() const { return tripped_; }
  int64_t trips() const { return trips_; }
  int64_t recoveries() const { return recoveries_; }
  TimeNs first_trip_ns() const { return first_trip_ns_; }
  TimeNs last_recovery_ns() const { return last_recovery_ns_; }

 private:
  void Check();
  int SafeFloor() const;

  GuestKernel& kernel_;
  const Observers& obs_;
  VscaleDaemon& daemon_;
  WatchdogConfig config_;
  PeriodicTask task_;
  VscaleReconciler* reconciler_ = nullptr;

  bool tripped_ = false;
  int64_t trips_ = 0;
  int64_t recoveries_ = 0;
  TimeNs first_trip_ns_ = 0;
  TimeNs last_recovery_ns_ = 0;
};

}  // namespace vscale

#endif  // VSCALE_SRC_VSCALE_WATCHDOG_H_
