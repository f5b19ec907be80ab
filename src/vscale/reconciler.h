// VscaleReconciler: a tri-state audit over the freeze protocol's three views.
//
// The freeze handshake leaves its state in three places that are only eventually
// consistent: the daemon's believed active-vCPU count (last_target), the
// hypervisor's per-vCPU frozen bits (Domain::hv_freeze_mask), and the guest's
// cpu_freeze_mask (GuestKernel::freeze_mask). With perfect delivery they agree
// within one daemon cycle. Under the delivery fault domain (docs/FAULTS.md) they
// can wedge apart: a dropped kPortFreeze strands a frozen vCPU mid-evacuation, a
// perturbed hypervisor bit silently halves a domain's credit, a stalled daemon
// believes a size the guest never reached.
//
// The reconciler is the daemon-side heartbeat audit that closes that loop: a
// periodic cross-check of the three views, per-vCPU divergence timestamping, and
// a repair — re-issuing SCHEDOP_freezecpu toward the guest's authoritative mask,
// re-kicking a wedged evacuation, re-waking a vCPU left hypervisor-blocked over
// queued runnable threads (the lost-wakeup shape tick_rescue cannot reach in a
// fully idle domain), unfreezing back up to the daemon's believed size — once a
// divergence outlives a configurable grace window (transient in-cycle
// disagreement must never trigger repair). The watchdog notifies it on
// every trip so "tripped but never reconverged" is audited immediately rather
// than at the next period boundary.
//
// Like the watchdog this is kernel/irq context, not the daemon thread: repair
// costs are charged to vCPU0's kernel backlog. Deterministic: PeriodicTask off
// the virtual clock, no Rng. Constructed only when configured, so an unhardened
// run provably schedules nothing extra (the digest gate relies on this).

#ifndef VSCALE_SRC_VSCALE_RECONCILER_H_
#define VSCALE_SRC_VSCALE_RECONCILER_H_

#include <cstdint>
#include <vector>

#include "src/base/time.h"
#include "src/guest/kernel.h"
#include "src/hypervisor/hv_services.h"
#include "src/sim/event_queue.h"
#include "src/vscale/daemon.h"

namespace vscale {

struct ReconcilerConfig {
  // Audit cadence. Coarser than the daemon poll period: the reconciler is a
  // backstop, not a second control loop.
  TimeNs check_period = Milliseconds(20);
  // How long a divergence must persist before repair. Must exceed the freeze
  // handshake's healthy completion time (IPI delivery + evacuation) so normal
  // mid-handshake disagreement never triggers a repair.
  TimeNs grace = Milliseconds(30);

  void Validate() const;
};

class VscaleReconciler {
 public:
  // `daemon` may be null (no daemon-belief leg: guest vs hypervisor only).
  VscaleReconciler(GuestKernel& kernel, HvServices& hv, VscaleDaemon* daemon,
                   ReconcilerConfig config);

  // Arms the periodic audit. Call once, after the daemon's Start().
  void Start();
  void Stop();

  // Watchdog wiring: a trip means the control plane already missed its
  // deadline, so audit the tri-state now instead of waiting out the period.
  void OnWatchdogTrip();

  // vscale.reconcile.{cycles,divergence_detected,repairs} metric sources.
  int64_t cycles() const { return cycles_; }
  int64_t divergence_detected() const { return divergence_detected_; }
  int64_t repairs() const { return repairs_; }
  int64_t converged() const { return converged_; }
  bool divergent() const { return prev_divergent_; }
  TimeNs first_divergence_ns() const { return first_divergence_ns_; }
  TimeNs last_repair_ns() const { return last_repair_ns_; }

 private:
  void Audit();
  // Repairs vCPU `i`'s leg of the tri-state; returns the kernel-context cost.
  TimeNs RepairVcpu(int i, bool guest_frozen, bool hv_frozen, bool lost_wake);

  GuestKernel& kernel_;
  const Observers& obs_;
  HvServices& hv_;
  VscaleDaemon* daemon_;  // null: skip the believed-count leg
  ReconcilerConfig config_;
  PeriodicTask task_;

  // Per-vCPU divergence start (guest/hv mask disagreement or wedged
  // evacuation); -1 while that vCPU's views agree.
  std::vector<TimeNs> diverged_since_;
  // Daemon-belief leg divergence start (believed size vs online count).
  TimeNs daemon_diverged_since_ = -1;
  bool prev_divergent_ = false;

  int64_t cycles_ = 0;
  int64_t divergence_detected_ = 0;  // divergence episodes opened
  int64_t repairs_ = 0;              // repair actions issued past grace
  int64_t converged_ = 0;            // divergent -> all-clean transitions
  TimeNs first_divergence_ns_ = 0;
  TimeNs last_repair_ns_ = 0;
};

}  // namespace vscale

#endif  // VSCALE_SRC_VSCALE_RECONCILER_H_
