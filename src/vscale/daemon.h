// The vScale user-space daemon: an RT-class thread pinned to vCPU0 that polls the
// vScale channel every period and instructs the balancer to (un)freeze vCPUs so the
// active count tracks the VM's CPU extendability (paper sections 3 & 4.1).
//
// Implemented as a ThreadBody so the daemon's own CPU consumption (channel reads,
// freeze hypercalls, IPIs) is charged inside the simulated guest like any other work.
//
// Hardened control loop (docs/FAULTS.md): failed channel reads are retried with
// bounded deterministic exponential backoff; a payload whose writer sequence stops
// advancing is held (never acted on); consecutive failed cycles trigger graceful
// degradation — unfreeze to a safe vCPU floor and hold until the channel produces
// enough consecutive healthy reads to resume scaling. The daemon heartbeats every
// live cycle; the external VscaleWatchdog (watchdog.h) covers the case where the
// daemon itself is stalled or crashed and cannot run this logic.

#ifndef VSCALE_SRC_VSCALE_DAEMON_H_
#define VSCALE_SRC_VSCALE_DAEMON_H_

#include <functional>
#include <vector>

#include "src/base/time.h"
#include "src/faults/fault_injector.h"
#include "src/guest/kernel.h"
#include "src/guest/thread.h"
#include "src/hypervisor/vscale_channel.h"
#include "src/vscale/balancer.h"

namespace vscale {

struct DaemonConfig {
  TimeNs poll_period = Milliseconds(10);
  // Confirmation counts before acting on a change (1 = act immediately). Both
  // directions filter 10 ms-scale noise in the extendability signal; shrinking waits a
  // little longer because packing threads onto fewer vCPUs costs parallel workloads
  // real throughput, while a short over-provisioned window merely queues one vCPU.
  int shrink_confirmations = 5;
  int grow_confirmations = 2;
  // Never shrink below the parallelism the VM is currently obtaining with *useful*
  // (non-busy-wait) cycles. The extendability channel reports the weight-fair view;
  // a blocking workload often obtains more than that through wakeup boosting, and
  // packing it onto fewer vCPUs would trade real progress for nothing. Spinning
  // workloads are unaffected: their obtainment is mostly waste, which this guard
  // deliberately ignores. The guest computes this from its own thread accounting —
  // no new hypervisor channel is needed.
  bool useful_obtainment_guard = true;

  // --- hardening (docs/FAULTS.md) ---
  // In-cycle retries of a failed channel read, with exponential backoff
  // base * 2^(attempt-1) capped at retry_backoff_cap. Deterministic: no jitter.
  int max_read_retries = 3;
  // Retries of an incomplete freeze/unfreeze batch within one cycle (same backoff).
  int max_apply_retries = 3;
  TimeNs retry_backoff_base = Microseconds(200);
  TimeNs retry_backoff_cap = Milliseconds(5);
  // Consecutive successful reads with an unchanged writer seq before the payload is
  // declared stale and held (not acted on). Must comfortably exceed the worst-case
  // healthy poll/ticker phase drift; seq 0 (never written) is exempt.
  int stale_reads_threshold = 8;
  // Consecutive failed cycles (read retries exhausted) before graceful degradation.
  int unhealthy_cycles = 2;
  // Consecutive healthy, fresh reads before a degraded daemon resumes scaling.
  int resume_confirmations = 3;
  // Degradation unfreezes up to this many vCPUs and holds; <= 0 = all vCPUs.
  int safe_vcpu_floor = 0;

  // --- adversarial hardening (docs/ADVERSARIAL.md); default OFF ---
  // Cross-check a grow suggestion against the guest's own observed demand rate
  // (CPU consumed + runnable-wait per unit time, from the DemandSample window)
  // before acting on it. A channel that promises more vCPUs than the guest's
  // demand could plausibly use — the signature of an inflated extendability —
  // is clamped to the plausible count instead of trusted. Shrinks are never
  // clamped: lying *low* only hurts the liar.
  bool plausibility_clamp = false;
  // Hysteresis: consecutive implausible grow cycles required before the clamp
  // engages, so a genuine demand spike racing the sample window is not capped.
  int clamp_confirmations = 2;

  // Aborts (or reaches the installed invariant handler) on nonsensical values —
  // non-positive periods, confirmation counts < 1, negative retry budgets. Called
  // by the daemon/watchdog constructors; callable directly by tests.
  void Validate() const;
};

class VscaleDaemon : public ThreadBody {
 public:
  VscaleDaemon(GuestKernel& kernel, HvServices& hv, DaemonConfig config);

  // Spawns the daemon thread (RT class, pinned to vCPU0). Call once after guest setup.
  GuestThread& Start();

  Op Next(GuestKernel& kernel, GuestThread& thread) override;

  const VscaleBalancer& balancer() const { return balancer_; }
  const VscaleChannel& channel() const { return channel_; }
  const DaemonConfig& config() const { return config_; }
  int last_target() const { return last_target_; }

  // Optional fault plane, propagated to the channel and balancer. null = no faults.
  void set_fault_injector(FaultInjector* injector);

  // --- health interface (consumed by VscaleWatchdog and the chaos tests) ---
  // Virtual time of the last live cycle start; stops advancing while stalled/crashed.
  TimeNs last_heartbeat() const { return last_heartbeat_; }
  bool degraded() const { return degraded_; }
  // The watchdog found the daemon dead and forced the safe floor; when the daemon
  // comes back it must re-earn resume_confirmations before scaling again.
  void OnWatchdogTrip();

  // --- fault/recovery statistics (registered as metrics by the Testbed) ---
  int64_t cycles() const { return cycles_; }
  int64_t read_retries() const { return read_retries_; }
  int64_t apply_retries() const { return apply_retries_; }
  int64_t stale_detections() const { return stale_detections_; }  // episodes
  int64_t stale_held_cycles() const { return stale_held_cycles_; }
  int64_t degradations() const { return degradations_; }
  int64_t resumes() const { return resumes_; }
  int64_t crashes() const { return crashes_; }
  int64_t restarts() const { return restarts_; }
  // Cycles whose grow target was capped by the plausibility clamp.
  int64_t clamped_cycles() const { return clamped_cycles_; }
  TimeNs first_degrade_ns() const { return first_degrade_ns_; }
  TimeNs last_resume_ns() const { return last_resume_ns_; }

  // Trace hook for Figure 8: (time, active vCPUs after this cycle).
  std::function<void(TimeNs, int)> on_cycle;

 private:
  // Cycle phases. A cycle is: read (with in-cycle retry loop) -> optional apply
  // (with in-cycle retry loop) -> sleep one poll period.
  enum class Phase {
    kRead,          // issue a channel read, run the control decision
    kReadBackoff,   // sleep the backoff, then re-read
    kApply,         // charge the pending freeze/unfreeze batch cost
    kApplyBackoff,  // sleep the backoff before retrying an incomplete batch
    kApplyRetry,    // re-issue the batch after the backoff
    kSleep,         // sleep until the next cycle
  };

  Op CycleStart(GuestKernel& kernel);
  // Runs the balancer toward `target`, accumulating cost; enters kApply.
  void StartApply(int target);
  void DoApply();
  int SafeFloor() const;
  TimeNs Backoff(int attempt) const;
  void Degrade();
  void Resume();
  // Fresh restart after a crash window: all control state is gone with the process.
  void ResetControlState();
  Op FinishCycle(GuestKernel& kernel, TimeNs cost);

  GuestKernel& kernel_;
  const Observers& obs_;
  DaemonConfig config_;
  VscaleChannel channel_;
  VscaleBalancer balancer_;

  Phase phase_ = Phase::kRead;
  int last_target_ = 0;
  int pending_target_ = -1;
  int votes_ = 0;
  TimeNs pending_apply_cost_ = 0;
  // Trailing samples of (time, cpu, spin, wait) so the obtainment guard averages
  // over ~6 poll periods instead of flapping at barrier cadence.
  struct DemandSample {
    TimeNs time = 0;
    TimeNs cpu = 0;
    TimeNs spin = 0;
    TimeNs wait = 0;
  };
  static constexpr int kDemandWindow = 6;
  DemandSample samples_[kDemandWindow];
  int sample_head_ = 0;
  int sample_count_ = 0;

  // --- hardening state ---
  FaultInjector* faults_ = nullptr;
  TimeNs last_heartbeat_ = 0;
  TimeNs backoff_ = 0;
  int read_attempts_ = 0;    // failed attempts within the current cycle
  int apply_attempts_ = 0;
  int apply_target_ = -1;    // batch being (re)tried; -1 = none
  bool apply_complete_ = true;
  int failed_cycles_ = 0;    // consecutive cycles whose read retries all failed
  int healthy_streak_ = 0;   // consecutive healthy fresh reads
  uint64_t last_seq_ = 0;
  int stale_streak_ = 0;
  bool degraded_ = false;
  bool crashed_ = false;
  int implausible_streak_ = 0;   // consecutive grow cycles that failed the check
  int64_t clamped_cycles_ = 0;
  int64_t cycles_ = 0;
  int64_t read_retries_ = 0;
  int64_t apply_retries_ = 0;
  int64_t stale_detections_ = 0;
  int64_t stale_held_cycles_ = 0;
  int64_t degradations_ = 0;
  int64_t resumes_ = 0;
  int64_t crashes_ = 0;
  int64_t restarts_ = 0;
  TimeNs first_degrade_ns_ = 0;
  TimeNs last_resume_ns_ = 0;
};

}  // namespace vscale

#endif  // VSCALE_SRC_VSCALE_DAEMON_H_
