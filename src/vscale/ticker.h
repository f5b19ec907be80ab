// The hypervisor-side vScale ticker (vscale_ticker_fn in the paper's Xen patch):
// periodically recomputes every SMP-VM's CPU extendability from the credit scheduler's
// runtime data and publishes it to the per-domain vScale channel mailbox.

#ifndef VSCALE_SRC_VSCALE_TICKER_H_
#define VSCALE_SRC_VSCALE_TICKER_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/hypervisor/machine.h"
#include "src/sim/event_queue.h"
#include "src/vscale/extendability.h"

namespace vscale {

class ExtendabilityTicker {
 public:
  // `period` defaults to the cost model's vscale_recalc_period (10 ms).
  //
  // Default options deviate from the paper's Algorithm 1 in two measured ways (both
  // quantified by the ablation benches):
  //  * kNearest rounding instead of ceiling — near saturation the ceiling grants a
  //    vCPU for a sliver of entitlement, which then absorbs all the VM's queueing;
  //  * demand-based accounting — runnable-wait counts as demand, so a VM throttled by
  //    contention is not misclassified as a releaser and its shortfall is not
  //    redistributed as phantom slack.
  explicit ExtendabilityTicker(
      Machine& machine, TimeNs period = 0,
      ExtendabilityOptions options = {.rounding = VcpuRounding::kNearest,
                                      .demand_based = true,
                                      .releaser_margin = 0.85});

  void Start();
  void Stop();
  bool running() const { return task_ && task_->running(); }
  TimeNs period() const { return period_; }

  // One recomputation pass (also callable directly by tests).
  void Recompute();

  int64_t passes() const { return passes_; }

  // Observability: called after each pass with the full result vector (domain order).
  std::function<void(TimeNs, const std::vector<VmExtendability>&)> on_pass;

 private:
  Machine& machine_;
  const Observers& obs_;
  TimeNs period_;
  ExtendabilityOptions options_;
  std::unique_ptr<PeriodicTask> task_;
  int64_t passes_ = 0;
};

}  // namespace vscale

#endif  // VSCALE_SRC_VSCALE_TICKER_H_
