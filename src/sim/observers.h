// Observers: the one seam through which a simulation reports to its pure
// observers — the flight recorder (src/base/trace.h), the stall accountant and
// the coverage map (src/obs/). Each Simulator owns one (Simulator::observers());
// a null pointer means that observer is off. Hook sites call through it:
//
//   if (StallAccountant* acct = obs.stall) acct->OnIpiSent(dom, vcpu, now);
//
// so an unbound hook is a pointer read and one branch and never evaluates its
// arguments, and two simulations in one process are observed independently.
// Simulator and Machine hold the struct by value, so there the read is one
// load; GuestKernel, the vScale objects and VscaleChannel keep a reference
// from construction, so there it is two dependent loads.
// Observers never mutate simulation state: binding one cannot change a run's
// StateDigest. Testbed binds the struct for harness runs
// (docs/OBSERVABILITY.md).

#ifndef VSCALE_SRC_SIM_OBSERVERS_H_
#define VSCALE_SRC_SIM_OBSERVERS_H_

namespace vscale {

class Tracer;
class StallAccountant;
class CoverageMap;

struct Observers {
  Tracer* trace = nullptr;
  StallAccountant* stall = nullptr;
  CoverageMap* cover = nullptr;
};

}  // namespace vscale

#endif  // VSCALE_SRC_SIM_OBSERVERS_H_
