#include "src/metrics/run_metrics.h"

#include "src/base/trace.h"

namespace vscale {

void RegisterMachineMetrics(MetricsRegistry& registry, Machine& machine,
                            const std::string& prefix) {
  Machine* m = &machine;
  registry.RegisterGauge(prefix + "sim.events_processed", [m] {
    return static_cast<int64_t>(m->sim().events_processed());
  });
  // Unprefixed on purpose: machines traced into one ring share its drop count.
  // A nonzero value means trace-derived figures (and trace_lint verdicts)
  // looked at a truncated window. 0 for an untraced machine.
  registry.RegisterGauge("trace.events_dropped", [m] {
    const Tracer* t = m->sim().observers().trace;
    return t != nullptr ? static_cast<int64_t>(t->dropped()) : int64_t{0};
  });
  registry.RegisterGauge(prefix + "hv.context_switches",
                         [m] { return m->context_switches(); });
  registry.RegisterGauge(prefix + "hv.idle_ns_total",
                         [m] { return m->TotalIdleTime(); });
  // BOOST wake telemetry: the grant/denial split shows whether the boost
  // budget (MachineConfig::boost_budget, docs/ADVERSARIAL.md) is biting.
  registry.RegisterGauge(prefix + "sched.boost_grants",
                         [m] { return m->boost_grants(); });
  registry.RegisterGauge(prefix + "sched.boost_denied",
                         [m] { return m->boost_denied(); });
  for (const auto& dptr : machine.domains()) {
    Domain* d = dptr.get();
    const std::string base = prefix + "dom." + SanitizeMetricName(d->name()) + ".";
    registry.RegisterGauge(base + "runtime_ns", [d] { return d->TotalRuntime(); });
    registry.RegisterGauge(base + "wait_ns", [d] { return d->TotalWait(); });
    registry.RegisterGauge(base + "extendability_nvcpus",
                           [d] { return static_cast<int64_t>(d->extendability_nvcpus); });
    auto* kernel = dynamic_cast<GuestKernel*>(d->guest());
    if (kernel == nullptr) {
      continue;
    }
    registry.RegisterGauge(base + "active_vcpus", [kernel] {
      return static_cast<int64_t>(kernel->online_cpus());
    });
    for (int i = 0; i < kernel->n_cpus(); ++i) {
      const std::string vbase = base + "vcpu" + std::to_string(i) + ".";
      registry.RegisterGauge(vbase + "timer_ints",
                             [kernel, i] { return kernel->cpu(i).stats.timer_ints; });
      registry.RegisterGauge(vbase + "resched_ipis", [kernel, i] {
        return kernel->cpu(i).stats.resched_ipis;
      });
      registry.RegisterGauge(vbase + "io_irqs",
                             [kernel, i] { return kernel->cpu(i).stats.io_irqs; });
      registry.RegisterGauge(vbase + "guest_switches", [kernel, i] {
        return kernel->cpu(i).stats.guest_switches;
      });
    }
  }
}

GuestCounters GuestCounters::operator-(const GuestCounters& other) const {
  GuestCounters d;
  d.timer_ints = timer_ints - other.timer_ints;
  d.resched_ipis = resched_ipis - other.resched_ipis;
  d.io_irqs = io_irqs - other.io_irqs;
  d.domain_wait = domain_wait - other.domain_wait;
  d.domain_runtime = domain_runtime - other.domain_runtime;
  return d;
}

GuestCounters SnapshotCounters(const GuestKernel& kernel) {
  GuestCounters c;
  auto& k = const_cast<GuestKernel&>(kernel);
  for (int i = 0; i < k.n_cpus(); ++i) {
    const GuestCpuStats& s = k.cpu(i).stats;
    c.timer_ints += s.timer_ints;
    c.resched_ipis += s.resched_ipis;
    c.io_irqs += s.io_irqs;
  }
  c.domain_wait = k.domain().TotalWait();
  c.domain_runtime = k.domain().TotalRuntime();
  return c;
}

double PerVcpuPerSecond(int64_t count, int vcpus, TimeNs window) {
  if (vcpus <= 0 || window <= 0) {
    return 0.0;
  }
  return static_cast<double>(count) / static_cast<double>(vcpus) / ToSeconds(window);
}

std::vector<NormalizedRow> NormalizeToBaseline(const std::vector<AppRunResult>& runs,
                                               const std::string& baseline_policy) {
  std::vector<NormalizedRow> rows;
  for (const auto& r : runs) {
    TimeNs base = 0;
    for (const auto& b : runs) {
      if (b.app == r.app && b.policy == baseline_policy) {
        base = b.duration;
        break;
      }
    }
    if (base <= 0) {
      continue;
    }
    rows.push_back({r.app, r.policy,
                    static_cast<double>(r.duration) / static_cast<double>(base)});
  }
  return rows;
}

}  // namespace vscale
