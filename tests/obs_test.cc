// Tests for the stall-attribution profiler (src/obs/): synthetic-timeline unit
// checks of the bucket state machine, exhaustiveness under a chaotic faulted
// run, the CSV round trip through the stall_report loader, and the
// paper-acceptance claim itself — under vScale the primary domain's
// scheduler-attributable stall share (runnable wait + LHP spin) drops.

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/metrics_registry.h"
#include "src/base/time.h"
#include "src/base/trace.h"
#include "src/faults/fault_plan.h"
#include "src/metrics/trace_export.h"
#include "src/obs/stall_accounting.h"
#include "src/obs/stall_report.h"
#include "src/workloads/omp_app.h"
#include "src/workloads/testbed.h"

namespace vscale {
namespace {

// Every test drives the process-global accountant; start and end clean so
// ordering between tests cannot leak state.
class StallTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StallAccountant::Global().Reset();
    MetricsRegistry::Global().Clear();
  }
  void TearDown() override {
    StallAccountant::Global().Reset();
    MetricsRegistry::Global().Clear();
  }
};

TEST_F(StallTest, SyntheticTimelineIsExhaustive) {
  StallAccountant& a = StallAccountant::Global();
  a.BeginRun("unit");
  a.OnVcpuCreated(0, 0, 0);           // born blocked+idle at t=0
  // idle 100ns, now waiting for a pCPU; then runnable 150ns, now on a pCPU
  a.OnTransition(0, 0, 100, VcpuState::kBlocked, VcpuState::kRunnable);
  a.OnTransition(0, 0, 250, VcpuState::kRunnable, VcpuState::kRunning);
  a.OnRunningAdvance(0, 0, 500);      // 500ns attributed running...
  a.OnSpinAdvance(0, 0, 200);         // ...of which 200ns was kernel spin
  a.SetBlockReason(0, 0, StallBlockReason::kFutex);
  // futex-sleeps at 750
  a.OnTransition(0, 0, 750, VcpuState::kRunning, VcpuState::kBlocked);

  std::string error;
  EXPECT_TRUE(a.CheckExhaustive(1000, &error)) << error;
  EXPECT_EQ(a.BucketNs(0, 0, StallBucket::kIdle), 100);
  EXPECT_EQ(a.BucketNs(0, 0, StallBucket::kRunnableWaitingPcpu), 150);
  EXPECT_EQ(a.BucketNs(0, 0, StallBucket::kRunning), 300);
  EXPECT_EQ(a.BucketNs(0, 0, StallBucket::kLhpSpinning), 200);

  ASSERT_EQ(a.wake_to_dispatch().count(), 1);
  EXPECT_EQ(a.wake_to_dispatch().Quantile(1.0), 150);

  a.FinishRun(1000, Observers{});  // closes the open futex interval: 750..1000
  EXPECT_EQ(a.BucketNs(0, 0, StallBucket::kFutexBlocked), 250);
  int64_t total = 0;
  for (int b = 0; b < kStallBucketCount; ++b) {
    total += a.BucketNs(0, 0, static_cast<StallBucket>(b));
  }
  EXPECT_EQ(total, 1000);
}

TEST_F(StallTest, FlagBucketsDeriveWithFrozenPrecedence) {
  StallAccountant& a = StallAccountant::Global();
  a.BeginRun("unit");
  a.OnVcpuCreated(1, 0, 0);
  // An event posted to a woken-but-undispatched vCPU opens the delayed-IPI
  // window; the vScale freeze then reclassifies the wait as intentional.
  a.OnTransition(1, 0, 0, VcpuState::kBlocked, VcpuState::kRunnable);
  a.OnEventPosted(1, 0, 100);              // 0..100 runnable_wait, then ipi
  a.OnFrozenChanged(1, 0, 300, true);      // 100..300 ipi, then frozen wins
  a.OnFrozenChanged(1, 0, 600, false);     // 300..600 frozen
  a.OnStealDisplaced(1, 0, 700);           // 600..700 ipi again, then stolen
  a.FinishRun(900, Observers{});           // 700..900 stolen

  EXPECT_EQ(a.BucketNs(1, 0, StallBucket::kRunnableWaitingPcpu), 100);
  EXPECT_EQ(a.BucketNs(1, 0, StallBucket::kIpiInFlight), 300);
  EXPECT_EQ(a.BucketNs(1, 0, StallBucket::kFrozen), 300);
  EXPECT_EQ(a.BucketNs(1, 0, StallBucket::kStolen), 200);
  EXPECT_EQ(a.BucketNs(1, 0, StallBucket::kRunning), 0);
}

TEST_F(StallTest, IpiLatencyMatchingAndLeftovers) {
  StallAccountant& a = StallAccountant::Global();
  a.BeginRun("unit");
  a.OnVcpuCreated(0, 2, 0);
  a.OnIpiSent(0, 2, 1000);
  a.OnIpiDelivered(0, 2, 1800);       // matched: 800ns
  a.OnIpiDelivered(0, 2, 1900);       // empty FIFO: ignored
  a.OnIpiSent(0, 2, 2000);            // never delivered
  ASSERT_EQ(a.ipi_deliver().count(), 1);
  EXPECT_EQ(a.ipi_deliver().Quantile(1.0), 800);
  a.FinishRun(3000, Observers{});
  EXPECT_EQ(a.ipi_unmatched_sends(), 1);
}

// Runs one quickstart-shaped testbed cell (full consolidated pool, full-length
// app — small cells finish before the desktops' crunch phases ever force the
// balancer to act) with stall accounting on; the Testbed destructor finishes
// the run and publishes metrics under "<policy>." like the harnesses.
void RunStallCell(Policy policy, const char* fault_spec = nullptr) {
  TestbedConfig cfg;
  cfg.policy = policy;
  cfg.primary_vcpus = 4;
  cfg.seed = 42;
  cfg.stall_accounting = true;
  if (fault_spec != nullptr) {
    std::string error;
    ASSERT_TRUE(ParseFaultPlan(fault_spec, &cfg.faults, &error)) << error;
  }
  Testbed bed(cfg);
  ASSERT_TRUE(bed.stall_enabled());
  OmpAppConfig app_cfg = NpbProfile("lu", cfg.primary_vcpus, kSpinCountActive);
  OmpApp app(bed.primary(), app_cfg, 23);
  bed.sim().RunUntil(Milliseconds(200));
  app.Start();
  ASSERT_TRUE(bed.RunUntil([&] { return app.done(); }, Seconds(600)));
}

TEST_F(StallTest, ChaoticFaultedRunStaysExhaustive) {
  // The satellite-3 gate: freezes, daemon crashes, steal bursts and injected
  // latency must not open a hole in the bucket decomposition.
  RunStallCell(Policy::kVscale,
               "chan-stale@400ms+600ms;stall@1500ms+800ms;"
               "freeze-fail@3s+400ms;latency@4s+300ms*12;steal@5s+500ms*1");
  StallAccountant& a = StallAccountant::Global();
  EXPECT_GT(a.samples(), 0);
  EXPECT_EQ(a.exhaustive_failures(), 0);
  EXPECT_GT(a.wake_to_dispatch().count(), 0);
  EXPECT_GT(a.ipi_deliver().count(), 0);
  // The steal burst must surface as stolen time somewhere in the pool.
  int64_t stolen = 0;
  for (int dom = 0; dom < 8; ++dom) {
    stolen += a.DomainBucketNs(dom, StallBucket::kStolen);
  }
  EXPECT_GT(stolen, 0);
}

TEST_F(StallTest, BaselineVsVscaleShareShiftSurvivesCsvRoundTrip) {
  RunStallCell(Policy::kBaseline);
  RunStallCell(Policy::kVscale);

  std::stringstream csv;
  StallAccountant::Global().WriteCsv(csv);
  StallSeries series;
  std::string error;
  ASSERT_TRUE(LoadStallCsv(csv, &series, &error)) << error;
  ASSERT_EQ(series.runs.size(), 2u);
  EXPECT_EQ(series.runs[0], "xen_linux");
  EXPECT_EQ(series.runs[1], "vscale");

  auto domains = BuildDomainBlame(BuildVcpuBlame(series));
  ASSERT_FALSE(domains.empty());

  // The acceptance criterion: the primary domain's scheduler-attributable
  // stall share (runnable wait + LHP spin) drops under vScale.
  const double base_share =
      DomainBucketShare(domains, "xen_linux", 0,
                        StallBucket::kRunnableWaitingPcpu) +
      DomainBucketShare(domains, "xen_linux", 0, StallBucket::kLhpSpinning);
  const double vscale_share =
      DomainBucketShare(domains, "vscale", 0,
                        StallBucket::kRunnableWaitingPcpu) +
      DomainBucketShare(domains, "vscale", 0, StallBucket::kLhpSpinning);
  EXPECT_GT(base_share, 0.0);
  EXPECT_LT(vscale_share, base_share);

  // Round trip: the loader's per-vCPU totals equal the accountant's.
  StallAccountant& a = StallAccountant::Global();
  for (const auto& v : BuildVcpuBlame(series)) {
    if (v.run != "vscale" || v.vcpu < 0) {
      continue;
    }
    for (int b = 0; b < kStallBucketCount; ++b) {
      EXPECT_EQ(v.ns[b], a.BucketNs(v.domain, v.vcpu, static_cast<StallBucket>(b)))
          << "dom " << v.domain << " vcpu " << v.vcpu << " bucket " << b;
    }
  }

  // The Testbed destructor published each run's totals under stable names.
  MetricsRegistry& reg = MetricsRegistry::Global();
  EXPECT_TRUE(reg.Has("xen_linux.stall.dom0.runnable_waiting_pcpu_ns"));
  EXPECT_TRUE(reg.Has("vscale.stall.dom0.frozen_ns"));
  EXPECT_TRUE(reg.Has("vscale.stall.lat.wake_to_dispatch.p95_ns"));
  EXPECT_TRUE(reg.Has("vscale.stall.lat.ipi_deliver.count"));
  EXPECT_TRUE(reg.Has("vscale.stall.lat.freeze_quiesce.count"));
  EXPECT_TRUE(reg.Has("vscale.stall.dom0.scale_ops"));
  EXPECT_GT(reg.Value("vscale.stall.dom0.running_ns"), 0);
  EXPECT_GT(reg.Value("vscale.stall.dom0.scale_ops"), 0);
  EXPECT_GT(reg.Value("vscale.stall.dom0.frozen_ns"), 0);
}

TEST_F(StallTest, InactiveAccountantIgnoresHooks) {
  // A bound accountant outside BeginRun/FinishRun must be harmless and record
  // nothing.
  StallAccountant& a = StallAccountant::Global();
  a.OnVcpuCreated(0, 0, 0);
  a.OnTransition(0, 0, 50, VcpuState::kBlocked, VcpuState::kRunnable);
  EXPECT_EQ(a.BucketNs(0, 0, StallBucket::kIdle), 0);
  EXPECT_FALSE(a.active());
}

// A hand-built two-domain machine (two OpenMP apps contending for two pCPUs)
// whose observers are whatever the caller bound before any domain exists.
struct ObservedRig {
  explicit ObservedRig(const Observers& obs) : machine(Config()) {
    machine.sim().observers() = obs;
    Domain& primary = machine.CreateDomain("primary", 512, 2);
    Domain& rival = machine.CreateDomain("rival", 512, 2);
    primary_kernel = std::make_unique<GuestKernel>(machine, machine.sim(), primary,
                                                   GuestConfig{});
    rival_kernel = std::make_unique<GuestKernel>(machine, machine.sim(), rival,
                                                 GuestConfig{});
    primary_app = std::make_unique<OmpApp>(
        *primary_kernel, NpbProfile("cg", 2, kSpinCountActive), 7);
    rival_app = std::make_unique<OmpApp>(
        *rival_kernel, NpbProfile("lu", 2, kSpinCountActive), 9);
    primary_app->Start();
    rival_app->Start();
  }
  static MachineConfig Config() {
    MachineConfig mc;
    mc.n_pcpus = 2;
    mc.seed = 5;
    return mc;
  }

  Machine machine;
  std::unique_ptr<GuestKernel> primary_kernel;
  std::unique_ptr<GuestKernel> rival_kernel;
  std::unique_ptr<OmpApp> primary_app;
  std::unique_ptr<OmpApp> rival_app;
};

struct Recording {
  std::string trace;
  std::string csv;
};

// Steps every rig to `end` in 1 ms rounds, alternating between them each round,
// then finishes and exports the accountant of the first (observed) rig.
Recording RunRigs(std::vector<ObservedRig*> rigs, Tracer& tracer,
                  StallAccountant& acct) {
  constexpr TimeNs kEnd = Milliseconds(300);
  for (TimeNs t = Milliseconds(1); t <= kEnd; t += Milliseconds(1)) {
    for (ObservedRig* rig : rigs) rig->machine.sim().RunUntil(t);
  }
  acct.FinishRun(kEnd, rigs[0]->machine.sim().observers());
  Recording out;
  std::ostringstream trace;
  WriteChromeTrace(tracer, trace);
  out.trace = trace.str();
  std::ostringstream csv;
  acct.WriteCsv(csv);
  out.csv = csv.str();
  return out;
}

TEST_F(StallTest, ObserversAreScopedToTheirSimulation) {
  Recording solo;
  {
    Tracer tracer;
    tracer.Enable();
    StallAccountant acct;
    acct.BeginRun("rig");
    ObservedRig rig(Observers{&tracer, &acct, nullptr});
    solo = RunRigs({&rig}, tracer, acct);
  }
  ASSERT_NE(solo.trace.find("\"run\""), std::string::npos);
  ASSERT_NE(solo.trace.find("stall_running_ns"), std::string::npos);
  ASSERT_NE(solo.csv.find("rig,"), std::string::npos);

  // The same observed rig stepped in lockstep with an unobserved twin, while
  // the process-wide tracer and accountant are live: neither hears the twin,
  // and the observed rig's exports do not change by a byte.
  GlobalTracer().Clear();
  GlobalTracer().Enable();
  StallAccountant::Global().BeginRun("global");
  Recording paired;
  {
    Tracer tracer;
    tracer.Enable();
    StallAccountant acct;
    acct.BeginRun("rig");
    ObservedRig observed(Observers{&tracer, &acct, nullptr});
    ObservedRig twin(Observers{});
    paired = RunRigs({&observed, &twin}, tracer, acct);
    EXPECT_GT(twin.machine.sim().events_processed(), 0u);
  }
  EXPECT_EQ(GlobalTracer().recorded(), 0u);
  EXPECT_EQ(StallAccountant::Global().samples(), 0);
  GlobalTracer().Disable();
  GlobalTracer().Clear();
  EXPECT_EQ(paired.trace, solo.trace);
  EXPECT_EQ(paired.csv, solo.csv);
}

}  // namespace
}  // namespace vscale
