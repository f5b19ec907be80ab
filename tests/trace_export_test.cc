// Golden-pipeline tests for the trace exporter and validator: hand-built buffers
// exercise the B/E balancing edge cases and pin the exact exported bytes (Chrome
// JSON and the stall CSV), and a real instrumented simulation run is
// exported and re-parsed to check the documented schema guarantees (valid JSON,
// per-track monotonic timestamps, all four layer categories, multiple domains).

#include "src/metrics/trace_export.h"
#include "src/metrics/trace_validate.h"

#include <cstdio>
#include <sstream>

#include <gtest/gtest.h>

#include "src/obs/stall_accounting.h"
#include "src/workloads/omp_app.h"
#include "src/workloads/testbed.h"

namespace vscale {
namespace {

std::string Export(const Tracer& t) {
  std::ostringstream os;
  WriteChromeTrace(t, os);
  return os.str();
}

// --- golden bytes ---------------------------------------------------------
// The export is a pure function of the ring: these pin it byte for byte, so a
// faster writer cannot silently change the file Perfetto and trace_lint read.

// Every exporter branch in one buffer: instant/counter layout, a mirrored run
// slice with args on its E, an orphan E, dangling Bs stacked on one track,
// escaped domain and arg names, an unnamed domain, a named domain with no
// events, and a timestamp wide enough to exercise the integer part.
void BuildGoldenTracer(Tracer& t) {
  t.Enable();
  t.SetDomainName(0, "pri\"ma\\ry\n\t\x01");
  t.SetDomainName(2, "idle");
  t.Record(0, TraceCategory::kSim, TracePhase::kInstant, "event_fire", -1, -1,
           -1, "pending", 2);
  t.Record(1500, TraceCategory::kHypervisor, TracePhase::kInstant, "tick", -1,
           -1, 1, nullptr, 0);
  t.Record(2001, TraceCategory::kHypervisor, TracePhase::kEnd, "run", 0, 0, 0,
           nullptr, 0);
  t.Record(2500, TraceCategory::kHypervisor, TracePhase::kBegin, "run", 0, 1, 2,
           nullptr, 0);
  t.Record(3000, TraceCategory::kGuest, TracePhase::kInstant, "ipi_send", 0, 1,
           -1, "to\"\\", -7);
  t.Record(3333, TraceCategory::kHypervisor, TracePhase::kCounter, "credit_ns",
           0, -1, -1, "value", 12345);
  t.Record(4000, TraceCategory::kGuest, TracePhase::kBegin, "spin", 1, 0, -1,
           "lock", 3);
  t.Record(4500, TraceCategory::kHypervisor, TracePhase::kEnd, "run", 0, 1, 2,
           "why", 1);
  t.Record(5000, TraceCategory::kHypervisor, TracePhase::kBegin, "run", 1, 0, 3,
           nullptr, 0);
  t.Record(123456789012, TraceCategory::kVscale, TracePhase::kInstant,
           "apply_target", 1, -1, -1, "target", 2);
}

// Six records into a four-slot ring: the retained window starts mid-ring and
// opens with an E whose B was overwritten.
void BuildWrappedTracer(Tracer& t) {
  t.Enable();
  t.Record(10, TraceCategory::kHypervisor, TracePhase::kBegin, "run", 0, 0, 0,
           nullptr, 0);
  t.Record(20, TraceCategory::kSim, TracePhase::kInstant, "event_fire", -1, -1,
           -1, nullptr, 0);
  t.Record(30, TraceCategory::kHypervisor, TracePhase::kEnd, "run", 0, 0, 0,
           nullptr, 0);
  t.Record(40, TraceCategory::kHypervisor, TracePhase::kBegin, "run", 0, 1, 1,
           nullptr, 0);
  t.Record(50, TraceCategory::kHypervisor, TracePhase::kEnd, "run", 0, 1, 1,
           nullptr, 0);
  t.Record(60, TraceCategory::kSim, TracePhase::kInstant, "event_fire", -1, -1,
           -1, "pending", 0);
}

// Two CSV rows: one vCPU's final totals and its domain aggregate.
void BuildTwoRowStall(StallAccountant& a) {
  a.BeginRun("xen_linux");
  a.OnVcpuCreated(0, 0, 0);
  a.OnTransition(0, 0, 100, VcpuState::kBlocked, VcpuState::kRunnable);
  a.OnTransition(0, 0, 250, VcpuState::kRunnable, VcpuState::kRunning);
  a.OnRunningAdvance(0, 0, 500);
  a.OnSpinAdvance(0, 0, 200);
  a.SetBlockReason(0, 0, StallBlockReason::kFutex);
  a.OnTransition(0, 0, 750, VcpuState::kRunning, VcpuState::kBlocked);
  a.FinishRun(1000, Observers{});
}

TEST(TraceExportGoldenTest, EveryBranch) {
  Tracer t(32);
  BuildGoldenTracer(t);
  EXPECT_EQ(Export(t), R"golden({"displayTimeUnit":"ms","traceEvents":[
{"name":"process_name","ph":"M","pid":1,"args":{"name":"machine"}},
{"name":"process_name","ph":"M","pid":10,"args":{"name":"dom0 pri\"ma\\ry\n\t\u0001"}},
{"name":"process_name","ph":"M","pid":11,"args":{"name":"dom1"}},
{"name":"process_name","ph":"M","pid":12,"args":{"name":"dom2 idle"}},
{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"pCPU0"}},
{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"pCPU1"}},
{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"pCPU2"}},
{"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"pCPU3"}},
{"name":"thread_name","ph":"M","pid":1,"tid":99,"args":{"name":"engine"}},
{"name":"thread_name","ph":"M","pid":10,"tid":0,"args":{"name":"vCPU0"}},
{"name":"thread_name","ph":"M","pid":10,"tid":1,"args":{"name":"vCPU1"}},
{"name":"thread_name","ph":"M","pid":10,"tid":63,"args":{"name":"domain"}},
{"name":"thread_name","ph":"M","pid":11,"tid":0,"args":{"name":"vCPU0"}},
{"name":"thread_name","ph":"M","pid":11,"tid":63,"args":{"name":"domain"}},
{"name":"event_fire","ph":"i","pid":1,"tid":99,"ts":0.000,"cat":"sim","s":"t","args":{"pending":2}},
{"name":"tick","ph":"i","pid":1,"tid":1,"ts":1.500,"cat":"hypervisor","s":"t"},
{"name":"run","ph":"B","pid":10,"tid":1,"ts":2.500,"cat":"hypervisor"},
{"name":"d0/v1","ph":"B","pid":1,"tid":2,"ts":2.500,"cat":"hypervisor"},
{"name":"ipi_send","ph":"i","pid":10,"tid":1,"ts":3.000,"cat":"guest","s":"t","args":{"to\"\\":-7}},
{"name":"credit_ns","ph":"C","pid":10,"tid":63,"ts":3.333,"cat":"hypervisor","args":{"value":12345}},
{"name":"spin","ph":"B","pid":11,"tid":0,"ts":4.000,"cat":"guest","args":{"lock":3}},
{"name":"run","ph":"E","pid":10,"tid":1,"ts":4.500,"cat":"hypervisor","args":{"why":1}},
{"name":"d0/v1","ph":"E","pid":1,"tid":2,"ts":4.500,"cat":"hypervisor","args":{"why":1}},
{"name":"run","ph":"B","pid":11,"tid":0,"ts":5.000,"cat":"hypervisor"},
{"name":"d1/v0","ph":"B","pid":1,"tid":3,"ts":5.000,"cat":"hypervisor"},
{"name":"apply_target","ph":"i","pid":11,"tid":63,"ts":123456789.012,"cat":"vscale","s":"t","args":{"target":2}},
{"name":"d1/v0","ph":"E","pid":1,"tid":3,"ts":123456789.012,"cat":"hypervisor"},
{"name":"run","ph":"E","pid":11,"tid":0,"ts":123456789.012,"cat":"hypervisor"},
{"name":"spin","ph":"E","pid":11,"tid":0,"ts":123456789.012,"cat":"guest"}
]}
)golden");
}

TEST(TraceExportGoldenTest, RingWraparound) {
  Tracer t(4);
  BuildWrappedTracer(t);
  ASSERT_GT(t.dropped(), 0u);
  EXPECT_EQ(Export(t), R"golden({"displayTimeUnit":"ms","traceEvents":[
{"name":"process_name","ph":"M","pid":1,"args":{"name":"machine"}},
{"name":"process_name","ph":"M","pid":10,"args":{"name":"dom0"}},
{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"pCPU0"}},
{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"pCPU1"}},
{"name":"thread_name","ph":"M","pid":1,"tid":99,"args":{"name":"engine"}},
{"name":"thread_name","ph":"M","pid":10,"tid":0,"args":{"name":"vCPU0"}},
{"name":"thread_name","ph":"M","pid":10,"tid":1,"args":{"name":"vCPU1"}},
{"name":"run","ph":"B","pid":10,"tid":1,"ts":0.040,"cat":"hypervisor"},
{"name":"d0/v1","ph":"B","pid":1,"tid":1,"ts":0.040,"cat":"hypervisor"},
{"name":"run","ph":"E","pid":10,"tid":1,"ts":0.050,"cat":"hypervisor"},
{"name":"d0/v1","ph":"E","pid":1,"tid":1,"ts":0.050,"cat":"hypervisor"},
{"name":"event_fire","ph":"i","pid":1,"tid":99,"ts":0.060,"cat":"sim","s":"t","args":{"pending":0}}
]}
)golden");
}

// Each tracer warns about its own dropped events once, whatever other tracers
// have exported before it.
TEST(TraceExportTest, DropWarningIsPerTracer) {
  const std::string path = testing::TempDir() + "drop_warning.trace.json";
  Tracer a(4);
  Tracer b(4);
  BuildWrappedTracer(a);
  BuildWrappedTracer(b);
  auto warnings = [&](const Tracer& t) {
    testing::internal::CaptureStderr();
    EXPECT_TRUE(WriteChromeTraceFile(t, path, nullptr));
    const std::string err = testing::internal::GetCapturedStderr();
    return err.find("trace: WARNING: ring dropped") != std::string::npos;
  };
  EXPECT_TRUE(warnings(a));
  EXPECT_FALSE(warnings(a));
  EXPECT_TRUE(warnings(b));
  std::remove(path.c_str());
}

TEST(TraceExportGoldenTest, Empty) {
  Tracer t(8);
  EXPECT_EQ(Export(t), R"golden({"displayTimeUnit":"ms","traceEvents":[
{"name":"process_name","ph":"M","pid":1,"args":{"name":"machine"}}
]}
)golden");
}

TEST(StallCsvGoldenTest, TwoRows) {
  StallAccountant a;
  BuildTwoRowStall(a);
  std::ostringstream os;
  a.WriteCsv(os);
  EXPECT_EQ(os.str(), R"golden(run,ts_ns,domain,vcpu,bucket,cum_ns
xen_linux,1000,0,0,running,300
xen_linux,1000,0,0,runnable_waiting_pcpu,150
xen_linux,1000,0,0,lhp_spinning,200
xen_linux,1000,0,0,futex_blocked,250
xen_linux,1000,0,0,ipi_in_flight,0
xen_linux,1000,0,0,frozen,0
xen_linux,1000,0,0,stolen,0
xen_linux,1000,0,0,idle,100
xen_linux,1000,0,-1,running,300
xen_linux,1000,0,-1,runnable_waiting_pcpu,150
xen_linux,1000,0,-1,lhp_spinning,200
xen_linux,1000,0,-1,futex_blocked,250
xen_linux,1000,0,-1,ipi_in_flight,0
xen_linux,1000,0,-1,frozen,0
xen_linux,1000,0,-1,stolen,0
xen_linux,1000,0,-1,idle,100
)golden");
}

TEST(TraceExportTest, EmptyTracerIsValid) {
  Tracer t(8);
  TraceStats stats;
  std::string error;
  EXPECT_TRUE(ValidateChromeTrace(Export(t), &error, &stats)) << error;
  EXPECT_EQ(stats.events, 0u);
}

TEST(TraceExportTest, InstantAndCounterLayout) {
  Tracer t(16);
  t.Enable();
  t.SetDomainName(0, "primary");
  t.Record(1000, TraceCategory::kGuest, TracePhase::kInstant, "ipi_send", 0, 1,
           -1, "to", 3);
  t.Record(2000, TraceCategory::kHypervisor, TracePhase::kCounter, "credit_ns",
           0, -1, -1, "value", 12345);
  t.Record(3000, TraceCategory::kSim, TracePhase::kInstant, "event_fire", -1,
           -1, -1, "pending", 2);
  const std::string json = Export(t);
  TraceStats stats;
  std::string error;
  ASSERT_TRUE(ValidateChromeTrace(json, &error, &stats)) << error;
  EXPECT_EQ(stats.events, 3u);
  // Guest instant on the domain's vCPU track; counter on the domain pseudo track;
  // sim instant on the machine engine track.
  EXPECT_TRUE(stats.tracks.count({kTraceDomainPidBase, 1}));
  EXPECT_TRUE(stats.tracks.count({kTraceDomainPidBase, kTraceDomainTid}));
  EXPECT_TRUE(stats.tracks.count({kTraceMachinePid, kTraceEngineTid}));
  EXPECT_TRUE(stats.categories.count("guest"));
  EXPECT_TRUE(stats.categories.count("hypervisor"));
  EXPECT_TRUE(stats.categories.count("sim"));
  // Domain display name flows into the process metadata.
  EXPECT_NE(json.find("dom0 primary"), std::string::npos);
}

TEST(TraceExportTest, RunSlicesMirroredAndBalanced) {
  Tracer t(16);
  t.Enable();
  t.Record(100, TraceCategory::kHypervisor, TracePhase::kBegin, "run", 0, 1, 2,
           nullptr, 0);
  t.Record(400, TraceCategory::kHypervisor, TracePhase::kEnd, "run", 0, 1, 2,
           nullptr, 0);
  TraceStats stats;
  std::string error;
  const std::string json = Export(t);
  ASSERT_TRUE(ValidateChromeTrace(json, &error, &stats)) << error;
  // The slice appears on the domain vCPU track and is mirrored onto the machine
  // pCPU track under the "d<dom>/v<vcpu>" label.
  EXPECT_TRUE(stats.tracks.count({kTraceDomainPidBase, 1}));
  EXPECT_TRUE(stats.tracks.count({kTraceMachinePid, 2}));
  EXPECT_NE(json.find("d0/v1"), std::string::npos);
}

TEST(TraceExportTest, OrphanEndDroppedDanglingBeginClosed) {
  Tracer t(16);
  t.Enable();
  // E with no B (its begin fell off the ring), then a B never closed.
  t.Record(50, TraceCategory::kHypervisor, TracePhase::kEnd, "run", 0, 0, 0,
           nullptr, 0);
  t.Record(60, TraceCategory::kHypervisor, TracePhase::kBegin, "run", 0, 1, 1,
           nullptr, 0);
  t.Record(90, TraceCategory::kGuest, TracePhase::kInstant, "ipi_send", 0, 1,
           -1, nullptr, 0);
  std::string error;
  EXPECT_TRUE(ValidateChromeTrace(Export(t), &error)) << error;
}

TEST(TraceExportTest, EscapesDomainNames) {
  Tracer t(8);
  t.Enable();
  t.SetDomainName(0, "we\"ird\\name");
  t.Record(10, TraceCategory::kGuest, TracePhase::kInstant, "x", 0, 0, -1,
           nullptr, 0);
  std::string error;
  EXPECT_TRUE(ValidateChromeTrace(Export(t), &error)) << error;
}

TEST(TraceValidateTest, RejectsMalformedInput) {
  EXPECT_FALSE(ValidateChromeTrace("not json"));
  EXPECT_FALSE(ValidateChromeTrace("{\"noTraceEvents\":[]}"));
  // Timestamp regression on one track.
  EXPECT_FALSE(ValidateChromeTrace(
      R"({"traceEvents":[
        {"name":"a","ph":"i","pid":1,"tid":0,"ts":5.0,"s":"t"},
        {"name":"b","ph":"i","pid":1,"tid":0,"ts":4.0,"s":"t"}]})"));
  // Unbalanced B.
  EXPECT_FALSE(ValidateChromeTrace(
      R"({"traceEvents":[{"name":"a","ph":"B","pid":1,"tid":0,"ts":1.0}]})"));
  // E without B.
  EXPECT_FALSE(ValidateChromeTrace(
      R"({"traceEvents":[{"name":"a","ph":"E","pid":1,"tid":0,"ts":1.0}]})"));
  std::string error;
  EXPECT_TRUE(ValidateChromeTrace(
      R"({"traceEvents":[
        {"name":"a","ph":"B","pid":1,"tid":0,"ts":1.0},
        {"name":"a","ph":"E","pid":1,"tid":0,"ts":2.5}]})",
      &error))
      << error;
}

TEST(TraceExportTest, InstrumentedRunExportsAllLayers) {
  GlobalTracer().Clear();
  GlobalTracer().Enable();
  {
    TestbedConfig cfg;
    cfg.policy = Policy::kVscale;
    cfg.primary_vcpus = 4;
    cfg.pool_pcpus = 4;
    cfg.seed = 3;
    Testbed bed(cfg);
    OmpAppConfig ac = NpbProfile("cg", cfg.primary_vcpus, kSpinCountActive);
    ac.intervals = 30;
    OmpApp app(bed.primary(), ac, 11);
    bed.sim().RunUntil(Milliseconds(200));
    app.Start();
    bed.RunUntil([&] { return app.done(); }, Seconds(60));
  }
  GlobalTracer().Disable();
  const std::string json = Export(GlobalTracer());
  GlobalTracer().Clear();

  TraceStats stats;
  std::string error;
  ASSERT_TRUE(ValidateChromeTrace(json, &error, &stats)) << error;
  EXPECT_GE(stats.categories.size(), 4u);
  EXPECT_TRUE(stats.categories.count("sim"));
  EXPECT_TRUE(stats.categories.count("hypervisor"));
  EXPECT_TRUE(stats.categories.count("guest"));
  EXPECT_TRUE(stats.categories.count("vscale"));
  EXPECT_GE(stats.domain_pids.size(), 2u);
  EXPECT_GT(stats.events, 100u);
}

TEST(TraceExportTest, TracingDoesNotPerturbSimulation) {
  auto run = [](bool traced) {
    if (traced) {
      GlobalTracer().Clear();
      GlobalTracer().Enable();
    } else {
      GlobalTracer().Disable();
    }
    TestbedConfig cfg;
    cfg.policy = Policy::kVscale;
    cfg.primary_vcpus = 4;
    cfg.pool_pcpus = 4;
    cfg.seed = 5;
    Testbed bed(cfg);
    OmpAppConfig ac = NpbProfile("mg", cfg.primary_vcpus, kSpinCountActive);
    ac.intervals = 20;
    OmpApp app(bed.primary(), ac, 21);
    bed.sim().RunUntil(Milliseconds(200));
    app.Start();
    bed.RunUntil([&] { return app.done(); }, Seconds(60));
    GlobalTracer().Disable();
    return app.duration();
  };
  const TimeNs untraced = run(false);
  const TimeNs traced = run(true);
  GlobalTracer().Clear();
  EXPECT_EQ(untraced, traced);  // recording must be invisible to the simulation
}

}  // namespace
}  // namespace vscale
