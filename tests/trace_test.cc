// Unit tests for the flight recorder core (src/base/trace.h) and the metrics
// registry (src/base/metrics_registry.h): ring wraparound (copying and in-place
// visits agree), the empty ring, category filtering, timestamp rebasing, the
// null-observer no-op guarantee, the ring's resident cost before it records,
// and gauge freezing.

#include "src/base/metrics_registry.h"
#include "src/base/trace.h"
#include "src/metrics/trace_export.h"
#include "src/metrics/trace_validate.h"
#include "src/sim/event_queue.h"
#include "src/workloads/testbed.h"

#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

namespace vscale {
namespace {

TEST(TracerTest, RecordsInOrder) {
  Tracer t(16);
  t.Enable();
  t.Record(10, TraceCategory::kSim, TracePhase::kInstant, "a", -1, -1, -1, nullptr, 0);
  t.Record(20, TraceCategory::kGuest, TracePhase::kInstant, "b", 0, 1, 2, "x", 7);
  ASSERT_EQ(t.size(), 2u);
  const auto events = t.Snapshot();
  EXPECT_EQ(events[0].ts, 10);
  EXPECT_STREQ(events[0].name, "a");
  EXPECT_EQ(events[1].ts, 20);
  EXPECT_EQ(events[1].domain, 0);
  EXPECT_EQ(events[1].vcpu, 1);
  EXPECT_EQ(events[1].pcpu, 2);
  EXPECT_STREQ(events[1].arg_name, "x");
  EXPECT_EQ(events[1].arg, 7);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(TracerTest, RingWraparoundKeepsNewestEvents) {
  Tracer t(8);
  t.Enable();
  for (int i = 0; i < 20; ++i) {
    t.Record(i, TraceCategory::kSim, TracePhase::kInstant, "e", -1, -1, -1,
             "i", i);
  }
  EXPECT_EQ(t.size(), 8u);
  EXPECT_EQ(t.recorded(), 20u);
  EXPECT_EQ(t.dropped(), 12u);
  const auto events = t.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  // Oldest-first snapshot of the newest 8 events: args 12..19.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(events[static_cast<size_t>(i)].arg, 12 + i);
  }
}

TEST(TracerTest, SnapshotMatchesForEachRetainedAcrossWraparound) {
  // Per capacity, record counts that leave the ring empty, part-filled,
  // exactly full, and wrapped with the write head just past and mid ring.
  for (const int cap : {1, 4, 8}) {
    for (const int records : {0, cap / 2 + 1, cap, cap + 1, cap + cap / 2 + 1}) {
      Tracer t(static_cast<size_t>(cap));
      t.Enable();
      for (int i = 0; i < records; ++i) {
        t.Record(i, TraceCategory::kSim, TracePhase::kInstant, "e", -1, -1, -1,
                 "i", i);
      }
      std::vector<int64_t> visited;
      t.ForEachRetained([&](const TraceEvent& e) { visited.push_back(e.arg); });
      std::vector<int64_t> copied;
      for (const TraceEvent& e : t.Snapshot()) copied.push_back(e.arg);
      EXPECT_EQ(visited, copied) << "capacity " << cap << ", " << records << " records";
      ASSERT_EQ(visited.size(), t.size());
      ASSERT_EQ(t.size(), static_cast<size_t>(std::min(records, cap)));
      // Oldest-first: the newest size() events in recording order.
      for (size_t k = 0; k < visited.size(); ++k) {
        EXPECT_EQ(visited[k], records - static_cast<int>(t.size()) +
                                  static_cast<int>(k));
      }
    }
  }
}

// A ring with nothing retained visits nothing and exports a valid empty trace,
// whether it was never written, cleared, or re-sized after being written (the
// unwritten slots of a re-allocated ring are never read).
TEST(TracerTest, EmptyRingVisitsNothingAndExportsValidTrace) {
  auto expect_empty = [](const Tracer& t, const char* what) {
    int visits = 0;
    t.ForEachRetained([&](const TraceEvent&) { ++visits; });
    EXPECT_EQ(visits, 0) << what;
    EXPECT_TRUE(t.Snapshot().empty()) << what;
    std::ostringstream os;
    WriteChromeTrace(t, os);
    std::string error;
    TraceStats stats;
    EXPECT_TRUE(ValidateChromeTrace(os.str(), &error, &stats)) << what << ": " << error;
    EXPECT_EQ(stats.events, 0u) << what;
  };
  auto record_some = [](Tracer& t) {
    t.Enable();
    for (int i = 0; i < 6; ++i) {
      t.Record(i, TraceCategory::kSim, TracePhase::kInstant, "e", -1, -1, -1,
               nullptr, 0);
    }
  };
  Tracer fresh(4);
  expect_empty(fresh, "fresh");
  Tracer cleared(4);
  record_some(cleared);
  cleared.Clear();
  expect_empty(cleared, "after Clear()");
  Tracer resized(4);
  record_some(resized);
  resized.SetCapacity(16);
  expect_empty(resized, "after SetCapacity()");
}

TEST(TracerTest, CategoryFiltering) {
  Tracer t(16);
  t.Enable(static_cast<uint32_t>(TraceCategory::kGuest));
  t.Record(1, TraceCategory::kSim, TracePhase::kInstant, "sim", -1, -1, -1,
           nullptr, 0);
  t.Record(2, TraceCategory::kGuest, TracePhase::kInstant, "guest", 0, 0, -1,
           nullptr, 0);
  t.Record(3, TraceCategory::kHypervisor, TracePhase::kInstant, "hv", 0, 0, 0,
           nullptr, 0);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_STREQ(t.Snapshot()[0].name, "guest");
}

TEST(TracerTest, DisabledRecordsNothing) {
  Tracer t(16);
  t.Record(1, TraceCategory::kSim, TracePhase::kInstant, "a", -1, -1, -1,
           nullptr, 0);
  EXPECT_EQ(t.size(), 0u);
  t.Enable();
  t.Record(2, TraceCategory::kSim, TracePhase::kInstant, "b", -1, -1, -1,
           nullptr, 0);
  t.Disable();
  t.Record(3, TraceCategory::kSim, TracePhase::kInstant, "c", -1, -1, -1,
           nullptr, 0);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_STREQ(t.Snapshot()[0].name, "b");
}

TEST(TracerTest, NullObserverHookIsANoOp) {
  // An enabled process-wide tracer does not reach a simulation whose seam has
  // no tracer bound: the hook idiom skips the call, and its arguments are
  // never evaluated.
  GlobalTracer().Clear();
  GlobalTracer().Enable();
  Simulator sim;
  ASSERT_EQ(sim.observers().trace, nullptr);
  int evaluations = 0;
  auto expensive = [&] {
    ++evaluations;
    return 1;
  };
  if (Tracer* tr = sim.observers().trace) {
    tr->Instant(0, TraceCategory::kSim, "x", -1, -1, -1, "v", expensive());
  }
  sim.ScheduleAt(5, [] {});
  sim.RunUntilIdle();  // the engine's own event_fire hook
  EXPECT_EQ(evaluations, 0);
  EXPECT_EQ(GlobalTracer().size(), 0u);

  // Bound, the same engine hook records.
  sim.observers().trace = &GlobalTracer();
  sim.ScheduleAt(10, [] {});
  sim.RunUntilIdle();
  ASSERT_EQ(GlobalTracer().size(), 1u);
  EXPECT_STREQ(GlobalTracer().Snapshot()[0].name, "event_fire");
  GlobalTracer().Disable();
  GlobalTracer().Clear();
}

TEST(TracerTest, HookSpellingsMapToPhases) {
  Tracer t(8);
  t.Enable();
  t.Instant(1, TraceCategory::kGuest, "i", 0, 1, -1, "port", 3);
  t.Begin(2, TraceCategory::kHypervisor, "run", 0, 1, 2);
  t.End(3, TraceCategory::kHypervisor, "run", 0, 1, 2);
  t.Counter(4, TraceCategory::kVscale, "c", 0, 9);
  const auto events = t.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].phase, TracePhase::kInstant);
  EXPECT_STREQ(events[0].arg_name, "port");
  EXPECT_EQ(events[0].arg, 3);
  EXPECT_EQ(events[1].phase, TracePhase::kBegin);
  EXPECT_EQ(events[1].pcpu, 2);
  EXPECT_EQ(events[2].phase, TracePhase::kEnd);
  EXPECT_EQ(events[3].phase, TracePhase::kCounter);
  EXPECT_EQ(events[3].vcpu, -1);
  EXPECT_STREQ(events[3].arg_name, "value");
  EXPECT_EQ(events[3].arg, 9);
}

TEST(TracerTest, RebasesTimestampsAcrossRuns) {
  Tracer t(16);
  t.Enable();
  // Run 1 reaches t=100; run 2 restarts at t=5 (a fresh Machine).
  t.Record(50, TraceCategory::kSim, TracePhase::kInstant, "r1a", -1, -1, -1,
           nullptr, 0);
  t.Record(100, TraceCategory::kSim, TracePhase::kInstant, "r1b", -1, -1, -1,
           nullptr, 0);
  t.Record(5, TraceCategory::kSim, TracePhase::kInstant, "r2a", -1, -1, -1,
           nullptr, 0);
  t.Record(30, TraceCategory::kSim, TracePhase::kInstant, "r2b", -1, -1, -1,
           nullptr, 0);
  const auto events = t.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts, events[i - 1].ts) << "event " << i;
  }
  // Relative spacing within the second run is preserved.
  EXPECT_EQ(events[3].ts - events[2].ts, 25);
}

TEST(TracerTest, SetCapacityClears) {
  Tracer t(8);
  t.Enable();
  t.Record(1, TraceCategory::kSim, TracePhase::kInstant, "a", -1, -1, -1,
           nullptr, 0);
  t.SetCapacity(32);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.capacity(), 32u);
}

// Resident pages of this process, from /proc/self/statm's second field; -1
// where that file does not exist.
long ResidentPages() {
  std::ifstream statm("/proc/self/statm");
  long size = 0;
  long resident = -1;
  if (!(statm >> size >> resident)) return -1;
  return resident;
}

// The ring is allocated but not written until events arrive, so a tracer
// that never records, and the process-wide one a default Testbed touches,
// cost address space rather than resident memory. The bound (a quarter of the
// ring's bytes) leaves room for a sanitizer's shadow of the allocation.
TEST(TracerTest, UnwrittenRingIsNotResident) {
  const long before = ResidentPages();
  if (before < 0) GTEST_SKIP() << "no /proc/self/statm";
  constexpr size_t kEvents = 1u << 20;
  GlobalTracer().Disable();
  {
    Tracer t(kEvents);
    Testbed bed(TestbedConfig{});
    ASSERT_EQ(t.capacity(), kEvents);
    const long grown_bytes = (ResidentPages() - before) * sysconf(_SC_PAGESIZE);
    EXPECT_LT(grown_bytes, static_cast<long>(kEvents * sizeof(TraceEvent) / 4))
        << "resident growth " << grown_bytes << " bytes";
  }
}

TEST(TracerTest, DomainNames) {
  Tracer t(8);
  t.SetDomainName(0, "primary");
  t.SetDomainName(1, "desktop0");
  ASSERT_EQ(t.domain_names().size(), 2u);
  EXPECT_EQ(t.domain_names().at(0), "primary");
}

TEST(TraceCategoryTest, Names) {
  EXPECT_STREQ(ToString(TraceCategory::kSim), "sim");
  EXPECT_STREQ(ToString(TraceCategory::kHypervisor), "hypervisor");
  EXPECT_STREQ(ToString(TraceCategory::kGuest), "guest");
  EXPECT_STREQ(ToString(TraceCategory::kVscale), "vscale");
}

TEST(MetricsRegistryTest, CountersAndGauges) {
  MetricsRegistry reg;
  int64_t& c = reg.Counter("hv.context_switches");
  c += 5;
  EXPECT_EQ(reg.Value("hv.context_switches"), 5);
  int live = 3;
  reg.RegisterGauge("dom.primary.active_vcpus",
                    [&live] { return static_cast<int64_t>(live); });
  EXPECT_EQ(reg.Value("dom.primary.active_vcpus"), 3);
  live = 2;
  EXPECT_EQ(reg.Value("dom.primary.active_vcpus"), 2);
  EXPECT_TRUE(reg.Has("hv.context_switches"));
  EXPECT_FALSE(reg.Has("nope"));
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricsRegistryTest, GaugeShadowsCounter) {
  MetricsRegistry reg;
  reg.Counter("x") = 1;
  reg.RegisterGauge("x", [] { return int64_t{42}; });
  EXPECT_EQ(reg.Value("x"), 42);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistryTest, FreezeGaugesSurvivesSourceDestruction) {
  MetricsRegistry reg;
  {
    auto live = std::make_unique<int>(9);
    int* p = live.get();
    reg.RegisterGauge("g", [p] { return static_cast<int64_t>(*p); });
    EXPECT_EQ(reg.Value("g"), 9);
    reg.FreezeGauges();
  }  // the gauge's referent is gone; the frozen counter must not read it
  EXPECT_EQ(reg.Value("g"), 9);
}

TEST(MetricsRegistryTest, CollectSortedAndCsv) {
  MetricsRegistry reg;
  reg.Counter("b.second") = 2;
  reg.Counter("a.first") = 1;
  reg.RegisterGauge("c.third", [] { return int64_t{3}; });
  const auto all = reg.Collect();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].first, "a.first");
  EXPECT_EQ(all[2].first, "c.third");
  std::ostringstream os;
  reg.WriteCsv(os);
  EXPECT_EQ(os.str(), "metric,value\na.first,1\nb.second,2\nc.third,3\n");
}

TEST(MetricsRegistryTest, MergeFromPrefixes) {
  MetricsRegistry a;
  a.Counter("wait_ns") = 100;
  MetricsRegistry b;
  b.MergeFrom(a, "vscale.");
  EXPECT_EQ(b.Value("vscale.wait_ns"), 100);
}

TEST(SanitizeMetricNameTest, MapsToLowercaseUnderscore) {
  EXPECT_EQ(SanitizeMetricName("Xen/Linux+pvlock"), "xen_linux_pvlock");
  EXPECT_EQ(SanitizeMetricName("dom.primary.wait_ns"), "dom.primary.wait_ns");
}

}  // namespace
}  // namespace vscale
