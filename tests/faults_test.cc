// Tests for the deterministic fault plane (src/faults) and the hardened vScale
// control plane it exercises: fault-plan parsing, injector windows, channel
// failure/staleness/torn-read handling, daemon retry/backoff, graceful
// degradation and resume, the liveness watchdog, freeze-op retry, pCPU steal
// bursts, and config self-validation. docs/FAULTS.md is the catalogue.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/base/check.h"
#include "src/base/rng.h"
#include "src/faults/fault_injector.h"
#include "src/faults/fault_plan.h"
#include "src/guest/kernel.h"
#include "src/hypervisor/machine.h"
#include "src/hypervisor/vscale_channel.h"
#include "src/sim/event_queue.h"
#include "src/vscale/balancer.h"
#include "src/vscale/daemon.h"
#include "src/vscale/watchdog.h"
#include "src/workloads/testbed.h"

namespace vscale {
namespace {

// --- fault-plan grammar ---

TEST(FaultPlanTest, ParsesFullGrammar) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan(
      "chan-stale@400ms+600ms;stall@2s+800ms;latency@4s+300ms*12;steal@1us+5ns*2",
      &plan, &error))
      << error;
  ASSERT_EQ(plan.events.size(), 4u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kChannelStale);
  EXPECT_EQ(plan.events[0].start, Milliseconds(400));
  EXPECT_EQ(plan.events[0].duration, Milliseconds(600));
  EXPECT_EQ(plan.events[0].end(), Milliseconds(1000));
  EXPECT_EQ(plan.events[0].magnitude, 0);  // 0 = use DefaultMagnitude
  EXPECT_EQ(plan.events[1].kind, FaultKind::kDaemonStall);
  EXPECT_EQ(plan.events[1].start, Seconds(2));
  EXPECT_EQ(plan.events[2].kind, FaultKind::kLatencySpike);
  EXPECT_EQ(plan.events[2].magnitude, 12);
  EXPECT_EQ(plan.events[3].start, Microseconds(1));
  EXPECT_EQ(plan.events[3].duration, Nanoseconds(5));
  EXPECT_EQ(plan.events[3].magnitude, 2);
}

TEST(FaultPlanTest, ParsesEveryKindByName) {
  const FaultKind kinds[] = {
      FaultKind::kChannelStale, FaultKind::kChannelGarbled,
      FaultKind::kChannelFail,  FaultKind::kLatencySpike,
      FaultKind::kDaemonStall,  FaultKind::kDaemonCrash,
      FaultKind::kFreezeFail,   FaultKind::kFreezeHang,
      FaultKind::kStealBurst,
  };
  for (FaultKind k : kinds) {
    FaultPlan plan;
    std::string error;
    const std::string spec = std::string(ToString(k)) + "@1ms+2ms";
    ASSERT_TRUE(ParseFaultPlan(spec, &plan, &error)) << spec << ": " << error;
    ASSERT_EQ(plan.events.size(), 1u);
    EXPECT_EQ(plan.events[0].kind, k);
  }
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  const char* bad[] = {
      "stall",               // missing '@'
      "frobnicate@1ms+2ms",  // unknown kind
      "stall@x+2ms",         // bad start
      "stall@1ms",           // missing '+<duration>'
      "stall@1ms+",          // bad duration
      "stall@1ms+2ms*",      // bad magnitude
      "stall@1ms+2msXYZ",    // trailing junk
      "stall@1ms+0ms",       // zero duration
      "stall@1ms+2fortnight",  // unknown unit
  };
  for (const char* spec : bad) {
    FaultPlan plan;
    plan.Add(FaultKind::kDaemonStall, Seconds(9), Seconds(1));
    std::string error;
    EXPECT_FALSE(ParseFaultPlan(spec, &plan, &error)) << spec;
    EXPECT_FALSE(error.empty()) << spec;
    // A failed parse must leave the output plan untouched.
    ASSERT_EQ(plan.events.size(), 1u) << spec;
    EXPECT_EQ(plan.events[0].start, Seconds(9)) << spec;
  }
}

TEST(FaultPlanTest, ToStringPicksLargestExactUnit) {
  FaultPlan plan;
  plan.Add(FaultKind::kDaemonStall, Seconds(2), Milliseconds(800));
  plan.Add(FaultKind::kLatencySpike, Microseconds(1500), Nanoseconds(7), 12);
  plan.Add(FaultKind::kStealBurst, 0, Milliseconds(1));
  EXPECT_EQ(plan.ToString(),
            "stall@2s+800ms;latency@1500us+7ns*12;steal@0s+1ms");
  EXPECT_EQ(FaultPlan{}.ToString(), "");
}

// The round-trip the fuzz shrinker rests on: Parse(ToString(p)) reproduces the
// event list exactly, for plans spanning every kind, unit and magnitude shape.
TEST(FaultPlanTest, ToStringParseRoundTripsGeneratedPlans) {
  Rng rng(0xF417);
  static constexpr FaultKind kKinds[] = {
      FaultKind::kChannelStale, FaultKind::kChannelGarbled,
      FaultKind::kChannelFail,  FaultKind::kLatencySpike,
      FaultKind::kDaemonStall,  FaultKind::kDaemonCrash,
      FaultKind::kFreezeFail,   FaultKind::kFreezeHang,
      FaultKind::kStealBurst,
  };
  static constexpr TimeNs kUnits[] = {1, 1'000, 1'000'000, 1'000'000'000};
  for (int trial = 0; trial < 200; ++trial) {
    FaultPlan plan;
    plan.seed = rng.NextU64();
    const int n = static_cast<int>(rng.NextBelow(6));
    for (int i = 0; i < n; ++i) {
      FaultEvent ev;
      ev.kind = kKinds[rng.NextBelow(9)];
      ev.start = static_cast<TimeNs>(rng.NextBelow(5000)) *
                 kUnits[rng.NextBelow(4)];
      ev.duration = static_cast<TimeNs>(1 + rng.NextBelow(5000)) *
                    kUnits[rng.NextBelow(4)];
      ev.magnitude = rng.Chance(0.5) ? 0 : 1 + static_cast<int64_t>(rng.NextBelow(64));
      plan.events.push_back(ev);
    }
    FaultPlan parsed;
    parsed.seed = plan.seed;  // the spec string never carries the seed
    std::string error;
    ASSERT_TRUE(FaultPlan::Parse(plan.ToString(), &parsed, &error))
        << plan.ToString() << ": " << error;
    EXPECT_EQ(parsed, plan) << plan.ToString();
  }
}

TEST(FaultPlanTest, ParseErrorsNameTheOffendingToken) {
  struct Case {
    const char* spec;
    const char* want_fragment;
  };
  const Case cases[] = {
      {"stall", "missing '@'"},
      {"frobnicate@1ms+2ms", "unknown fault kind \"frobnicate\""},
      {"stall@x+2ms", "bad start time"},
      {"stall@1ms", "missing '+<duration>'"},
      {"stall@1ms+", "bad duration"},
      {"stall@1ms+2ms*", "bad magnitude"},
      {"stall@1ms+2msXYZ", "trailing junk"},
      {"stall@1ms+0ms", "zero duration"},
  };
  for (const Case& c : cases) {
    FaultPlan plan;
    std::string error;
    ASSERT_FALSE(FaultPlan::Parse(c.spec, &plan, &error)) << c.spec;
    EXPECT_NE(error.find(c.want_fragment), std::string::npos)
        << c.spec << " -> " << error;
  }
}

TEST(FaultPlanTest, EmptySpecAndSeedPreserved) {
  FaultPlan plan;
  plan.seed = 77;
  std::string error;
  ASSERT_TRUE(ParseFaultPlan("", &plan, &error));
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.seed, 77u);
  ASSERT_TRUE(ParseFaultPlan(";;stall@1ms+2ms;", &plan, &error));
  EXPECT_EQ(plan.events.size(), 1u);
  EXPECT_EQ(plan.seed, 77u);
}

// --- injector windows ---

TEST(FaultInjectorTest, WindowsActivateAndExpire) {
  Simulator sim;
  FaultPlan plan;
  plan.Add(FaultKind::kDaemonStall, Milliseconds(10), Milliseconds(10));
  FaultInjector inj(sim, plan);
  inj.Arm();
  sim.RunUntil(Milliseconds(5));
  EXPECT_FALSE(inj.Active(FaultKind::kDaemonStall));
  sim.RunUntil(Milliseconds(15));
  EXPECT_TRUE(inj.Active(FaultKind::kDaemonStall));
  EXPECT_FALSE(inj.Active(FaultKind::kChannelFail));
  sim.RunUntil(Milliseconds(25));
  EXPECT_FALSE(inj.Active(FaultKind::kDaemonStall));
  EXPECT_EQ(inj.events_started(), 1);
  EXPECT_EQ(inj.events_ended(), 1);
}

TEST(FaultInjectorTest, MagnitudeDefaultsAndOverridesAndOverlaps) {
  Simulator sim;
  FaultPlan plan;
  plan.Add(FaultKind::kLatencySpike, Milliseconds(0), Milliseconds(30));
  plan.Add(FaultKind::kLatencySpike, Milliseconds(10), Milliseconds(10), 40);
  FaultInjector inj(sim, plan);
  inj.Arm();
  sim.RunUntil(Milliseconds(5));
  EXPECT_EQ(inj.Magnitude(FaultKind::kLatencySpike),
            DefaultMagnitude(FaultKind::kLatencySpike));
  EXPECT_EQ(inj.PerturbLatency(100), 100 * DefaultMagnitude(FaultKind::kLatencySpike));
  sim.RunUntil(Milliseconds(15));
  // Overlap: the explicit 40x event dominates the defaulted one.
  EXPECT_EQ(inj.active_count(FaultKind::kLatencySpike), 2);
  EXPECT_EQ(inj.Magnitude(FaultKind::kLatencySpike), 40);
  sim.RunUntil(Milliseconds(25));
  EXPECT_EQ(inj.Magnitude(FaultKind::kLatencySpike),
            DefaultMagnitude(FaultKind::kLatencySpike));
  sim.RunUntil(Milliseconds(35));
  EXPECT_FALSE(inj.Active(FaultKind::kLatencySpike));
}

TEST(FaultInjectorTest, ArmAfterStartClampsToNow) {
  Simulator sim;
  sim.ScheduleAt(Milliseconds(20), [] {});
  sim.RunUntil(Milliseconds(20));
  FaultPlan plan;
  plan.Add(FaultKind::kChannelFail, Milliseconds(5), Milliseconds(30));
  FaultInjector inj(sim, plan);
  inj.Arm();  // start already passed: begins at now, still ends at start+duration
  sim.RunUntil(Milliseconds(21));
  EXPECT_TRUE(inj.Active(FaultKind::kChannelFail));
  sim.RunUntil(Milliseconds(36));
  EXPECT_FALSE(inj.Active(FaultKind::kChannelFail));
}

TEST(FaultInjectorTest, TransitionHookSeesEveryEdge) {
  Simulator sim;
  FaultPlan plan;
  plan.Add(FaultKind::kStealBurst, Milliseconds(1), Milliseconds(2), 3);
  FaultInjector inj(sim, plan);
  std::vector<std::pair<FaultKind, bool>> edges;
  inj.on_transition = [&](const FaultEvent& ev, bool began) {
    edges.emplace_back(ev.kind, began);
  };
  inj.Arm();
  sim.RunUntil(Milliseconds(10));
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], (std::pair<FaultKind, bool>{FaultKind::kStealBurst, true}));
  EXPECT_EQ(edges[1], (std::pair<FaultKind, bool>{FaultKind::kStealBurst, false}));
}

// --- channel fault behaviour & accounting ---

struct ChannelRig {
  explicit ChannelRig(const char* spec) {
    MachineConfig mc;
    mc.n_pcpus = 4;
    machine = std::make_unique<Machine>(mc);
    dom = &machine->CreateDomain("vm", 256, 4);
    FaultPlan plan;
    std::string error;
    EXPECT_TRUE(ParseFaultPlan(spec, &plan, &error)) << error;
    injector = std::make_unique<FaultInjector>(machine->sim(), plan);
    injector->Arm();
    channel = std::make_unique<VscaleChannel>(*machine, machine->cost(), dom->id(),
                                              machine->sim().observers());
    channel->set_fault_injector(injector.get());
  }

  std::unique_ptr<Machine> machine;
  Domain* dom = nullptr;
  std::unique_ptr<FaultInjector> injector;
  std::unique_ptr<VscaleChannel> channel;
};

TEST(ChannelFaultTest, FailedReadStillChargesFullCostAndCountsSeparately) {
  ChannelRig rig("chan-fail@0ns+10ms");
  rig.machine->WriteExtendability(rig.dom->id(), 3, Milliseconds(25));
  rig.machine->sim().RunUntil(Milliseconds(1));  // fault window opens
  const TimeNs unit = rig.channel->syscall_cost() + rig.channel->hypercall_cost();
  auto r = rig.channel->Read();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.cost, unit);  // the failed round trip burns exactly what a good one does
  EXPECT_EQ(rig.channel->reads(), 0);
  EXPECT_EQ(rig.channel->reads_failed(), 1);
  rig.machine->sim().RunUntil(Milliseconds(11));  // window closed
  r = rig.channel->Read();
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.extendability_nvcpus, 3);
  EXPECT_EQ(rig.channel->reads(), 1);
  EXPECT_EQ(rig.channel->reads_failed(), 1);
  EXPECT_EQ(rig.channel->total_cost(), 2 * unit);
}

TEST(ChannelFaultTest, LatencySpikeMultipliesCost) {
  ChannelRig rig("latency@0ns+10ms*7");
  rig.machine->sim().RunUntil(Milliseconds(1));
  const TimeNs unit = rig.channel->syscall_cost() + rig.channel->hypercall_cost();
  EXPECT_EQ(rig.channel->Read().cost, 7 * unit);
}

TEST(ChannelFaultTest, GarbledPayloadRejectedByValidStamp) {
  ChannelRig rig("chan-garble@0ns+10ms");
  rig.machine->WriteExtendability(rig.dom->id(), 3, Milliseconds(25));
  rig.machine->sim().RunUntil(Milliseconds(1));
  const auto r = rig.channel->Read();
  // The garble hook changed nvcpus under the reader; the stamp no longer matches.
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(rig.channel->torn_rejected(), 1);
  EXPECT_EQ(rig.channel->reads_failed(), 1);
}

TEST(ChannelFaultTest, StaleWindowPinsPayloadAndSeq) {
  ChannelRig rig("chan-stale@0ns+10ms");
  rig.machine->WriteExtendability(rig.dom->id(), 3, Milliseconds(25));
  rig.machine->sim().RunUntil(Milliseconds(1));
  auto first = rig.channel->Read();
  ASSERT_TRUE(first.ok);
  EXPECT_EQ(first.extendability_nvcpus, 3);
  // The writer moves on, but the wedged channel keeps serving the old payload.
  rig.machine->WriteExtendability(rig.dom->id(), 4, Milliseconds(35));
  auto second = rig.channel->Read();
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(second.extendability_nvcpus, 3);
  EXPECT_EQ(second.seq, first.seq);
  rig.machine->sim().RunUntil(Milliseconds(11));
  auto after = rig.channel->Read();
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(after.extendability_nvcpus, 4);
  EXPECT_GT(after.seq, first.seq);
}

TEST(ChannelFaultTest, NeverWrittenMailboxIsHonestlyEmptyNotTorn) {
  ChannelRig rig("");
  const auto r = rig.channel->Read();
  EXPECT_TRUE(r.ok);  // seq 0: no stamp to check, an empty mailbox is not a fault
  EXPECT_EQ(r.seq, 0u);
  EXPECT_EQ(r.extendability_nvcpus, 0);
}

// --- hardened daemon: retry, degrade, resume, watchdog ---

// A machine + 4-vCPU guest + daemon + injector, with a periodic mailbox writer
// standing in for the ticker (so seq advances like a healthy system and tests
// control the published target directly).
struct DaemonRig {
  // vslint: allow(validate-before-use, the rig only forwards dc; VscaleDaemon's own constructor validates it)
  DaemonRig(DaemonConfig dc, const char* spec, bool with_watchdog = false,
            WatchdogConfig wc = WatchdogConfig{}) {
    MachineConfig mc;
    mc.n_pcpus = 8;
    machine = std::make_unique<Machine>(mc);
    dom = &machine->CreateDomain("vm", 1024, 4);
    kernel = std::make_unique<GuestKernel>(*machine, machine->sim(), *dom,
                                           GuestConfig{});
    FaultPlan plan;
    std::string error;
    EXPECT_TRUE(ParseFaultPlan(spec, &plan, &error)) << error;
    injector = std::make_unique<FaultInjector>(machine->sim(), plan);
    injector->Arm();
    daemon = std::make_unique<VscaleDaemon>(*kernel, *machine, dc);
    daemon->set_fault_injector(injector.get());
    daemon->Start();
    if (with_watchdog) {
      watchdog = std::make_unique<VscaleWatchdog>(*kernel, *daemon, wc);
      watchdog->Start();
    }
    writer = std::make_unique<PeriodicTask>(
        machine->sim(), Milliseconds(10), [this] {
          machine->WriteExtendability(dom->id(), publish,
                                      publish * Milliseconds(10));
        });
    writer->Start(Milliseconds(1));
  }

  void RunUntil(TimeNs t) { machine->sim().RunUntil(t); }

  int publish = 2;  // the extendability target the writer keeps publishing
  std::unique_ptr<Machine> machine;
  Domain* dom = nullptr;
  std::unique_ptr<GuestKernel> kernel;
  std::unique_ptr<FaultInjector> injector;
  std::unique_ptr<VscaleDaemon> daemon;
  std::unique_ptr<VscaleWatchdog> watchdog;
  std::unique_ptr<PeriodicTask> writer;
};

DaemonConfig FastConfig() {
  DaemonConfig dc;
  dc.shrink_confirmations = 1;
  dc.grow_confirmations = 1;
  dc.useful_obtainment_guard = false;
  return dc;
}

TEST(HardenedDaemonTest, PersistentReadFailureDegradesToFloorThenResumes) {
  DaemonConfig dc = FastConfig();
  dc.max_read_retries = 2;
  dc.unhealthy_cycles = 2;
  dc.resume_confirmations = 3;
  DaemonRig rig(dc, "chan-fail@100ms+200ms");
  rig.RunUntil(Milliseconds(90));
  EXPECT_EQ(rig.kernel->online_cpus(), 2);  // converged before the fault
  rig.RunUntil(Milliseconds(250));
  // Reads failed long enough: retried, then degraded to the safe floor (all 4).
  EXPECT_GT(rig.daemon->read_retries(), 0);
  EXPECT_EQ(rig.daemon->degradations(), 1);
  EXPECT_TRUE(rig.daemon->degraded());
  EXPECT_EQ(rig.kernel->online_cpus(), 4);
  EXPECT_GT(rig.daemon->first_degrade_ns(), Milliseconds(100));
  rig.RunUntil(Milliseconds(600));
  // Channel healthy again: resume after the confirmation streak, follow the target.
  EXPECT_EQ(rig.daemon->resumes(), 1);
  EXPECT_FALSE(rig.daemon->degraded());
  EXPECT_EQ(rig.kernel->online_cpus(), 2);
  EXPECT_GT(rig.daemon->last_resume_ns(), Milliseconds(300));
}

TEST(HardenedDaemonTest, ConfiguredSafeFloorBoundsDegradedSize) {
  DaemonConfig dc = FastConfig();
  dc.unhealthy_cycles = 1;
  dc.safe_vcpu_floor = 3;
  DaemonRig rig(dc, "chan-fail@100ms+10s");  // fails until end of test
  rig.RunUntil(Milliseconds(90));
  EXPECT_EQ(rig.kernel->online_cpus(), 2);
  rig.RunUntil(Milliseconds(400));
  EXPECT_TRUE(rig.daemon->degraded());
  EXPECT_EQ(rig.kernel->online_cpus(), 3);  // floor, not all 4
}

TEST(HardenedDaemonTest, StaleSeqHoldsConfigWithoutDegrading) {
  DaemonConfig dc = FastConfig();
  dc.stale_reads_threshold = 4;
  DaemonRig rig(dc, "chan-stale@100ms+200ms");
  rig.RunUntil(Milliseconds(90));
  EXPECT_EQ(rig.kernel->online_cpus(), 2);
  // Mid-window the writer switches to 4, but the daemon is seeing a wedged seq:
  // it must hold at 2, not act on data of unknown age — and not panic either.
  rig.RunUntil(Milliseconds(150));
  rig.publish = 4;
  rig.RunUntil(Milliseconds(290));
  EXPECT_EQ(rig.kernel->online_cpus(), 2);
  EXPECT_GE(rig.daemon->stale_detections(), 1);
  EXPECT_GT(rig.daemon->stale_held_cycles(), 0);
  EXPECT_EQ(rig.daemon->degradations(), 0);
  EXPECT_FALSE(rig.daemon->degraded());
  // Window over: fresh payloads flow and the daemon follows them again.
  rig.RunUntil(Milliseconds(500));
  EXPECT_EQ(rig.kernel->online_cpus(), 4);
}

TEST(HardenedDaemonTest, FreezeOpFailureAbortsBatchAndRetriesWithBackoff) {
  DaemonConfig dc = FastConfig();
  dc.max_apply_retries = 2;
  DaemonRig rig(dc, "freeze-fail@0ns+50ms");
  rig.RunUntil(Milliseconds(40));
  // Every shrink attempt in the window aborts after burning the failed op's entry.
  EXPECT_EQ(rig.kernel->online_cpus(), 4);
  EXPECT_GT(rig.daemon->balancer().op_failures(), 0);
  EXPECT_GT(rig.daemon->apply_retries(), 0);
  rig.RunUntil(Milliseconds(200));
  EXPECT_EQ(rig.kernel->online_cpus(), 2);  // clean path succeeds after the window
}

TEST(HardenedDaemonTest, FreezeHangStretchesApplyCost) {
  DaemonConfig dc = FastConfig();
  DaemonRig rig(dc, "freeze-hang@0ns+50ms*100");
  rig.RunUntil(Milliseconds(200));
  EXPECT_EQ(rig.kernel->online_cpus(), 2);  // hang slows the op, never loses it
  EXPECT_GT(rig.daemon->balancer().op_hangs(), 0);
}

TEST(HardenedDaemonTest, CrashLosesControlStateUntilScheduledRestart) {
  DaemonConfig dc = FastConfig();
  DaemonRig rig(dc, "crash@100ms+100ms");
  rig.RunUntil(Milliseconds(90));
  EXPECT_EQ(rig.kernel->online_cpus(), 2);
  rig.RunUntil(Milliseconds(190));
  EXPECT_EQ(rig.daemon->crashes(), 1);
  // Crashed: the heartbeat stopped at (or before) the crash window opening.
  EXPECT_LE(rig.daemon->last_heartbeat(), Milliseconds(101));
  rig.RunUntil(Milliseconds(400));
  EXPECT_EQ(rig.daemon->restarts(), 1);
  EXPECT_GT(rig.daemon->last_heartbeat(), Milliseconds(200));
  EXPECT_EQ(rig.kernel->online_cpus(), 2);  // fresh instance re-converges
}

TEST(HardenedDaemonTest, WatchdogTripsOnStallAndRecoversAfter) {
  DaemonConfig dc = FastConfig();
  WatchdogConfig wc;
  wc.missed_cycles = 3;  // 30 ms heartbeat deadline
  DaemonRig rig(dc, "stall@100ms+200ms", /*with_watchdog=*/true, wc);
  rig.RunUntil(Milliseconds(90));
  EXPECT_EQ(rig.kernel->online_cpus(), 2);
  EXPECT_EQ(rig.watchdog->trips(), 0);
  rig.RunUntil(Milliseconds(290));
  // Heartbeat went silent: one trip, emergency unfreeze to the floor, daemon
  // marked degraded for when it returns.
  EXPECT_EQ(rig.watchdog->trips(), 1);
  EXPECT_TRUE(rig.watchdog->tripped());
  EXPECT_EQ(rig.kernel->online_cpus(), 4);
  EXPECT_TRUE(rig.daemon->degraded());
  // Detection latency: within the deadline plus one check period (plus slack).
  EXPECT_LE(rig.watchdog->first_trip_ns() - Milliseconds(100), Milliseconds(50));
  rig.RunUntil(Milliseconds(600));
  EXPECT_EQ(rig.watchdog->recoveries(), 1);
  EXPECT_FALSE(rig.watchdog->tripped());
  EXPECT_GE(rig.daemon->resumes(), 1);
  EXPECT_EQ(rig.kernel->online_cpus(), 2);  // re-converged after recovery
}

TEST(HardenedDaemonTest, WatchdogStaysQuietOnHealthyRun) {
  DaemonRig rig(FastConfig(), "", /*with_watchdog=*/true);
  rig.RunUntil(Seconds(1));
  EXPECT_EQ(rig.watchdog->trips(), 0);
  EXPECT_EQ(rig.daemon->degradations(), 0);
  EXPECT_EQ(rig.daemon->read_retries(), 0);
  EXPECT_EQ(rig.kernel->online_cpus(), 2);
}

// Two identical faulted runs must agree on every counter and timestamp — the
// backoff schedule contains no hidden nondeterminism.
TEST(HardenedDaemonTest, FaultedRunIsDeterministic) {
  auto run = [] {
    DaemonConfig dc = FastConfig();
    dc.max_read_retries = 3;
    DaemonRig rig(dc, "chan-fail@100ms+150ms;freeze-fail@300ms+50ms");
    rig.RunUntil(Milliseconds(700));
    return std::tuple<int64_t, int64_t, int64_t, int64_t, TimeNs, TimeNs, int>(
        rig.daemon->read_retries(), rig.daemon->apply_retries(),
        rig.daemon->degradations(), rig.daemon->resumes(),
        rig.daemon->first_degrade_ns(), rig.daemon->last_resume_ns(),
        rig.kernel->online_cpus());
  };
  EXPECT_EQ(run(), run());
}

// --- pCPU steal bursts ---

TEST(StealBurstTest, StealsVacateAndRestorePcpus) {
  MachineConfig mc;
  mc.n_pcpus = 4;
  Machine machine(mc);
  Domain& d = machine.CreateDomain("vm", 1024, 4);
  GuestKernel kernel(machine, machine.sim(), d, GuestConfig{});
  FaultPlan plan;
  plan.Add(FaultKind::kStealBurst, Milliseconds(10), Milliseconds(20), 2);
  FaultInjector inj(machine.sim(), plan);
  inj.on_transition = [&](const FaultEvent& ev, bool) {
    if (ev.kind == FaultKind::kStealBurst) {
      const bool active = inj.Active(FaultKind::kStealBurst);
      machine.SetStolenPcpus(
          active ? static_cast<int>(inj.Magnitude(FaultKind::kStealBurst)) : 0);
    }
  };
  inj.Arm();
  machine.sim().RunUntil(Milliseconds(20));
  EXPECT_EQ(machine.stolen_pcpus(), 2);
  machine.sim().RunUntil(Milliseconds(40));
  EXPECT_EQ(machine.stolen_pcpus(), 0);
  // 2 pCPUs were gone for 20 ms each.
  EXPECT_GE(machine.total_stolen_ns(), Milliseconds(35));
  EXPECT_LE(machine.total_stolen_ns(), Milliseconds(45));
}

TEST(StealBurstTest, StealCountClampedBelowWholeMachine) {
  MachineConfig mc;
  mc.n_pcpus = 2;
  Machine machine(mc);
  machine.SetStolenPcpus(99);
  EXPECT_EQ(machine.stolen_pcpus(), 1);  // at least one pCPU always remains
  machine.SetStolenPcpus(0);
  EXPECT_EQ(machine.stolen_pcpus(), 0);
}

// --- config self-validation ---

struct CapturedViolations {
  CapturedViolations() {
    previous = SetInvariantHandler(
        [this](const InvariantViolation& v) { messages.push_back(v.message); });
  }
  ~CapturedViolations() { SetInvariantHandler(previous); }
  std::vector<std::string> messages;
  InvariantHandler previous;
};

TEST(ConfigValidationTest, DefaultConfigsAreValid) {
  CapturedViolations cap;
  DaemonConfig{}.Validate();
  WatchdogConfig{}.Validate();
  EXPECT_TRUE(cap.messages.empty());
}

TEST(ConfigValidationTest, DaemonConfigRejectsNonsense) {
  struct Case {
    const char* what;
    DaemonConfig dc;
  };
  std::vector<Case> cases;
  cases.push_back({"poll_period", {}});
  cases.back().dc.poll_period = 0;
  cases.push_back({"shrink_confirmations", {}});
  cases.back().dc.shrink_confirmations = 0;
  cases.push_back({"grow_confirmations", {}});
  cases.back().dc.grow_confirmations = -1;
  cases.push_back({"max_read_retries", {}});
  cases.back().dc.max_read_retries = -2;
  cases.push_back({"retry_backoff_base", {}});
  cases.back().dc.retry_backoff_base = 0;
  cases.push_back({"retry_backoff_cap", {}});
  cases.back().dc.retry_backoff_cap = Nanoseconds(1);  // below base
  cases.push_back({"stale_reads_threshold", {}});
  cases.back().dc.stale_reads_threshold = 0;
  cases.push_back({"unhealthy_cycles", {}});
  cases.back().dc.unhealthy_cycles = 0;
  cases.push_back({"resume_confirmations", {}});
  cases.back().dc.resume_confirmations = 0;
  for (const Case& c : cases) {
    CapturedViolations cap;
    c.dc.Validate();
    EXPECT_FALSE(cap.messages.empty()) << c.what;
    // The report names the offending field so the error is actionable.
    EXPECT_NE(cap.messages.front().find(c.what), std::string::npos) << c.what;
  }
}

TEST(ConfigValidationTest, WatchdogConfigRejectsNonsense) {
  {
    CapturedViolations cap;
    WatchdogConfig wc;
    wc.check_period = -5;
    wc.Validate();
    EXPECT_FALSE(cap.messages.empty());
  }
  {
    CapturedViolations cap;
    WatchdogConfig wc;
    wc.missed_cycles = 0;
    wc.Validate();
    EXPECT_FALSE(cap.messages.empty());
  }
}

TEST(ConfigValidationTest, TestbedConfigRejectsNonsense) {
  {
    CapturedViolations cap;
    TestbedConfig{}.Validate();  // defaults (pool 0 = auto) are legal
    EXPECT_TRUE(cap.messages.empty());
  }
  struct Case {
    const char* what;
    void (*mutate)(TestbedConfig*);
  };
  const Case cases[] = {
      {"primary_vcpus", [](TestbedConfig* c) { c->primary_vcpus = 0; }},
      {"exceeds the configured max",
       [](TestbedConfig* c) { c->primary_vcpus = kMaxVcpusPerDomain + 1; }},
      {"pool_pcpus", [](TestbedConfig* c) { c->pool_pcpus = -3; }},
      {"weight_per_vcpu", [](TestbedConfig* c) { c->weight_per_vcpu = 0; }},
      {"crunch/quiet", [](TestbedConfig* c) { c->quiet_mean = -1; }},
      {"duration", [](TestbedConfig* c) {
         c->faults.Add(FaultKind::kDaemonStall, Milliseconds(5), 0);
       }},
      {"negative magnitude", [](TestbedConfig* c) {
         c->faults.Add(FaultKind::kStealBurst, 0, Milliseconds(5), -2);
       }},
      {"poll_period", [](TestbedConfig* c) { c->daemon.poll_period = 0; }},
      {"missed_cycles", [](TestbedConfig* c) { c->watchdog.missed_cycles = 0; }},
  };
  for (const Case& c : cases) {
    CapturedViolations cap;
    TestbedConfig cfg;
    c.mutate(&cfg);
    cfg.Validate();
    ASSERT_FALSE(cap.messages.empty()) << c.what;
    EXPECT_NE(cap.messages.front().find(c.what), std::string::npos)
        << c.what << " -> " << cap.messages.front();
  }
  {
    // A disabled watchdog exempts its config from validation.
    CapturedViolations cap;
    TestbedConfig cfg;
    cfg.watchdog.missed_cycles = 0;
    cfg.enable_watchdog = false;
    cfg.Validate();
    EXPECT_TRUE(cap.messages.empty());
  }
}

TEST(ConfigValidationTest, TestbedConstructorValidates) {
  CapturedViolations cap;
  TestbedConfig cfg;
  cfg.policy = Policy::kBaseline;
  cfg.pool_pcpus = 2;
  cfg.primary_vcpus = 2;
  cfg.background_vms = -1;
  cfg.quiet_mean = -1;  // invalid, but harmless to actually run with
  Testbed bed(cfg);
  EXPECT_FALSE(cap.messages.empty());
}

TEST(ConfigValidationTest, DaemonConstructorValidates) {
  MachineConfig mc;
  mc.n_pcpus = 4;
  Machine machine(mc);
  Domain& d = machine.CreateDomain("vm", 256, 4);
  GuestKernel kernel(machine, machine.sim(), d, GuestConfig{});
  CapturedViolations cap;
  DaemonConfig dc;
  dc.poll_period = -1;
  VscaleDaemon daemon(kernel, machine, dc);
  EXPECT_FALSE(cap.messages.empty());
}

}  // namespace
}  // namespace vscale
