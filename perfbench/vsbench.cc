// vsbench: the repository's end-to-end benchmark. perfbench/README.md defines
// every workload and metric; run.py builds this binary and invokes it.
//
//   vsbench --workload W --seed N --seconds S --trace 0|1 --data DIR --out DIR
//   vsbench --make-bundle FIRST_SEED COUNT OUT_FILE
//
// --trace 0 times whole passes over the workload's items with nothing
// interposed and prints the end-to-end metrics. --trace 1 runs one plain pass
// and one pass with every domain's GuestOs wrapped in a timing proxy, checks
// that both passes digest identically, and prints the per-layer metrics.
// Either way the last stdout line is the JSON result; the exit code is 1 when
// any correctness check failed.
//
// --make-bundle freezes GenerateScenario(FIRST_SEED .. FIRST_SEED+COUNT-1)
// into a scenario bundle, keeping only scenarios whose RunOracle verdict is
// pass. The benchmark itself only ever parses the checked-in bundles.
//
// Host time is the subject here (steady_clock); the simulations inside stay
// virtual-time and seed-driven.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/base/stats.h"
#include "src/base/trace.h"
#include "src/fuzz/oracle.h"
#include "src/fuzz/scenario.h"
#include "src/fuzz/scenario_gen.h"
#include "src/hypervisor/guest_os.h"
#include "src/metrics/state_digest.h"
#include "src/metrics/trace_export.h"
#include "src/metrics/trace_validate.h"
#include "src/obs/coverage.h"
#include "src/obs/stall_accounting.h"
#include "src/workloads/campaign.h"
#include "src/workloads/omp_app.h"
#include "src/workloads/testbed.h"
#include "src/workloads/web_server.h"

namespace {

using namespace vscale;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SimSeconds(TimeNs t) { return static_cast<double>(t) / 1e9; }

// ---------------------------------------------------------------------------
// Spans. A span's self time is its duration minus the durations of the spans
// opened inside it. kRoot wraps every call that advances a simulation, so its
// self time is everything the guest proxy does not claim: event dispatch, the
// credit scheduler and closures run outside the guest (vScale daemon, ticker,
// workload generators).

enum SpanKind : int {
  kRoot,
  kSchedIn,
  kSchedOut,
  kAdvance,
  kNextEventDelta,
  kOnDeadline,
  kDeliverEvent,
  kSetup,     // Testbed / application / server construction
  kDigest,    // StateDigest of a finished run
  kParse,     // ParseScenario
  kSingle,    // RunCoverageOnce
  kOracle,    // RunOracle
  kExport,    // Chrome-JSON export of the flight recorder
  kStallCsv,  // stall-accounting CSV export
  kNumSpans,
};

constexpr SpanKind kGuestSpans[] = {kSchedIn,        kSchedOut,  kAdvance,
                                    kNextEventDelta, kOnDeadline, kDeliverEvent};
const char* GuestSpanName(SpanKind k) {
  switch (k) {
    case kSchedIn: return "sched_in";
    case kSchedOut: return "sched_out";
    case kAdvance: return "advance";
    case kNextEventDelta: return "next_event_delta";
    case kOnDeadline: return "on_deadline";
    case kDeliverEvent: return "deliver_event";
    default: return "?";
  }
}

class SpanClock {
 public:
  void Begin(SpanKind kind) { stack_.push_back({kind, NowNs(), 0}); }
  void End() {
    const Frame f = stack_.back();
    stack_.pop_back();
    const int64_t dur = NowNs() - f.start;
    self_ns_[f.kind] += dur - f.child_ns;
    ++calls_[f.kind];
    if (!stack_.empty()) stack_.back().child_ns += dur;
  }
  double self_ms(SpanKind k) const { return static_cast<double>(self_ns_[k]) / 1e6; }
  int64_t calls(SpanKind k) const { return calls_[k]; }

 private:
  struct Frame {
    SpanKind kind;
    int64_t start;
    int64_t child_ns;
  };
  std::vector<Frame> stack_;
  int64_t self_ns_[kNumSpans] = {};
  int64_t calls_[kNumSpans] = {};
};

// Opens a span on `clock` when there is one; a null clock (the timed passes)
// costs one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanClock* clock, SpanKind kind) : clock_(clock) {
    if (clock_ != nullptr) clock_->Begin(kind);
  }
  ~ScopedSpan() {
    if (clock_ != nullptr) clock_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanClock* clock_;
};

// Forwarding GuestOs that records a span around every hypervisor -> guest
// call. It only observes: the traced pass must digest like the plain one.
class TimedGuest final : public GuestOs {
 public:
  TimedGuest(GuestOs& inner, SpanClock& clock) : inner_(inner), clock_(clock) {}

  void OnScheduledIn(VcpuId vcpu, TimeNs now) override {
    ScopedSpan s(&clock_, kSchedIn);
    inner_.OnScheduledIn(vcpu, now);
  }
  void OnDescheduled(VcpuId vcpu, TimeNs now) override {
    ScopedSpan s(&clock_, kSchedOut);
    inner_.OnDescheduled(vcpu, now);
  }
  void Advance(VcpuId vcpu, TimeNs elapsed) override {
    ScopedSpan s(&clock_, kAdvance);
    inner_.Advance(vcpu, elapsed);
  }
  TimeNs NextEventDelta(VcpuId vcpu) override {
    ScopedSpan s(&clock_, kNextEventDelta);
    return inner_.NextEventDelta(vcpu);
  }
  void OnDeadline(VcpuId vcpu) override {
    ScopedSpan s(&clock_, kOnDeadline);
    inner_.OnDeadline(vcpu);
  }
  void DeliverEvent(VcpuId vcpu, EvtchnPort port) override {
    ScopedSpan s(&clock_, kDeliverEvent);
    inner_.DeliverEvent(vcpu, port);
  }

 private:
  GuestOs& inner_;
  SpanClock& clock_;
};

// A Testbed with its guests optionally interposed. The proxies are declared
// first so they outlive the machine that calls them.
class Bed {
 public:
  Bed(const TestbedConfig& config, SpanClock* clock) {
    bed_ = std::make_unique<Testbed>(config);
    if (clock == nullptr) return;
    for (const auto& d : bed_->machine().domains()) {
      proxies_.push_back(std::make_unique<TimedGuest>(*d->guest(), *clock));
      d->set_guest(proxies_.back().get());
    }
  }
  Testbed& operator*() { return *bed_; }
  Testbed* operator->() { return bed_.get(); }

 private:
  std::vector<std::unique_ptr<TimedGuest>> proxies_;
  std::unique_ptr<Testbed> bed_;
};

// ---------------------------------------------------------------------------
// Results of one pass over a workload's items.

struct Counters {  // simulated, summed over the pass's testbeds
  int64_t events = 0;
  int64_t context_switches = 0;
  int64_t boost_grants = 0;
  double idle_frac_sum = 0.0;
  int64_t testbeds = 0;
  int64_t resched_ipis = 0;
  int64_t timer_ints = 0;
  int64_t vscale_cycles = 0;
  int64_t reconfigurations = 0;
  int64_t cell_timeouts = 0;
  int64_t web_arrivals = 0;
  int64_t web_replies = 0;
  int64_t web_drops = 0;

  void AbsorbTestbed(Testbed& bed) {
    events += static_cast<int64_t>(bed.sim().events_processed());
    context_switches += bed.machine().context_switches();
    boost_grants += bed.machine().boost_grants();
    idle_frac_sum += 1.0 - bed.machine().PoolUtilization();
    ++testbeds;
    resched_ipis += bed.PrimaryReschedIpis();
    timer_ints += bed.PrimaryTimerInts();
    if (bed.daemon() != nullptr) {
      vscale_cycles += bed.daemon()->cycles();
      reconfigurations +=
          bed.daemon()->balancer().freezes() + bed.daemon()->balancer().unfreezes();
    }
  }
};

// A workload-specific result, printed by name and unit in the text report.
struct Reading {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

struct Pass {
  double host_s = 0.0;
  double sim_s = 0.0;
  std::vector<double> item_ms;  // host ms per item
  int64_t attempted = 0;
  int64_t failed = 0;
  StateDigest digest;
  Counters counters;
  std::vector<Reading> sim;   // simulated results (deterministic per seed)
  std::vector<Reading> host;  // workload-specific host results
  std::map<std::string, double> layer;  // workload-specific per-layer values
};

// Runs `bed` on to `end`, timing each simulated second as one item.
void RunTimedSeconds(Testbed& bed, TimeNs end, SpanClock* clock, Pass& pass) {
  while (bed.sim().Now() < end) {
    const int64_t t0 = NowNs();
    {
      ScopedSpan s(clock, kRoot);
      bed.sim().RunUntil(std::min(end, bed.sim().Now() + Seconds(1)));
    }
    pass.item_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  }
}

void DigestRun(Testbed& bed, TimeNs result, SpanClock* clock, Pass& pass) {
  ScopedSpan s(clock, kDigest);
  pass.digest.Absorb(result).AbsorbMachine(bed.machine()).AbsorbGuest(bed.primary());
}

// ---------------------------------------------------------------------------
// Paper reference values (data/paper_reference.txt): "key value" lines.

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "vsbench: cannot read %s\n", path.c_str());
    std::exit(2);
  }
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::map<std::string, double> LoadReference(const std::string& data_dir) {
  std::map<std::string, double> ref;
  std::istringstream in(ReadFile(data_dir + "/paper_reference.txt"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    double value = 0.0;
    if (!(fields >> key >> value)) {
      std::fprintf(stderr, "vsbench: bad reference line: %s\n", line.c_str());
      std::exit(2);
    }
    ref[key] = value;
  }
  return ref;
}

double RefValue(const std::map<std::string, double>& ref, const std::string& key) {
  const auto it = ref.find(key);
  if (it == ref.end()) {
    std::fprintf(stderr, "vsbench: reference value %s missing\n", key.c_str());
    std::exit(2);
  }
  return it->second;
}

// ---------------------------------------------------------------------------
// Workloads.
//
// Pass i of a run draws its testbed seeds as SubSeed(seed, i, unit): one run
// then averages many independent background-load draws instead of repeating
// one, so its cost does not swing with one seed's desktop crunch phases. The
// same --seed still gives the same inputs, pass by pass.

uint64_t SubSeed(uint64_t seed, int pass, uint64_t unit) {  // splitmix64
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(pass) * 1000 + unit + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) & 0xFFFFFFFFull;
}

class Workload {
 public:
  virtual ~Workload() = default;
  // Loads inputs and builds-and-boots one simulated machine of the workload's
  // configuration; repeated to time setup_s.
  virtual void Setup() = 0;
  // Pass `index` of a run; equal indices give equal simulations.
  virtual Pass RunPass(int index, SpanClock* clock) = 0;
  // Correctness checks beyond the per-item ones; returns the failures. A check
  // with a cost worth reporting adds it to `layer`.
  virtual int64_t ExtraChecks(int64_t* /*attempted*/,
                              std::map<std::string, double>* /*layer*/) {
    return 0;
  }
};

// --- npb_grid: Fig. 6, 10 NPB apps x 3 GOMP_SPINCOUNT panels x 4 policies ---

struct NpbCell {
  int64_t spin;
  std::string app;
  Policy policy;
  uint64_t pair;  // the four policies of one (panel, app) pair share a seed
};

constexpr int64_t kPanels[] = {kSpinCountActive, kSpinCountDefault, kSpinCountPassive};
constexpr Policy kNpbPolicies[] = {Policy::kBaseline, Policy::kVscale,
                                   Policy::kBaselinePvlock, Policy::kVscalePvlock};
constexpr int kNpbVcpus = 4;
constexpr TimeNs kCellDeadline = Seconds(900);  // CampaignConfig::run_deadline

class NpbGrid : public Workload {
 public:
  NpbGrid(uint64_t seed, std::string data_dir)
      : seed_(seed), data_dir_(std::move(data_dir)) {}

  void Setup() override {
    ref_ = LoadReference(data_dir_);
    cells_.clear();
    uint64_t pair = 0;
    for (int64_t spin : kPanels) {
      for (const OmpAppConfig& app : NpbSuite(kNpbVcpus, spin)) {
        for (Policy p : kNpbPolicies) cells_.push_back({spin, app.name, p, pair});
        ++pair;
      }
    }
    const NpbCell& c = cells_[0];
    const uint64_t seed = SubSeed(seed_, 0, c.pair);
    Bed bed(CellConfig(c, seed), nullptr);
    OmpApp app(bed->primary(), NpbProfile(c.app, kNpbVcpus, c.spin), seed * 13 + 7);
    bed->sim().RunUntil(Milliseconds(200));
  }

  // One cell, driven as RunNpbCell drives it (src/workloads/campaign.cc);
  // returns the app's duration, 0 on timeout.
  TimeNs RunCell(const NpbCell& cell, uint64_t seed, SpanClock* clock, Pass& pass) const {
    const int64_t t0 = NowNs();
    std::unique_ptr<Bed> bed;
    std::unique_ptr<OmpApp> app;
    {
      ScopedSpan s(clock, kSetup);
      bed = std::make_unique<Bed>(CellConfig(cell, seed), clock);
      app = std::make_unique<OmpApp>((*bed)->primary(),
                                     NpbProfile(cell.app, kNpbVcpus, cell.spin),
                                     seed * 13 + 7);
    }
    bool finished = false;
    {
      ScopedSpan s(clock, kRoot);
      (*bed)->sim().RunUntil(Milliseconds(200));
      app->Start();
      finished = (*bed)->RunUntil([&] { return app->done(); }, kCellDeadline);
    }
    const TimeNs duration = finished ? app->duration() : 0;
    DigestRun(**bed, duration, clock, pass);
    pass.counters.AbsorbTestbed(**bed);
    pass.sim_s += SimSeconds((*bed)->sim().Now());
    ++pass.attempted;
    if (!finished) {
      ++pass.failed;
      ++pass.counters.cell_timeouts;
    }
    pass.item_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    return duration;
  }

  Pass RunPass(int index, SpanClock* clock) override {
    Pass pass;
    const int64_t t0 = NowNs();
    std::map<std::pair<int64_t, std::string>, std::map<Policy, TimeNs>> dur;
    for (const NpbCell& cell : cells_) {
      dur[{cell.spin, cell.app}][cell.policy] =
          RunCell(cell, SubSeed(seed_, index, cell.pair), clock, pass);
    }
    pass.host_s = static_cast<double>(NowNs() - t0) / 1e9;

    // vScale / Xen-Linux per (panel, app): the Fig. 6 bars of interest.
    double log_sum = 0.0;
    double worst = 0.0;
    int n = 0;
    double err_sum = 0.0;
    int err_n = 0;
    for (const auto& [key, by_policy] : dur) {
      const TimeNs base = by_policy.at(Policy::kBaseline);
      const TimeNs vs = by_policy.at(Policy::kVscale);
      if (base <= 0 || vs <= 0) continue;
      const double norm = static_cast<double>(vs) / static_cast<double>(base);
      log_sum += std::log(norm);
      worst = std::max(worst, norm);
      ++n;
      if (key.first == kSpinCountActive) {
        const double ref = RefValue(ref_, "fig6a." + key.second);
        err_sum += std::fabs(norm - ref) / ref;
        ++err_n;
      }
    }
    pass.sim.push_back({"sim_norm_geomean", n > 0 ? std::exp(log_sum / n) : 0.0,
                        "ratio", "geomean vScale / Xen-Linux exec time, 30 cells"});
    pass.sim.push_back(
        {"sim_norm_worst", worst, "ratio", "worst vScale / Xen-Linux cell"});
    pass.sim.push_back({"paper_err", err_n > 0 ? err_sum / err_n : 0.0, "frac",
                        "mean |sim - paper| / paper over Fig. 6(a)"});
    return pass;
  }

  // The cell driver above must reproduce RunNpbCell exactly: one vScale cell
  // per spin panel, the app picked by the seed, pass-0 seeds.
  int64_t ExtraChecks(int64_t* attempted, std::map<std::string, double>*) override {
    int64_t failed = 0;
    const size_t per_panel = cells_.size() / std::size(kPanels);
    const size_t apps = per_panel / std::size(kNpbPolicies);
    for (size_t panel = 0; panel < std::size(kPanels); ++panel) {
      // Policy index 1 of kNpbPolicies is kVscale.
      const NpbCell& cell = cells_[panel * per_panel +
                                   ((seed_ + panel) % apps) * std::size(kNpbPolicies) + 1];
      const uint64_t seed = SubSeed(seed_, 0, cell.pair);
      Pass check;
      const TimeNs ours = RunCell(cell, seed, nullptr, check);
      CampaignConfig cfg;
      cfg.vcpus = kNpbVcpus;
      cfg.seeds = {seed};
      cfg.run_deadline = kCellDeadline;
      const TimeNs theirs = RunNpbCell(cfg, cell.app, cell.spin, cell.policy).mean_duration;
      ++*attempted;
      const bool ok = ours == theirs;
      if (!ok) ++failed;
      std::printf("%s: cell driver vs RunNpbCell (%s, spin %lld): %lld vs %lld ns\n",
                  ok ? "check ok" : "CHECK FAILED", cell.app.c_str(),
                  static_cast<long long>(cell.spin), static_cast<long long>(ours),
                  static_cast<long long>(theirs));
    }
    return failed;
  }

 private:
  static TestbedConfig CellConfig(const NpbCell& cell, uint64_t seed) {
    TestbedConfig tb;
    tb.policy = cell.policy;
    tb.primary_vcpus = kNpbVcpus;
    tb.seed = seed;
    return tb;
  }

  uint64_t seed_;
  std::string data_dir_;
  std::map<std::string, double> ref_;
  std::vector<NpbCell> cells_;
};

// --- web_open_loop: Fig. 14, Apache + httperf below/at/above the 1 GbE knee ---

constexpr double kWebRates[] = {4000.0, 7000.0, 10000.0};
constexpr Policy kWebPolicies[] = {Policy::kBaseline, Policy::kVscale};
constexpr TimeNs kWebWarmup = Milliseconds(300);
constexpr int kWebLoadSeconds = 20;  // Fig. 14 uses 60 s per point

class WebOpenLoop : public Workload {
 public:
  WebOpenLoop(uint64_t seed, std::string data_dir)
      : seed_(seed), data_dir_(std::move(data_dir)) {}

  void Setup() override {
    ref_ = LoadReference(data_dir_);
    const uint64_t seed = SubSeed(seed_, 0, 0);
    Bed bed(PointConfig(kWebPolicies[0], seed), nullptr);
    WebServer server(bed->primary(), bed->sim(), WebServerConfig{}, seed ^ 0x3EB);
    server.Start();
    bed->sim().RunUntil(kWebWarmup);
  }

  Pass RunPass(int index, SpanClock* clock) override {
    Pass pass;
    const int64_t t0 = NowNs();
    double peak_vscale_kps = 0.0;
    for (size_t r = 0; r < std::size(kWebRates); ++r) {
      const double rate = kWebRates[r];
      // Both policies at one rate see the same machine and arrival seeds.
      const uint64_t seed = SubSeed(seed_, index, r);
      for (Policy policy : kWebPolicies) {
        std::unique_ptr<Bed> bed;
        std::unique_ptr<WebServer> server;
        std::unique_ptr<HttperfClient> client;
        {
          ScopedSpan s(clock, kSetup);
          bed = std::make_unique<Bed>(PointConfig(policy, seed), clock);
          server = std::make_unique<WebServer>((*bed)->primary(), (*bed)->sim(),
                                               WebServerConfig{}, seed ^ 0x3EB);
          server->Start();
          client = std::make_unique<HttperfClient>(*server, (*bed)->sim(), rate,
                                                   seed ^ 0xC11);
        }
        {
          ScopedSpan s(clock, kRoot);
          (*bed)->sim().RunUntil(kWebWarmup);
          client->Run((*bed)->sim().Now(), Seconds(kWebLoadSeconds));
        }
        const TimeNs end = kWebWarmup + Seconds(kWebLoadSeconds + 1);
        RunTimedSeconds(**bed, end, clock, pass);
        const WebServer::Stats& st = server->stats();
        const double reply_kps = static_cast<double>(st.replies) / kWebLoadSeconds / 1e3;
        DigestRun(**bed, st.replies, clock, pass);
        pass.digest.Absorb(st.arrivals).Absorb(st.drops);
        pass.counters.AbsorbTestbed(**bed);
        pass.counters.web_arrivals += st.arrivals;
        pass.counters.web_replies += st.replies;
        pass.counters.web_drops += st.drops;
        pass.sim_s += SimSeconds((*bed)->sim().Now());
        ++pass.attempted;
        if (policy != Policy::kVscale) continue;
        peak_vscale_kps = std::max(peak_vscale_kps, reply_kps);
        if (rate == 10000.0) {
          pass.sim.push_back({"sim_reply_kps", reply_kps, "K/s",
                              "vScale reply rate at 10 K/s offered"});
        }
        if (rate == 7000.0) {
          pass.sim.push_back({"sim_resp_ms_p50", st.response_time_us.Quantile(0.5) / 1e3,
                              "sim_ms", "vScale response time p50 at 7 K/s offered"});
          pass.sim.push_back({"sim_resp_ms_p99", st.response_time_us.Quantile(0.99) / 1e3,
                              "sim_ms", "vScale response time p99 at 7 K/s offered"});
        }
      }
    }
    pass.host_s = static_cast<double>(NowNs() - t0) / 1e9;
    const double ref = RefValue(ref_, "fig14.vscale_peak_kps");
    pass.sim.push_back({"paper_err", std::fabs(peak_vscale_kps - ref) / ref, "frac",
                        "|vScale peak reply rate - 6.6 K/s| / 6.6 K/s"});
    return pass;
  }

 private:
  static TestbedConfig PointConfig(Policy policy, uint64_t seed) {
    TestbedConfig tb;
    tb.policy = policy;
    tb.primary_vcpus = 4;
    tb.seed = seed;
    return tb;
  }

  uint64_t seed_;
  std::string data_dir_;
  std::map<std::string, double> ref_;
};

// --- fuzz_pinned: RunOracle over a frozen, checked-in scenario bundle ---

// Seeds at or above this draw the held-out bundle (README.md).
constexpr uint64_t kHeldOutSeedBase = 1'000'000;

std::vector<std::string> SplitBundle(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  std::string cur;
  while (std::getline(in, line)) {
    if (line == "vscale-scenario v1" && !cur.empty()) {
      out.push_back(cur);
      cur.clear();
    }
    if (!line.empty() && line[0] == '#') continue;
    cur += line + "\n";
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

const OracleVerdict kVerdicts[] = {
    OracleVerdict::kPass,              OracleVerdict::kInvariantViolation,
    OracleVerdict::kStallNonExhaustive, OracleVerdict::kNotificationLost,
    OracleVerdict::kNonTermination,    OracleVerdict::kWatchdogNoRecovery,
    OracleVerdict::kFairnessViolation, OracleVerdict::kDigestDivergence,
};

class FuzzPinned : public Workload {
 public:
  FuzzPinned(uint64_t seed, std::string data_dir)
      : seed_(seed), data_dir_(std::move(data_dir)) {}

  void Setup() override {
    const std::string file = seed_ >= kHeldOutSeedBase ? "/fuzz_heldout.scenarios"
                                                       : "/fuzz_default.scenarios";
    texts_ = SplitBundle(ReadFile(data_dir_ + file));
    // The seed picks the order the bundle runs in; every pass runs all of it.
    std::rotate(texts_.begin(),
                texts_.begin() + static_cast<long>(seed_ % texts_.size()), texts_.end());
    scenarios_.clear();
    for (const std::string& t : texts_) {
      Scenario s;
      std::string error;
      if (!ParseScenario(t, &s, &error)) {
        std::fprintf(stderr, "vsbench: bundle scenario does not parse: %s\n",
                     error.c_str());
        std::exit(2);
      }
      scenarios_.push_back(s);
    }
  }

  Pass RunPass(int /*index*/, SpanClock* clock) override {
    Pass pass;
    CoverageVector coverage;
    std::map<OracleVerdict, int64_t> verdicts;
    double parse_ms = 0.0;
    double single_ms = 0.0;
    double oracle_ms = 0.0;
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < scenarios_.size(); ++i) {
      if (clock != nullptr) {
        // Traced pass only: split one item's layers by re-parsing the text and
        // running it once, before the oracle run the plain pass also makes.
        Scenario reparsed;
        const int64_t a = NowNs();
        {
          ScopedSpan s(clock, kParse);
          ParseScenario(texts_[i], &reparsed, nullptr);
        }
        const int64_t b = NowNs();
        {
          ScopedSpan s(clock, kSingle);
          (void)RunCoverageOnce(reparsed);
        }
        parse_ms += static_cast<double>(b - a) / 1e6;
        single_ms += static_cast<double>(NowNs() - b) / 1e6;
      }
      const int64_t o0 = NowNs();
      OracleReport r;
      {
        ScopedSpan s(clock, kOracle);
        r = RunOracle(scenarios_[i]);
      }
      const double item_ms = static_cast<double>(NowNs() - o0) / 1e6;
      oracle_ms += item_ms;
      pass.item_ms.push_back(item_ms);
      ++verdicts[r.verdict];
      ++pass.attempted;
      if (r.failed()) {
        ++pass.failed;
        std::printf("CHECK FAILED fuzz scenario seed %llu: %s (%s)\n",
                    static_cast<unsigned long long>(scenarios_[i].seed),
                    ToString(r.verdict), r.detail.c_str());
      }
      MergeCoverage(&coverage, r.coverage);
      {
        ScopedSpan s(clock, kDigest);
        pass.digest.Absorb(r.digest1).Absorb(r.digest2).Absorb(r.end_time);
        for (int64_t c : r.coverage) pass.digest.Absorb(c);
      }
      // Both runs of the double run simulate the scenario to its end.
      pass.sim_s += 2.0 * SimSeconds(r.end_time);
    }
    // The traced pass's extra parse and single run are not part of the
    // workload, so wall time and bench.trace_overhead_x leave them out.
    pass.host_s = static_cast<double>(NowNs() - t0) / 1e9 - (parse_ms + single_ms) / 1e3;
    const double n = static_cast<double>(scenarios_.size());
    const int points = CoveredPoints(coverage);
    pass.layer["fuzz.coverage_points"] = points;
    for (OracleVerdict v : kVerdicts) {
      pass.layer[std::string("fuzz.verdict.") + ToString(v)] =
          static_cast<double>(verdicts[v]);
    }
    if (clock != nullptr) {
      pass.layer["fuzz.parse_us"] = parse_ms * 1e3 / n;
      pass.layer["fuzz.single_run_ms"] = single_ms / n;
      pass.layer["fuzz.oracle_overhead_ms"] = (oracle_ms - 2.0 * single_ms) / n;
    }
    pass.sim.push_back({"sim_coverage_points", static_cast<double>(points), "count",
                        "coverage points the bundle reaches"});
    return pass;
  }

 private:
  uint64_t seed_;
  std::string data_dir_;
  std::vector<std::string> texts_;
  std::vector<Scenario> scenarios_;
};

// --- traced_testbed: quickstart lu pair with the flight recorder and stall on ---

constexpr size_t kRecorderEvents = 1u << 20;  // quickstart's ring for two runs
// Each run records a fixed window of lu rather than lu to completion, so the
// work per pass does not follow one seed's lu duration. Two windows fit the
// ring without drops.
constexpr TimeNs kRecordWindow = Seconds(12);

class TracedTestbed : public Workload {
 public:
  TracedTestbed(uint64_t seed, std::string out_dir)
      : seed_(seed), out_dir_(std::move(out_dir)) {}

  void Setup() override {
    GlobalTracer().SetCapacity(kRecorderEvents);
    const uint64_t seed = SubSeed(seed_, 0, 0);
    Bed bed(RunConfig(Policy::kBaseline, seed, false), nullptr);
    OmpApp app(bed->primary(), LuConfig(), seed ^ 0xA4450ULL);
    bed->sim().RunUntil(Milliseconds(200));
  }

  Pass RunPass(int index, SpanClock* clock) override {
    Pass pass;
    const uint64_t seed = SubSeed(seed_, index, 0);
    // The same pair unrecorded, as the base of record_overhead_x. Its digest
    // must match the recorded pair's: recorder and stall accounting only observe.
    StateDigest plain_digest;
    const int64_t u0 = NowNs();
    {
      Pass plain;
      for (Policy p : {Policy::kBaseline, Policy::kVscale}) {
        RunLu(p, seed, false, clock, plain);
      }
      plain_digest = plain.digest;
    }
    const double unrecorded_s = static_cast<double>(NowNs() - u0) / 1e9;

    const int64_t t0 = NowNs();
    GlobalTracer().Clear();
    GlobalTracer().Enable();
    StallAccountant::Global().Reset();
    for (Policy p : {Policy::kBaseline, Policy::kVscale}) RunLu(p, seed, true, clock, pass);
    GlobalTracer().Disable();
    const int64_t e0 = NowNs();
    std::string error;
    {
      ScopedSpan s(clock, kExport);
      if (!WriteChromeTraceFile(GlobalTracer(), TracePath(), &error)) {
        std::fprintf(stderr, "vsbench: %s\n", error.c_str());
        std::exit(2);
      }
    }
    const int64_t e1 = NowNs();
    {
      ScopedSpan s(clock, kStallCsv);
      std::ofstream csv(out_dir_ + "/traced_testbed.stall.csv");
      StallAccountant::Global().WriteCsv(csv);
    }
    const int64_t e2 = NowNs();
    pass.host_s = static_cast<double>(e2 - t0) / 1e9;

    ++pass.attempted;
    if (plain_digest.value() != pass.digest.value()) {
      ++pass.failed;
      std::printf("CHECK FAILED traced_testbed: recorded digest %s != unrecorded %s\n",
                  pass.digest.Hex().c_str(), plain_digest.Hex().c_str());
    }
    std::ifstream trace(TracePath(), std::ios::binary | std::ios::ate);
    pass.host.push_back({"record_overhead_x", pass.host_s / unrecorded_s, "x",
                         "recorded pair + export / unrecorded pair, host time"});
    pass.host.push_back({"trace_mb", static_cast<double>(trace.tellg()) / 1e6, "MB",
                         "exported Chrome JSON size"});
    pass.layer["obs.trace_events"] = static_cast<double>(GlobalTracer().recorded());
    pass.layer["obs.trace_dropped"] = static_cast<double>(GlobalTracer().dropped());
    pass.layer["obs.trace_export_ms"] = static_cast<double>(e1 - e0) / 1e6;
    pass.layer["obs.stall_csv_ms"] = static_cast<double>(e2 - e1) / 1e6;
    return pass;
  }

  // The last export must be a structurally valid Chrome trace.
  int64_t ExtraChecks(int64_t* attempted, std::map<std::string, double>* layer) override {
    ++*attempted;
    const int64_t t0 = NowNs();
    std::string error;
    TraceStats stats;
    const bool ok = ValidateChromeTrace(ReadFile(TracePath()), &error, &stats);
    (*layer)["metrics.trace_validate_ms"] = static_cast<double>(NowNs() - t0) / 1e6;
    if (!ok) {
      std::printf("CHECK FAILED traced_testbed export: %s\n", error.c_str());
      return 1;
    }
    std::printf("check ok: ValidateChromeTrace (%zu events, %zu domains)\n", stats.events,
                stats.domain_pids.size());
    return 0;
  }

 private:
  std::string TracePath() const { return out_dir_ + "/traced_testbed.trace.json"; }

  static TestbedConfig RunConfig(Policy policy, uint64_t seed, bool recorded) {
    TestbedConfig tb;
    tb.policy = policy;
    tb.primary_vcpus = 4;
    tb.seed = seed;
    tb.stall_accounting = recorded;
    return tb;
  }

  // quickstart's app (examples/quickstart.cpp), sized to outlast the window.
  static OmpAppConfig LuConfig() {
    OmpAppConfig ac = NpbProfile("lu", 4, kSpinCountActive);
    ac.intervals = 1'000'000;
    return ac;
  }

  void RunLu(Policy policy, uint64_t seed, bool recorded, SpanClock* clock,
             Pass& pass) const {
    std::unique_ptr<Bed> bed;
    std::unique_ptr<OmpApp> app;
    {
      ScopedSpan s(clock, kSetup);
      bed = std::make_unique<Bed>(RunConfig(policy, seed, recorded), clock);
      app = std::make_unique<OmpApp>((*bed)->primary(), LuConfig(), seed ^ 0xA4450ULL);
    }
    {
      ScopedSpan s(clock, kRoot);
      (*bed)->sim().RunUntil(Milliseconds(200));
      app->Start();
    }
    RunTimedSeconds(**bed, Milliseconds(200) + kRecordWindow, clock, pass);
    DigestRun(**bed, (*bed)->sim().Now(), clock, pass);
    pass.counters.AbsorbTestbed(**bed);
    pass.sim_s += SimSeconds(kRecordWindow);
  }

  uint64_t seed_;
  std::string out_dir_;
};

// ---------------------------------------------------------------------------
// Per-layer helpers.

// Host ns per FreezeCpu + UnfreezeCpu pair on a booted 4-vCPU guest.
double FreezeCallNs(uint64_t seed) {
  TestbedConfig tb;
  tb.policy = Policy::kBaseline;
  tb.primary_vcpus = 4;
  tb.seed = seed;
  Testbed bed(tb);
  bed.sim().RunUntil(Milliseconds(200));
  GuestKernel& k = bed.primary();
  constexpr int kIters = 20000;
  SampleSet per_round;
  for (int round = 0; round < 5; ++round) {
    const int64_t t0 = NowNs();
    for (int i = 0; i < kIters; ++i) {
      k.FreezeCpu(3);
      k.UnfreezeCpu(3);
    }
    per_round.Add(static_cast<double>(NowNs() - t0) / kIters);
  }
  return per_round.Median();
}

std::string BuildInfo() {
  std::string s;
#if defined(__clang__)
  s += "compiler=clang-" __clang_version__;
#elif defined(__GNUC__)
  s += "compiler=gcc-" __VERSION__;
#endif
  s += " build_type=" VSBENCH_BUILD_TYPE;
  s += " VSCALE_TRACE=" + std::to_string(VSCALE_TRACE);
  s += " VSCALE_CHECKED=" + std::to_string(VSCALE_CHECKED);
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  s += " sanitizer=on";
#else
  s += " sanitizer=off";
#endif
#if defined(NDEBUG)
  s += " asserts=off";
#else
  s += " asserts=on";
#endif
#if defined(__OPTIMIZE__)
  s += " optimized=yes";
#else
  s += " optimized=no";
#endif
  s += " nproc=" + std::to_string(std::thread::hardware_concurrency());
  return s;
}

// Peak resident set since the last ResetPeakRss(), in MB (Linux VmHWM; writing
// 5 to clear_refs resets only that high-water mark). Where /proc is missing it
// falls back to the process lifetime peak.
void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

// Per-layer units follow the metric names' suffixes.
std::string LayerUnit(const std::string& name) {
  if (EndsWith(name, "_ms")) return "ms";
  if (EndsWith(name, "_us")) return "us";
  if (EndsWith(name, "_ns") || EndsWith(name, "ns_per_event")) return "ns";
  if (EndsWith(name, "_x")) return "x";
  if (EndsWith(name, "_frac")) return "frac";
  return "count";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[96];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void PrintReadings(const char* kind, const std::vector<Reading>& readings) {
  for (const Reading& r : readings) {
    std::printf("  %-22s %14.6g %-7s %s: %s\n", r.name.c_str(), r.value, r.unit.c_str(),
                kind, r.note.c_str());
  }
}

int MakeBundle(uint64_t first, int count, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "vsbench: cannot write %s\n", path.c_str());
    return 2;
  }
  out << "# fuzz_pinned bundle: GenerateScenario(" << first << ".."
      << first + static_cast<uint64_t>(count) - 1 << ") serialized with\n"
      << "# Scenario::ToString, each checked to RunOracle verdict pass when made\n"
      << "# (vsbench --make-bundle " << first << " " << count << " <file>). Frozen: the\n"
      << "# benchmark only parses it, so generator edits cannot change its work.\n";
  int kept = 0;
  for (int i = 0; i < count; ++i) {
    const uint64_t seed = first + static_cast<uint64_t>(i);
    const Scenario s = GenerateScenario(seed);
    const OracleReport r = RunOracle(s);
    if (r.failed()) {
      std::printf("GenerateScenario(%llu): %s, not bundled (%s)\n",
                  static_cast<unsigned long long>(seed), ToString(r.verdict),
                  r.detail.c_str());
      continue;
    }
    out << "# GenerateScenario(" << seed << "), RunOracle: pass\n" << s.ToString();
    ++kept;
  }
  std::printf("bundled %d of %d scenarios into %s\n", kept, count, path.c_str());
  return 0;
}

struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
};

// --trace 0: whole passes for `seconds`; returns the end-to-end metrics.
std::vector<Metric> MeasureEndToEnd(Workload& w, double seconds, double setup_s,
                                    Tally& tally, Pass& first) {
  // Whole passes while the next one, as long as the mean so far, still fits.
  std::vector<Pass> passes;
  SampleSet rss_mb;
  const int64_t start = NowNs();
  double elapsed = 0.0;
  do {
    ResetPeakRss();
    passes.push_back(w.RunPass(static_cast<int>(passes.size()), nullptr));
    rss_mb.Add(PeakRssMb());
    elapsed = static_cast<double>(NowNs() - start) / 1e9;
  } while (elapsed + elapsed / static_cast<double>(passes.size()) <= seconds);

  // wall_s sums, item slot by item slot, the median over passes, plus the
  // median of the time outside items: a noise burst on the host then spoils
  // one sample of a slot instead of a whole pass.
  SampleSet items, outside, sim_s;
  std::vector<SampleSet> slots(passes[0].item_ms.size());
  std::map<std::string, SampleSet> host;
  for (const Pass& p : passes) {
    std::printf("pass host_s=%.4f sim_s=%.2f items=%zu\n", p.host_s, p.sim_s,
                p.item_ms.size());
    double in_items_ms = 0.0;
    for (size_t k = 0; k < p.item_ms.size() && k < slots.size(); ++k) {
      slots[k].Add(p.item_ms[k]);
      in_items_ms += p.item_ms[k];
    }
    outside.Add(p.host_s - in_items_ms / 1e3);
    sim_s.Add(p.sim_s);
    for (double ms : p.item_ms) items.Add(ms);
    for (const Reading& r : p.host) host[r.name].Add(r.value);
    tally.attempted += p.attempted;
    tally.failed += p.failed;
  }
  double wall_s = outside.Median();
  for (const SampleSet& slot : slots) wall_s += slot.Median() / 1e3;
  std::printf("passes=%zu items=%zu\n", passes.size(), items.count());

  first = passes[0];
  for (Reading& r : first.host) {
    r.value = host[r.name].Median();
    r.note += ", median over passes";
  }
  return {
      {"setup_s", setup_s, "s"},
      {"wall_s", wall_s, "s"},
      {"sim_speed", sim_s.Median() / wall_s, "sim_s/s"},
      {"item_ms_p50", items.Quantile(0.5), "ms"},
      {"item_ms_p90", items.Quantile(0.9), "ms"},
      {"peak_rss_mb", rss_mb.Median(), "MB"},
  };
}

// --trace 1: a warm-up, a plain and a traced pass of pass 0's inputs; checks
// they digest alike and fills `layer` with the per-layer metrics.
std::vector<Metric> MeasureLayers(Workload& w, uint64_t seed, Tally& tally, Pass& first,
                                  std::map<std::string, double>& layer) {
  (void)w.RunPass(0, nullptr);  // so neither measured pass runs cold
  const Pass plain = w.RunPass(0, nullptr);
  SpanClock clock;
  Pass traced;
  {
    ScopedSpan all(&clock, kRoot);
    traced = w.RunPass(0, &clock);
  }
  tally.attempted += plain.attempted + traced.attempted + 1;
  tally.failed += plain.failed + traced.failed;
  const bool same = plain.digest.value() == traced.digest.value();
  if (!same) ++tally.failed;
  std::printf("%s: traced digest %s, untraced %s\n", same ? "check ok" : "CHECK FAILED",
              traced.digest.Hex().c_str(), plain.digest.Hex().c_str());
  first = plain;

  const Counters& c = plain.counters;
  layer = traced.layer;
  auto put = [&](const std::string& k, double v) { layer[k] = v; };
  auto count = [&](const std::string& k, int64_t v) { put(k, static_cast<double>(v)); };
  count("sim.events", c.events);
  put("sim.ns_per_event",
      c.events > 0 ? plain.host_s * 1e9 / static_cast<double>(c.events) : 0.0);
  put("hypervisor.self_ms", clock.self_ms(kRoot));
  count("hypervisor.context_switches", c.context_switches);
  count("hypervisor.boost_grants", c.boost_grants);
  put("hypervisor.pool_idle_frac",
      c.testbeds > 0 ? c.idle_frac_sum / static_cast<double>(c.testbeds) : 0.0);
  double guest_ms = 0.0;
  for (SpanKind k : kGuestSpans) {
    const std::string base = std::string("guest.") + GuestSpanName(k);
    count(base + ".calls", clock.calls(k));
    put(base + ".self_ms", clock.self_ms(k));
    guest_ms += clock.self_ms(k);
  }
  put("guest.self_ms", guest_ms);
  count("guest.resched_ipis", c.resched_ipis);
  count("guest.timer_ints", c.timer_ints);
  count("vscale.cycles", c.vscale_cycles);
  count("vscale.reconfigurations", c.reconfigurations);
  put("vscale.freeze_call_ns", FreezeCallNs(seed));
  put("workloads.setup_ms", clock.self_ms(kSetup));
  count("workloads.cell_timeouts", c.cell_timeouts);
  count("workloads.web.arrivals", c.web_arrivals);
  count("workloads.web.replies", c.web_replies);
  count("workloads.web.drops", c.web_drops);
  put("metrics.digest_us", clock.self_ms(kDigest) * 1e3);
  put("bench.trace_overhead_x", traced.host_s / plain.host_s);
  // Layers a workload does not reach read 0 (README.md explains each).
  for (const char* k :
       {"fuzz.parse_us", "fuzz.single_run_ms", "fuzz.oracle_overhead_ms",
        "fuzz.coverage_points", "obs.trace_events", "obs.trace_dropped",
        "obs.trace_export_ms", "obs.stall_csv_ms", "metrics.trace_validate_ms"}) {
    layer.emplace(k, 0.0);
  }
  for (OracleVerdict v : kVerdicts) {
    layer.emplace(std::string("fuzz.verdict.") + ToString(v), 0.0);
  }
  return {};
}

int Usage() {
  std::fprintf(stderr,
               "usage: vsbench --workload W --seed N --seconds S --trace 0|1 "
               "--data DIR --out DIR\n"
               "       vsbench --make-bundle FIRST_SEED COUNT OUT_FILE\n"
               "workloads: npb_grid web_open_loop fuzz_pinned traced_testbed\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string data_dir;
  std::string out_dir;
  uint64_t seed = 42;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--make-bundle" && i + 3 < argc) {
      return MakeBundle(std::strtoull(argv[i + 1], nullptr, 10), std::atoi(argv[i + 2]),
                        argv[i + 3]);
    }
    if (i + 1 >= argc) return Usage();
    const std::string val = argv[++i];
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(val.c_str(), nullptr);
    } else if (arg == "--trace") {
      trace = std::atoi(val.c_str());
    } else if (arg == "--data") {
      data_dir = val;
    } else if (arg == "--out") {
      out_dir = val;
    } else {
      return Usage();
    }
  }
  if (data_dir.empty() || out_dir.empty()) return Usage();

  std::unique_ptr<Workload> w;
  if (workload == "npb_grid") {
    w = std::make_unique<NpbGrid>(seed, data_dir);
  } else if (workload == "web_open_loop") {
    w = std::make_unique<WebOpenLoop>(seed, data_dir);
  } else if (workload == "fuzz_pinned") {
    w = std::make_unique<FuzzPinned>(seed, data_dir);
  } else if (workload == "traced_testbed") {
    w = std::make_unique<TracedTestbed>(seed, out_dir);
  } else {
    return Usage();
  }

  std::printf("vsbench %s seed=%llu seconds=%g trace=%d\n", workload.c_str(),
              static_cast<unsigned long long>(seed), seconds, trace);
  std::printf("build: %s\n", BuildInfo().c_str());

  // Set-up, several times; the last one leaves the workload ready.
  SampleSet setup_s;
  for (int i = 0; i < 7; ++i) {
    const int64_t t0 = NowNs();
    w->Setup();
    setup_s.Add(static_cast<double>(NowNs() - t0) / 1e9);
  }

  Tally tally;
  Pass first;
  std::map<std::string, double> layer;
  std::vector<Metric> metrics =
      trace == 0 ? MeasureEndToEnd(*w, seconds, setup_s.Median(), tally, first)
                 : MeasureLayers(*w, seed, tally, first, layer);
  tally.failed += w->ExtraChecks(&tally.attempted, &layer);
  if (trace != 0) {
    for (const auto& [name, value] : layer) metrics.push_back({name, value, LayerUnit(name)});
  }

  std::printf("digest %s %s\n", workload.c_str(), first.digest.Hex().c_str());
  std::printf("results (seed %llu; simulated ones from pass 0):\n",
              static_cast<unsigned long long>(seed));
  PrintReadings("simulated", first.sim);
  PrintReadings("host", first.host);
  std::printf("  %-22s %14.6g %-7s failed/attempted (%lld/%lld)\n", "failed_frac",
              static_cast<double>(tally.failed) / static_cast<double>(tally.attempted),
              "frac", static_cast<long long>(tally.failed),
              static_cast<long long>(tally.attempted));
  PrintResult(tally.failed == 0, tally.attempted, tally.failed, metrics);
  return tally.failed == 0 ? 0 : 1;
}
