#include "src/fuzz/scenario.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>

#include "src/base/check.h"

namespace vscale {

namespace {

constexpr char kHeader[] = "vscale-scenario v1";

std::string I64(int64_t v) { return std::to_string(v); }

// One workload serialized as "workload omp app=lu intervals=12 spin=300000" /
// "workload web rps=250 start_ns=... dur_ns=... workers=8".
std::string WorkloadLine(const WorkloadSpec& w) {
  std::string out = "workload ";
  if (w.kind == WorkloadSpec::Kind::kOmp) {
    out += "omp app=" + w.app + " intervals=" + I64(w.intervals) +
           " spin=" + I64(w.spin_count);
  } else {
    out += "web rps=" + I64(w.rps) + " start_ns=" + I64(w.start) +
           " dur_ns=" + I64(w.duration) + " workers=" + I64(w.workers);
  }
  return out;
}

// Decimal integers; a value outside the type's range is a parse error rather
// than a wrapped (or, for int64_t, undefined) result.
bool ParseU64(std::string_view s, uint64_t* out) {
  if (s.empty()) return false;
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    const uint64_t d = static_cast<uint64_t>(c - '0');
    if (v > (kMax - d) / 10) return false;
    v = v * 10 + d;
  }
  *out = v;
  return true;
}

bool ParseI64(const std::string& s, int64_t* out) {
  const bool neg = !s.empty() && s[0] == '-';
  uint64_t mag = 0;
  if (!ParseU64(std::string_view(s).substr(neg ? 1 : 0), &mag)) return false;
  // |INT64_MIN| is one more than INT64_MAX.
  constexpr uint64_t kMaxMag = std::numeric_limits<int64_t>::max();
  if (mag > kMaxMag + (neg ? 1 : 0)) return false;
  *out = neg ? static_cast<int64_t>(0 - mag) : static_cast<int64_t>(mag);
  return true;
}

// Splits "key=value" tokens of a workload line.
bool SplitKv(const std::string& tok, std::string* key, std::string* value) {
  const size_t eq = tok.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 > tok.size()) return false;
  *key = tok.substr(0, eq);
  *value = tok.substr(eq + 1);
  return true;
}

// One antagonist serialized with every field explicit, so the canonical form
// never depends on which knobs happen to sit at their kind defaults:
// "antagonist tick-evader vcpus=2 weight=0 period_ns=0 duty=0 daemon=0".
std::string AntagonistLine(const AntagonistConfig& a) {
  return std::string("antagonist ") + vscale::ToString(a.kind) +
         " vcpus=" + I64(a.vcpus) + " weight=" + I64(a.weight) +
         " period_ns=" + I64(a.period) + " duty=" + I64(a.duty_pct) +
         " daemon=" + I64(a.run_daemon ? 1 : 0);
}

bool ParseAntagonistLine(const std::string& rest, AntagonistConfig* out,
                         std::string* why) {
  std::stringstream ss(rest);
  std::string kind_tok;
  if (!(ss >> kind_tok)) {
    *why = "antagonist line needs a kind (tick-evader | boost-abuser | churn | "
           "freeze-straggler)";
    return false;
  }
  AntagonistConfig a;
  if (!ParseAntagonistKind(kind_tok, &a.kind)) {
    *why = "unknown antagonist kind \"" + kind_tok + "\"";
    return false;
  }
  std::string tok;
  while (ss >> tok) {
    std::string key, value;
    int64_t num = 0;
    if (!SplitKv(tok, &key, &value) || !ParseI64(value, &num)) {
      *why = "bad antagonist token \"" + tok + "\" (want key=integer)";
      return false;
    }
    if (key == "vcpus") {
      a.vcpus = static_cast<int>(num);
    } else if (key == "weight") {
      a.weight = static_cast<int>(num);
    } else if (key == "period_ns") {
      a.period = num;
    } else if (key == "duty") {
      a.duty_pct = static_cast<int>(num);
    } else if (key == "daemon") {
      a.run_daemon = num != 0;
    } else {
      *why = "unknown antagonist token \"" + tok + "\"";
      return false;
    }
  }
  *out = a;
  return true;
}

bool ParseWorkloadLine(const std::string& rest, WorkloadSpec* out,
                       std::string* why) {
  std::stringstream ss(rest);
  std::string kind_tok;
  if (!(ss >> kind_tok)) {
    *why = "workload line needs a kind (omp | web)";
    return false;
  }
  WorkloadSpec w;
  if (kind_tok == "omp") {
    w.kind = WorkloadSpec::Kind::kOmp;
  } else if (kind_tok == "web") {
    w.kind = WorkloadSpec::Kind::kWeb;
  } else {
    *why = "unknown workload kind \"" + kind_tok + "\"";
    return false;
  }
  std::string tok;
  while (ss >> tok) {
    std::string key, value;
    if (!SplitKv(tok, &key, &value)) {
      *why = "bad workload token \"" + tok + "\" (want key=value)";
      return false;
    }
    int64_t num = 0;
    const bool numeric = ParseI64(value, &num);
    if (w.kind == WorkloadSpec::Kind::kOmp && key == "app") {
      w.app = value;
    } else if (w.kind == WorkloadSpec::Kind::kOmp && key == "intervals" &&
               numeric) {
      w.intervals = num;
    } else if (w.kind == WorkloadSpec::Kind::kOmp && key == "spin" && numeric) {
      w.spin_count = num;
    } else if (w.kind == WorkloadSpec::Kind::kWeb && key == "rps" && numeric) {
      w.rps = num;
    } else if (w.kind == WorkloadSpec::Kind::kWeb && key == "start_ns" &&
               numeric) {
      w.start = num;
    } else if (w.kind == WorkloadSpec::Kind::kWeb && key == "dur_ns" &&
               numeric) {
      w.duration = num;
    } else if (w.kind == WorkloadSpec::Kind::kWeb && key == "workers" &&
               numeric) {
      w.workers = static_cast<int>(num);
    } else {
      *why = "unknown or malformed workload token \"" + tok + "\"";
      return false;
    }
  }
  *out = w;
  return true;
}

}  // namespace

const char* PolicyToken(Policy p) {
  switch (p) {
    case Policy::kBaseline:
      return "baseline";
    case Policy::kBaselinePvlock:
      return "baseline-pvlock";
    case Policy::kVscale:
      return "vscale";
    case Policy::kVscalePvlock:
      return "vscale-pvlock";
  }
  return "?";
}

bool ParsePolicyToken(const std::string& token, Policy* out) {
  static constexpr Policy kAll[] = {Policy::kBaseline, Policy::kBaselinePvlock,
                                    Policy::kVscale, Policy::kVscalePvlock};
  for (Policy p : kAll) {
    if (token == PolicyToken(p)) {
      *out = p;
      return true;
    }
  }
  return false;
}

void Scenario::Validate() const {
  config.Validate();
  VS_REQUIRE(config.pool_pcpus >= 1,
             "Scenario pool_pcpus must be explicit and >= 1 (got %d); the "
             "fuzzer never relies on testbed auto-sizing",
             config.pool_pcpus);
  VS_REQUIRE(!workloads.empty(), "Scenario workload mix must not be empty");
  VS_REQUIRE(horizon > 0, "Scenario horizon must be positive (got %lld ns)",
             static_cast<long long>(horizon));
  for (const WorkloadSpec& w : workloads) {
    if (w.kind == WorkloadSpec::Kind::kOmp) {
      VS_REQUIRE(IsNpbProfileName(w.app),
                 "Scenario omp workload names unknown NPB app \"%s\"",
                 w.app.c_str());
      VS_REQUIRE(w.intervals >= 1,
                 "Scenario omp workload %s needs intervals >= 1 (got %lld)",
                 w.app.c_str(), static_cast<long long>(w.intervals));
      VS_REQUIRE(w.spin_count >= 0,
                 "Scenario omp workload %s needs spin >= 0 (got %lld)",
                 w.app.c_str(), static_cast<long long>(w.spin_count));
    } else {
      VS_REQUIRE(w.rps >= 1 && w.duration > 0 && w.start >= 0 && w.workers >= 1,
                 "Scenario web workload needs rps/duration/workers positive "
                 "and start >= 0 (got rps=%lld start=%lld dur=%lld workers=%d)",
                 static_cast<long long>(w.rps),
                 static_cast<long long>(w.start),
                 static_cast<long long>(w.duration), w.workers);
      VS_REQUIRE(w.start + w.duration < horizon,
                 "Scenario web window ends at %lld ns, past the %lld ns horizon",
                 static_cast<long long>(w.start + w.duration),
                 static_cast<long long>(horizon));
    }
  }
  for (const FaultEvent& ev : config.faults.events) {
    VS_REQUIRE(ev.end() < horizon,
               "Scenario fault %s ends at %lld ns, past the %lld ns horizon — "
               "the liveness oracle needs post-fault recovery room",
               vscale::ToString(ev.kind), static_cast<long long>(ev.end()),
               static_cast<long long>(horizon));
  }
}

std::string Scenario::ToString() const {
  std::string out;
  out += kHeader;
  out += '\n';
  out += "seed " + std::to_string(seed) + '\n';
  out += "policy " + std::string(PolicyToken(config.policy)) + '\n';
  out += "pcpus " + I64(config.pool_pcpus) + '\n';
  out += "vcpus " + I64(config.primary_vcpus) + '\n';
  out += "background_vms " + I64(config.background_vms) + '\n';
  out += "crunch_ns " + I64(config.crunch_mean) + '\n';
  out += "quiet_ns " + I64(config.quiet_mean) + '\n';
  out += "horizon_ns " + I64(horizon) + '\n';
  out += "daemon.poll_ns " + I64(config.daemon.poll_period) + '\n';
  out += "daemon.shrink_confirmations " + I64(config.daemon.shrink_confirmations) + '\n';
  out += "daemon.grow_confirmations " + I64(config.daemon.grow_confirmations) + '\n';
  out += "daemon.stale_reads_threshold " + I64(config.daemon.stale_reads_threshold) + '\n';
  out += "daemon.unhealthy_cycles " + I64(config.daemon.unhealthy_cycles) + '\n';
  out += "daemon.resume_confirmations " + I64(config.daemon.resume_confirmations) + '\n';
  out += "daemon.safe_vcpu_floor " + I64(config.daemon.safe_vcpu_floor) + '\n';
  out += "watchdog.check_ns " + I64(config.watchdog.check_period) + '\n';
  out += "watchdog.missed_cycles " + I64(config.watchdog.missed_cycles) + '\n';
  out += "watchdog.safe_vcpu_floor " + I64(config.watchdog.safe_vcpu_floor) + '\n';
  for (const WorkloadSpec& w : workloads) {
    out += WorkloadLine(w) + '\n';
  }
  for (const AntagonistConfig& a : config.antagonists) {
    out += AntagonistLine(a) + '\n';
  }
  // Hardening keys appear only when a flag leaves its OFF default, so every
  // pre-antagonist corpus file stays byte-for-byte canonical (the omitted key
  // parses back to the same default — ToString() output is still a fixpoint).
  if (config.hardening.acct_time_based) {
    out += "hardening.acct_time_based 1\n";
  }
  if (config.hardening.boost_budget > 0) {
    out += "hardening.boost_budget " + I64(config.hardening.boost_budget) + '\n';
  }
  if (config.hardening.waited_cap_ratio > 0.0) {
    // Serialized as integer percent (ratio 2.0 -> 200): the grammar is
    // integer-only and parse quantizes to the same grid, keeping the fixpoint.
    out += "hardening.waited_cap_pct " +
           I64(static_cast<int64_t>(config.hardening.waited_cap_ratio * 100.0 + 0.5)) +
           '\n';
  }
  if (config.hardening.plausibility_clamp) {
    out += "hardening.plausibility_clamp 1\n";
  }
  if (config.hardening.ipi_dedup) {
    out += "hardening.ipi_dedup 1\n";
  }
  if (config.hardening.freeze_resend_ns > 0) {
    out += "hardening.freeze_resend_ns " + I64(config.hardening.freeze_resend_ns) +
           '\n';
  }
  if (config.hardening.tick_rescue) {
    out += "hardening.tick_rescue 1\n";
  }
  if (config.hardening.reconciler) {
    out += "hardening.reconciler 1\n";
    out += "reconciler.check_ns " + I64(config.reconciler.check_period) + '\n';
    out += "reconciler.grace_ns " + I64(config.reconciler.grace) + '\n';
  }
  out += "fault_seed " + std::to_string(config.faults.seed) + '\n';
  if (!config.faults.empty()) {
    out += "faults " + config.faults.ToString() + '\n';
  }
  return out;
}

bool ParseScenario(const std::string& text, Scenario* out, std::string* error) {
  Scenario s;
  s.workloads.clear();
  std::stringstream ss(text);
  std::string line;
  int lineno = 0;
  bool saw_header = false;
  auto fail = [&](const std::string& why) {
    if (error != nullptr) {
      *error = "line " + std::to_string(lineno) + ": " + why;
    }
    return false;
  };
  while (std::getline(ss, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    if (!saw_header) {
      if (line != kHeader) {
        return fail("expected header \"" + std::string(kHeader) + "\", got \"" +
                    line + "\"");
      }
      saw_header = true;
      continue;
    }
    const size_t sp = line.find(' ', first);
    if (sp == std::string::npos || sp + 1 >= line.size()) {
      return fail("expected \"<key> <value>\", got \"" + line + "\"");
    }
    const std::string key = line.substr(first, sp - first);
    const std::string value = line.substr(sp + 1);
    int64_t num = 0;
    const bool numeric = ParseI64(value, &num);
    if (key == "seed" || key == "fault_seed") {
      uint64_t u = 0;
      if (!ParseU64(value, &u)) return fail("bad uint64 for " + key);
      if (key == "seed") {
        s.seed = u;
      } else {
        s.config.faults.seed = u;
      }
    } else if (key == "policy") {
      if (!ParsePolicyToken(value, &s.config.policy)) {
        return fail("unknown policy \"" + value + "\"");
      }
    } else if (key == "workload") {
      WorkloadSpec w;
      std::string why;
      if (!ParseWorkloadLine(value, &w, &why)) return fail(why);
      s.workloads.push_back(std::move(w));
    } else if (key == "antagonist") {
      AntagonistConfig a;
      std::string why;
      if (!ParseAntagonistLine(value, &a, &why)) return fail(why);
      s.config.antagonists.push_back(a);
    } else if (key == "faults") {
      std::string why;
      if (!FaultPlan::Parse(value, &s.config.faults, &why)) {
        return fail("bad fault plan: " + why);
      }
    } else if (!numeric) {
      return fail("bad integer value for " + key + ": \"" + value + "\"");
    } else if (key == "pcpus") {
      s.config.pool_pcpus = static_cast<int>(num);
    } else if (key == "vcpus") {
      s.config.primary_vcpus = static_cast<int>(num);
    } else if (key == "background_vms") {
      s.config.background_vms = static_cast<int>(num);
    } else if (key == "crunch_ns") {
      s.config.crunch_mean = num;
    } else if (key == "quiet_ns") {
      s.config.quiet_mean = num;
    } else if (key == "horizon_ns") {
      s.horizon = num;
    } else if (key == "daemon.poll_ns") {
      s.config.daemon.poll_period = num;
    } else if (key == "daemon.shrink_confirmations") {
      s.config.daemon.shrink_confirmations = static_cast<int>(num);
    } else if (key == "daemon.grow_confirmations") {
      s.config.daemon.grow_confirmations = static_cast<int>(num);
    } else if (key == "daemon.stale_reads_threshold") {
      s.config.daemon.stale_reads_threshold = static_cast<int>(num);
    } else if (key == "daemon.unhealthy_cycles") {
      s.config.daemon.unhealthy_cycles = static_cast<int>(num);
    } else if (key == "daemon.resume_confirmations") {
      s.config.daemon.resume_confirmations = static_cast<int>(num);
    } else if (key == "daemon.safe_vcpu_floor") {
      s.config.daemon.safe_vcpu_floor = static_cast<int>(num);
    } else if (key == "watchdog.check_ns") {
      s.config.watchdog.check_period = num;
    } else if (key == "watchdog.missed_cycles") {
      s.config.watchdog.missed_cycles = static_cast<int>(num);
    } else if (key == "watchdog.safe_vcpu_floor") {
      s.config.watchdog.safe_vcpu_floor = static_cast<int>(num);
    } else if (key == "hardening.acct_time_based") {
      s.config.hardening.acct_time_based = num != 0;
    } else if (key == "hardening.boost_budget") {
      s.config.hardening.boost_budget = static_cast<int>(num);
    } else if (key == "hardening.waited_cap_pct") {
      s.config.hardening.waited_cap_ratio = static_cast<double>(num) / 100.0;
    } else if (key == "hardening.plausibility_clamp") {
      s.config.hardening.plausibility_clamp = num != 0;
    } else if (key == "hardening.ipi_dedup") {
      s.config.hardening.ipi_dedup = num != 0;
    } else if (key == "hardening.freeze_resend_ns") {
      s.config.hardening.freeze_resend_ns = num;
    } else if (key == "hardening.tick_rescue") {
      s.config.hardening.tick_rescue = num != 0;
    } else if (key == "hardening.reconciler") {
      s.config.hardening.reconciler = num != 0;
    } else if (key == "reconciler.check_ns") {
      s.config.reconciler.check_period = num;
    } else if (key == "reconciler.grace_ns") {
      s.config.reconciler.grace = num;
    } else {
      return fail("unknown key \"" + key + "\"");
    }
  }
  if (!saw_header) {
    if (error != nullptr) *error = "empty input: missing scenario header";
    return false;
  }
  // The testbed seed always mirrors the scenario seed.
  s.config.seed = s.seed;
  *out = std::move(s);
  return true;
}

bool LoadScenarioFile(const std::string& path, Scenario* out,
                      std::string* error) {
  std::ifstream f(path);
  if (!f) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::stringstream buf;
  buf << f.rdbuf();
  if (!ParseScenario(buf.str(), out, error)) {
    if (error != nullptr) *error = path + ": " + *error;
    return false;
  }
  return true;
}

}  // namespace vscale
