#include "src/fuzz/shrinker.h"

#include <algorithm>
#include <utility>

#include "src/base/check.h"

namespace vscale {

namespace {

// Non-aborting legality probe: count this thread's violation reports (the
// process-wide counter also sees other threads' runs). Shrink moves routinely
// produce illegal candidates (a halved horizon can strand a fault window);
// those are rejected here for free.
bool IsLegal(const Scenario& s) {
  int reports = 0;
  InvariantHandler prev =
      SetInvariantHandler([&reports](const InvariantViolation&) { ++reports; });
  s.Validate();
  SetInvariantHandler(std::move(prev));
  return reports == 0;
}

class Shrinker {
 public:
  Shrinker(OracleVerdict verdict, int budget) : verdict_(verdict), budget_(budget) {}

  // Same-verdict acceptance: legal, within budget, and failing identically.
  // Only a kept kDigestDivergence needs the replay; RunOracleOnce gives the
  // same answer for every other verdict at one run's cost.
  bool Accept(const Scenario& cand) {
    if (runs_ >= budget_ || !IsLegal(cand)) return false;
    ++runs_;
    const OracleReport report = verdict_ == OracleVerdict::kDigestDivergence
                                    ? RunOracle(cand)
                                    : RunOracleOnce(cand);
    if (report.verdict != verdict_) return false;
    ++accepted_;
    return true;
  }

  int runs() const { return runs_; }
  int accepted() const { return accepted_; }

 private:
  OracleVerdict verdict_;
  int budget_;
  int runs_ = 0;
  int accepted_ = 0;
};

}  // namespace

Scenario ShrinkScenario(const Scenario& failing, OracleVerdict verdict,
                        int max_oracle_runs, ShrinkStats* stats) {
  Shrinker sh(verdict, max_oracle_runs);
  Scenario cur = failing;
  bool progress = true;
  while (progress && sh.runs() < max_oracle_runs) {
    progress = false;

    // Drop fault events, last first (late events are least likely to matter
    // for a failure that manifested earlier).
    for (size_t i = cur.config.faults.events.size(); i-- > 0;) {
      Scenario cand = cur;
      cand.config.faults.events.erase(cand.config.faults.events.begin() +
                                      static_cast<long>(i));
      if (sh.Accept(cand)) {
        cur = std::move(cand);
        progress = true;
      }
    }

    // Drop antagonists, last first. Zero is legal; a fairness-violation
    // verdict keeps its load-bearing attacker automatically (dropping it
    // disarms the fairness oracle, the verdict changes, the move is rejected).
    for (size_t i = cur.config.antagonists.size(); i-- > 0;) {
      Scenario cand = cur;
      cand.config.antagonists.erase(cand.config.antagonists.begin() +
                                    static_cast<long>(i));
      if (sh.Accept(cand)) {
        cur = std::move(cand);
        progress = true;
      }
    }

    // Drop workloads, keeping at least one (an empty mix is illegal and the
    // liveness oracle would be vacuous).
    for (size_t i = cur.workloads.size(); i-- > 0;) {
      if (cur.workloads.size() <= 1) break;
      Scenario cand = cur;
      cand.workloads.erase(cand.workloads.begin() + static_cast<long>(i));
      if (sh.Accept(cand)) {
        cur = std::move(cand);
        progress = true;
      }
    }

    // Drop consolidation: all background VMs at once, else one fewer.
    if (cur.config.background_vms > 0) {
      Scenario cand = cur;
      cand.config.background_vms = -1;
      if (sh.Accept(cand)) {
        cur = std::move(cand);
        progress = true;
      } else {
        cand = cur;
        cand.config.background_vms -= 1;
        if (cand.config.background_vms == 0) cand.config.background_vms = -1;
        if (sh.Accept(cand)) {
          cur = std::move(cand);
          progress = true;
        }
      }
    }

    // Halve the horizon (floor 1 s; legality probe rejects halvings that
    // strand a fault or web window).
    if (cur.horizon > Seconds(1)) {
      Scenario cand = cur;
      cand.horizon = std::max<TimeNs>(Seconds(1), cur.horizon / 2);
      if (sh.Accept(cand)) {
        cur = std::move(cand);
        progress = true;
      }
    }

    // Halve OMP interval counts toward the 2-interval floor.
    for (size_t i = 0; i < cur.workloads.size(); ++i) {
      WorkloadSpec& w = cur.workloads[i];
      if (w.kind != WorkloadSpec::Kind::kOmp || w.intervals <= 2) continue;
      Scenario cand = cur;
      cand.workloads[i].intervals = std::max<int64_t>(2, w.intervals / 2);
      if (sh.Accept(cand)) {
        cur = std::move(cand);
        progress = true;
      }
    }
  }
  if (stats != nullptr) {
    stats->oracle_runs = sh.runs();
    stats->accepted = sh.accepted();
  }
  return cur;
}

}  // namespace vscale
