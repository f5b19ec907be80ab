// Delta-debugging shrinker: given a scenario the oracle battery fails, greedily
// minimizes it while the SAME verdict still reproduces, so the repro a human
// triages carries only the load-bearing structure. Reduction moves, applied in
// sweeps until a fixpoint or the oracle-run budget is exhausted:
//
//   * drop individual fault-plan events
//   * drop workloads from the mix (down to one)
//   * drop the background-VM consolidation (fewer, then none — a dedicated
//     machine repro removes whole domains from the triage surface)
//   * halve the horizon
//   * halve OMP interval counts (shorter runs, same structure)
//
// Acceptance is two-phase: a candidate must first pass a non-aborting
// Scenario::Validate() legality probe (a shrink move can strand a web window
// past a halved horizon — such candidates are discarded without spending an
// oracle run), then reproduce the original OracleVerdict exactly. A candidate
// that fails *differently* is rejected: mutating one bug into another during
// minimization is how repros lie. The result serializes via
// Scenario::ToString() and replays via fuzz_run --replay.

#ifndef VSCALE_SRC_FUZZ_SHRINKER_H_
#define VSCALE_SRC_FUZZ_SHRINKER_H_

#include "src/fuzz/oracle.h"
#include "src/fuzz/scenario.h"

namespace vscale {

struct ShrinkStats {
  int oracle_runs = 0;  // oracle calls spent (see ShrinkScenario)
  int accepted = 0;     // reduction moves that kept the verdict
};

// Minimizes `failing` (which must currently produce `verdict`) within a budget
// of `max_oracle_runs` oracle calls: RunOracle (two sim runs) when `verdict`
// is kDigestDivergence, RunOracleOnce (one) otherwise. Returns the smallest
// accepted scenario; `failing` itself if nothing shrank. `stats` may be null.
Scenario ShrinkScenario(const Scenario& failing, OracleVerdict verdict,
                        int max_oracle_runs = 200, ShrinkStats* stats = nullptr);

}  // namespace vscale

#endif  // VSCALE_SRC_FUZZ_SHRINKER_H_
