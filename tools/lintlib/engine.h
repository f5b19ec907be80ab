// lintlib engine: rule registry, suppression accounting, and the lint driver.
//
// A rule is a free function over the whole parsed project (cross-file rules
// like event-owner need project scope), reporting raw findings. The engine
// then:
//   1. drops findings covered by a `vslint: allow(rule, reason)` or legacy
//      `det_lint: allow(rule)` marker, marking the marker used;
//   2. reports `allow-needs-reason` for vslint markers without a reason;
//   3. reports `stale-suppression` for markers that suppressed nothing
//      (only for rules that were active in this run, so a determinism-only
//      det_lint pass cannot mis-flag semantic-rule markers);
//   4. reports `faults-allow-escape` for any marker inside src/faults/ or
//      src/fuzz/ (those layers must stay escape-free; this finding is itself
//      unsuppressable).
//
// Rule families (selectable, so tools/det_lint stays a thin determinism-only
// alias): determinism, event-lifecycle, observability, validate, meta. docs/CHECKING.md#vslint-the-protocol-lint carries the
// catalogue.

#ifndef VSCALE_TOOLS_LINTLIB_ENGINE_H_
#define VSCALE_TOOLS_LINTLIB_ENGINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tools/lintlib/parse.h"

namespace vslint {

struct Finding {
  std::string rel;
  int line = 0;
  std::string rule;
  std::string detail;
  bool baselined = false;  // present in the checked-in baseline: warn, not fail
};

struct Project {
  std::vector<ParsedFile> files;
  std::string docs_text;  // concatenated docs/*.md (+ top-level *.md) content
};

struct RuleDef {
  const char* name;
  const char* family;
  const char* contract;  // one-line statement of the enforced protocol
  void (*fn)(const Project&, std::vector<Finding>*);  // null for engine rules
};

// Every rule, semantic and determinism, in catalogue order.
const std::vector<RuleDef>& AllRules();

struct LintOptions {
  // Families to activate; empty = all.
  std::vector<std::string> families;
  // Disable the unused-marker pass (used by single-snippet selftests where a
  // marker's target rule may be deliberately absent).
  bool stale_check = true;
};

// Runs the active rules over `project` and returns the surviving findings,
// sorted by (rel, line, rule).
std::vector<Finding> RunLint(const Project& project, const LintOptions& opts);

// Baseline support: a finding is keyed by (rule, rel, hash of the stripped
// source line) so line-number drift does not invalidate entries. The baseline
// file is one `rule<TAB>rel<TAB>hex-hash` entry per line; '#' comments and
// blanks are ignored.
uint64_t FindingKeyHash(const Project& project, const Finding& f);
// Demotes findings matching a baseline entry (count-based) to baselined=true.
// Returns the number of baseline entries that matched nothing (burned down).
size_t ApplyBaseline(const Project& project, const std::string& baseline_text,
                     std::vector<Finding>* findings);
std::string SerializeBaseline(const Project& project,
                              const std::vector<Finding>& findings);

}  // namespace vslint

#endif  // VSCALE_TOOLS_LINTLIB_ENGINE_H_
