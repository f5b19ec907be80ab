// observability hygiene rules: the repo's contract is that metric names and
// trace event names are *documented interface*, not ad-hoc strings — harness
// scripts and the trace tooling key on them (docs/OBSERVABILITY.md).
//
//   metric-docs    — every metric-name string literal passed to Counter() /
//                    RegisterGauge() in src/ must appear in the docs.
//   trace-docs     — every event-name literal given to a Tracer hook
//                    (Instant/Begin/End/Counter) in src/ must appear in the
//                    docs.
//   trace-pairing  — kBegin/kEnd slice names must balance per file: the
//                    exporter closes dangling slices silently, so an
//                    unbalanced pair renders as a plausible-but-wrong
//                    timeline instead of an error.
//   cov-docs       — every coverage-point name in a kCoverPointNames catalogue
//                    table in src/ must appear in the docs: frontier files,
//                    cov_report output, and the baseline gate all speak these
//                    names (docs/FUZZING.md keeps the catalogue).

#include <algorithm>
#include <array>
#include <initializer_list>
#include <map>
#include <string>

#include "tools/lintlib/rules.h"

namespace vslint {
namespace rules {

namespace {

bool InSrc(const std::string& rel) { return rel.rfind("src/", 0) == 0; }

// A literal that participates in a metric path: lowercase [a-z0-9_.], at
// least 4 chars, with some structure ('.' or '_'). Short glue fragments
// ("_ns") and plain words ("count") are ignored.
bool LooksLikeMetricName(const std::string& s) {
  if (s.size() < 4) return false;
  bool structured = false;
  for (const char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '.';
    if (!ok) return false;
    if (c == '_' || c == '.') structured = true;
  }
  return structured;
}

// Token index of the matching ')' for the '(' at `open`.
size_t MatchParen(const std::vector<Token>& toks, size_t open) {
  int depth = 1;
  size_t j = open + 1;
  while (j < toks.size() && depth > 0) {
    if (toks[j].kind == Token::kPunct) {
      if (toks[j].text == "(") ++depth;
      if (toks[j].text == ")") --depth;
    }
    ++j;
  }
  return j - 1;
}

// The event-name token of a Tracer hook call at `t` (`tr->Instant(ts, cat,
// "name", ...)`, likewise Begin/End/Counter), or 0 when `t` is not one. The
// name is the third argument and a lone string literal, so a one-argument
// MetricsRegistry::Counter("...") never matches. `*close` receives the call's
// closing paren, or `t` when no listed method is called at `t`.
size_t TraceHookName(const std::vector<Token>& toks, size_t t,
                     std::initializer_list<const char*> methods, size_t* close) {
  *close = t;
  if (toks[t].kind != Token::kIdent || toks[t + 1].kind != Token::kPunct ||
      toks[t + 1].text != "(" ||
      std::find(methods.begin(), methods.end(), toks[t].text) == methods.end()) {
    return 0;
  }
  *close = MatchParen(toks, t + 1);
  int depth = 1;
  int arg = 0;
  std::vector<size_t> third;
  for (size_t j = t + 2; j < *close; ++j) {
    if (toks[j].kind == Token::kPunct) {
      depth += (toks[j].text == "(") - (toks[j].text == ")");
      if (toks[j].text == "," && depth == 1) {
        ++arg;
        continue;
      }
    }
    if (arg == 2) third.push_back(j);
  }
  return third.size() == 1 && toks[third[0]].kind == Token::kString ? third[0] : 0;
}

}  // namespace

void MetricDocs(const Project& project, std::vector<Finding>* out) {
  for (const ParsedFile& pf : project.files) {
    if (!InSrc(pf.src.rel)) continue;
    const std::vector<Token>& toks = pf.src.tokens;
    for (size_t t = 0; t + 1 < toks.size(); ++t) {
      if (toks[t].kind != Token::kIdent ||
          (toks[t].text != "Counter" && toks[t].text != "RegisterGauge")) {
        continue;
      }
      if (toks[t + 1].kind != Token::kPunct || toks[t + 1].text != "(") {
        continue;
      }
      const size_t close = MatchParen(toks, t + 1);
      // First argument only: stop at a depth-1 comma (RegisterGauge's gauge
      // callback may itself contain name-like literals).
      int depth = 1;
      for (size_t j = t + 2; j < close; ++j) {
        if (toks[j].kind == Token::kPunct) {
          if (toks[j].text == "(") ++depth;
          if (toks[j].text == ")") --depth;
          if (toks[j].text == "," && depth == 1) break;
          continue;
        }
        if (toks[j].kind != Token::kString) continue;
        const std::string& name = toks[j].text;
        if (!LooksLikeMetricName(name)) continue;
        if (project.docs_text.find(name) != std::string::npos) continue;
        out->push_back({pf.src.rel, toks[j].line, "metric-docs",
                        "metric name '" + name +
                            "' is registered here but appears nowhere in the "
                            "docs; document it (docs/OBSERVABILITY.md keeps "
                            "the metric catalogue)"});
      }
      t = close;
    }
  }
}

void TraceDocs(const Project& project, std::vector<Finding>* out) {
  for (const ParsedFile& pf : project.files) {
    if (!InSrc(pf.src.rel)) continue;
    const std::vector<Token>& toks = pf.src.tokens;
    for (size_t t = 0; t + 1 < toks.size(); ++t) {
      size_t close = t;
      const size_t n =
          TraceHookName(toks, t, {"Instant", "Begin", "End", "Counter"}, &close);
      t = close;
      if (n == 0) continue;
      const std::string& name = toks[n].text;
      if (project.docs_text.find(name) != std::string::npos) continue;
      out->push_back({pf.src.rel, toks[n].line, "trace-docs",
                      "trace event name '" + name +
                          "' is emitted here but appears nowhere in the "
                          "docs; add it to the trace schema table in "
                          "docs/OBSERVABILITY.md"});
    }
  }
}

// The coverage catalogue (src/obs/coverage.cc) is a name table the whole
// coverage plane keys on: frontier files, tests/coverage.baseline, and
// cov_report all parse these strings. A renamed or added point that never
// makes it into the docs breaks the "frontier files are self-describing"
// contract, so every string literal inside a kCoverPointNames initializer
// must appear verbatim in the docs.
void CovDocs(const Project& project, std::vector<Finding>* out) {
  for (const ParsedFile& pf : project.files) {
    if (!InSrc(pf.src.rel)) continue;
    const std::vector<Token>& toks = pf.src.tokens;
    for (size_t t = 0; t < toks.size(); ++t) {
      if (toks[t].kind != Token::kIdent || toks[t].text != "kCoverPointNames") {
        continue;
      }
      // Advance to the initializer's opening brace (skipping the array-size
      // brackets and '=' between the name and the '{').
      size_t open = t + 1;
      while (open < toks.size() &&
             !(toks[open].kind == Token::kPunct && toks[open].text == "{") &&
             !(toks[open].kind == Token::kPunct && toks[open].text == ";")) {
        ++open;
      }
      if (open >= toks.size() || toks[open].text != "{") continue;
      int depth = 1;
      size_t j = open + 1;
      for (; j < toks.size() && depth > 0; ++j) {
        if (toks[j].kind == Token::kPunct) {
          if (toks[j].text == "{") ++depth;
          if (toks[j].text == "}") --depth;
          continue;
        }
        if (toks[j].kind != Token::kString) continue;
        const std::string& name = toks[j].text;
        if (project.docs_text.find(name) != std::string::npos) continue;
        out->push_back({pf.src.rel, toks[j].line, "cov-docs",
                        "coverage point '" + name +
                            "' is in the catalogue table but appears nowhere "
                            "in the docs; add it to the coverage catalogue in "
                            "docs/FUZZING.md"});
      }
      t = j;
    }
  }
}

void TracePairing(const Project& project, std::vector<Finding>* out) {
  for (const ParsedFile& pf : project.files) {
    if (!InSrc(pf.src.rel)) continue;
    const std::vector<Token>& toks = pf.src.tokens;
    // name -> {begin count, end count, first line seen}
    std::map<std::string, std::array<int, 3>> names;
    for (size_t t = 0; t + 1 < toks.size(); ++t) {
      size_t close = t;
      const size_t n = TraceHookName(toks, t, {"Begin", "End"}, &close);
      if (n != 0) {
        auto& e = names[toks[n].text];
        if (e[0] == 0 && e[1] == 0) e[2] = toks[n].line;
        e[toks[t].text == "Begin" ? 0 : 1] += 1;
      }
      t = close;
    }
    for (const auto& [name, counts] : names) {
      if (counts[0] == counts[1]) continue;
      out->push_back(
          {pf.src.rel, counts[2], "trace-pairing",
           "trace slice '" + name + "' opens " + std::to_string(counts[0]) +
               " time(s) but closes " + std::to_string(counts[1]) +
               " time(s) in this file; B/E slices must balance per file or "
               "the exporter silently closes them at buffer end"});
    }
  }
}

}  // namespace rules
}  // namespace vslint
