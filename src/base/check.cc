#include "src/base/check.h"

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace vscale {

namespace {

// Per thread, so concurrent simulations (the oracle's replay) each report to
// the handler installed around them.
InvariantHandler& Handler() {
  thread_local InvariantHandler handler;  // empty = default print-and-abort
  return handler;
}

// Process-wide: counts every thread's violations.
std::atomic<uint64_t> g_violations{0};

}  // namespace

InvariantHandler SetInvariantHandler(InvariantHandler handler) {
  InvariantHandler previous = Handler();
  Handler() = std::move(handler);
  return previous;
}

uint64_t InvariantViolationCount() { return g_violations; }

void ResetInvariantViolationCount() { g_violations = 0; }

namespace check_internal {

void Fail(const char* expr, const char* file, int line, const char* fmt, ...) {
  ++g_violations;
  InvariantViolation v;
  v.expr = expr;
  v.file = file;
  v.line = line;
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  v.message = buf;
  if (Handler()) {
    Handler()(v);
    return;
  }
  std::fprintf(stderr, "INVARIANT VIOLATION at %s:%d\n  check:   %s\n  detail:  %s\n",
               file, line, expr, buf);
  std::abort();
}

}  // namespace check_internal

}  // namespace vscale
