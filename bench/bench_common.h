// Shared helpers for the figure benches: environment-driven sizing so quick local
// iterations (VSCALE_BENCH_SEEDS=1) and thorough regenerations (=3, the paper's
// three-run averages) use the same binaries.

#ifndef VSCALE_BENCH_BENCH_COMMON_H_
#define VSCALE_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/base/metrics_registry.h"
#include "src/base/table.h"
#include "src/base/trace.h"
#include "src/metrics/state_digest.h"
#include "src/metrics/trace_export.h"
#include "src/obs/stall_accounting.h"
#include "src/workloads/campaign.h"
#include "src/workloads/testbed.h"

namespace vscale {

// Opt-in flight recording for a bench binary: construct one at the top of main()
// and the whole run records into the global tracer, exported on destruction.
//
//   bench_fig9_waiting_time --trace fig9.trace.json --metrics fig9.csv
//
// Also honored via environment (so wrapper scripts need no flag plumbing):
// VSCALE_TRACE_OUT=<path> and VSCALE_METRICS_OUT=<path>. With neither given this
// is inert: the tracer stays disabled and runs are bit-identical to an untraced
// binary. See docs/OBSERVABILITY.md.
//
// --digest (or VSCALE_DIGEST=1) prints the 64-bit FNV-1a digest of the run's
// end state — every frozen metric, plus the recorded event count when tracing —
// on exit. Re-running the same bench command must reprint the same digest;
// docs/CHECKING.md describes the double-run determinism check built on this.
//
// --stall (or VSCALE_STALL=1) enables stall attribution for every Testbed the
// bench constructs; --stall-csv <path> (or VSCALE_STALL_CSV=<path>) also dumps
// the bucket time series for tools/stall_report on destruction.
class BenchTraceScope {
 public:
  BenchTraceScope(int argc, char** argv) {
    if (const char* env = std::getenv("VSCALE_TRACE_OUT")) {
      trace_path_ = env;
    }
    if (const char* env = std::getenv("VSCALE_METRICS_OUT")) {
      metrics_path_ = env;
    }
    if (std::getenv("VSCALE_DIGEST") != nullptr) {
      want_digest_ = true;
    }
    if (std::getenv("VSCALE_STALL") != nullptr) {
      want_stall_ = true;
    }
    if (const char* env = std::getenv("VSCALE_STALL_CSV")) {
      stall_csv_path_ = env;
    }
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
        trace_path_ = argv[++i];
      } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
        metrics_path_ = argv[++i];
      } else if (std::strcmp(argv[i], "--stall-csv") == 0 && i + 1 < argc) {
        stall_csv_path_ = argv[++i];
      } else if (std::strcmp(argv[i], "--digest") == 0) {
        want_digest_ = true;
      } else if (std::strcmp(argv[i], "--stall") == 0) {
        want_stall_ = true;
      }
    }
    if (!stall_csv_path_.empty()) {
      want_stall_ = true;
    }
    if (want_stall_) {
      Testbed::SetStallAccountingDefault(true);
    }
    if (!trace_path_.empty()) {
      GlobalTracer().Clear();
      GlobalTracer().Enable();
    }
  }

  ~BenchTraceScope() {
    if (!trace_path_.empty()) {
      GlobalTracer().Disable();
      std::string error;
      if (WriteChromeTraceFile(GlobalTracer(), trace_path_, &error)) {
        std::printf("trace: wrote %zu events to %s (%llu dropped by ring)\n",
                    GlobalTracer().size(), trace_path_.c_str(),
                    static_cast<unsigned long long>(GlobalTracer().dropped()));
      } else {
        std::fprintf(stderr, "trace: %s\n", error.c_str());
      }
    }
    if (!metrics_path_.empty()) {
      std::ofstream f(metrics_path_);
      if (f) {
        MetricsRegistry::Global().WriteCsv(f);
        std::printf("metrics: wrote %zu metrics to %s\n",
                    MetricsRegistry::Global().size(), metrics_path_.c_str());
      } else {
        std::fprintf(stderr, "metrics: cannot open %s\n", metrics_path_.c_str());
      }
    }
    if (!stall_csv_path_.empty()) {
      std::ofstream f(stall_csv_path_);
      if (f) {
        StallAccountant::Global().WriteCsv(f);
        std::printf("stall: wrote bucket time series to %s\n",
                    stall_csv_path_.c_str());
      } else {
        std::fprintf(stderr, "stall: cannot open %s\n", stall_csv_path_.c_str());
      }
    }
    if (want_stall_) {
      Testbed::SetStallAccountingDefault(false);
    }
    if (want_digest_) {
      StateDigest digest;
      digest.AbsorbRegistry(MetricsRegistry::Global());
      if (!trace_path_.empty()) {
        digest.Absorb(static_cast<uint64_t>(GlobalTracer().size()));
      }
      std::printf("digest %s\n", digest.Hex().c_str());
    }
  }

 private:
  std::string trace_path_;
  std::string metrics_path_;
  std::string stall_csv_path_;
  bool want_digest_ = false;
  bool want_stall_ = false;
};

// A machine built by hand (no Testbed) binds the bench's tracer itself, so
// --trace records it too.
inline void BindBenchTracer(Machine& machine) {
  if (GlobalTracer().enabled()) {
    machine.sim().observers().trace = &GlobalTracer();
  }
}

inline std::vector<uint64_t> BenchSeeds() {
  int n = 1;
  if (const char* env = std::getenv("VSCALE_BENCH_SEEDS")) {
    n = std::atoi(env);
  }
  static const uint64_t kSeeds[] = {42, 137, 999, 2024, 5150};
  std::vector<uint64_t> seeds;
  for (int i = 0; i < n && i < 5; ++i) {
    seeds.push_back(kSeeds[i]);
  }
  if (seeds.empty()) {
    seeds.push_back(42);
  }
  return seeds;
}

inline CampaignConfig MakeCampaign(int vcpus) {
  CampaignConfig cfg;
  cfg.vcpus = vcpus;
  cfg.seeds = BenchSeeds();
  return cfg;
}

// Prints a normalized-execution-time figure: one row per app, one column per policy.
inline void PrintNormalizedFigure(const std::string& title,
                                  const std::vector<CellResult>& cells,
                                  const std::vector<Policy>& policies) {
  std::printf("%s\n", title.c_str());
  std::vector<std::string> headers = {"app"};
  for (Policy p : policies) {
    headers.push_back(ToString(p));
  }
  TextTable table(headers);
  std::vector<std::string> apps;
  for (const auto& c : cells) {
    bool seen = false;
    for (const auto& a : apps) {
      if (a == c.app) {
        seen = true;
        break;
      }
    }
    if (!seen) {
      apps.push_back(c.app);
    }
  }
  for (const auto& app : apps) {
    std::vector<std::string> row = {app};
    for (Policy p : policies) {
      double norm = 0.0;
      for (const auto& c : cells) {
        if (c.app == app && c.policy == p) {
          norm = Normalized(cells, c);
          break;
        }
      }
      row.push_back(TextTable::Num(norm, 2));
    }
    table.AddRow(row);
  }
  table.Print();
}

}  // namespace vscale

#endif  // VSCALE_BENCH_BENCH_COMMON_H_
