#include "src/obs/stall_accounting.h"

#include <array>
#include <cinttypes>
#include <cstdio>

#include "src/base/byte_writer.h"
#include "src/base/check.h"
#include "src/base/metrics_registry.h"
#include "src/base/trace.h"
#include "src/obs/coverage.h"

namespace vscale {

namespace {

// Sends to a parked vCPU can pile up without a delivery; bound the FIFO so a
// pathological run cannot grow memory without bound. Overflow is counted, not
// silently dropped.
constexpr size_t kMaxInFlightIpis = 64;

const char* const kBucketNames[kStallBucketCount] = {
    "running",      "runnable_waiting_pcpu", "lhp_spinning", "futex_blocked",
    "ipi_in_flight", "frozen",               "stolen",       "idle",
};

}  // namespace

const char* ToString(StallBucket b) {
  int i = static_cast<int>(b);
  if (i < 0 || i >= kStallBucketCount) return "invalid";
  return kBucketNames[i];
}

bool ParseStallBucket(const std::string& s, StallBucket* out) {
  for (int i = 0; i < kStallBucketCount; ++i) {
    if (s == kBucketNames[i]) {
      *out = static_cast<StallBucket>(i);
      return true;
    }
  }
  return false;
}

StallAccountant::StallAccountant() = default;

StallAccountant& StallAccountant::Global() {
  static StallAccountant* instance = new StallAccountant();
  return *instance;
}

void StallAccountant::BeginRun(const std::string& label) {
  label_ = label;
  vcpus_.clear();
  wake_to_dispatch_ = LatencyHistogram();
  ipi_deliver_ = LatencyHistogram();
  freeze_quiesce_ = LatencyHistogram();
  scale_ops_.clear();
  emitted_doms_.clear();
  sample_seq_ = 0;
  active_ = true;
}

void StallAccountant::FinishRun(TimeNs now, const Observers& obs) {
  if (!active_) return;
  std::map<int, std::array<int64_t, kStallBucketCount>> per_dom;
  for (auto& [key, a] : vcpus_) {
    Flush(a, now);
    ipi_unmatched_sends_ += static_cast<int64_t>(a.ipi_sends.size());
    a.ipi_sends.clear();
    CsvRow row;
    row.run = label_;
    row.ts = now;
    row.domain = key.first;
    row.vcpu = key.second;
    auto& dom_totals = per_dom[key.first];
    for (int i = 0; i < kStallBucketCount; ++i) {
      row.buckets[i] = a.buckets[i];
      dom_totals[static_cast<size_t>(i)] += a.buckets[i];
    }
    rows_.push_back(std::move(row));
  }
  for (const auto& [dom, totals] : per_dom) {
    CsvRow row;
    row.run = label_;
    row.ts = now;
    row.domain = dom;
    row.vcpu = -1;
    for (int i = 0; i < kStallBucketCount; ++i) {
      row.buckets[i] = totals[static_cast<size_t>(i)];
    }
    rows_.push_back(std::move(row));
    // Coverage: the bucket that dominated this domain's wall time is a
    // semantic feature of the run (ties break toward the earlier bucket,
    // deterministically). Pure observation of already-final totals.
    int best = 0;
    for (int i = 1; i < kStallBucketCount; ++i) {
      if (totals[static_cast<size_t>(i)] > totals[static_cast<size_t>(best)]) {
        best = i;
      }
    }
    if (CoverageMap* cov = obs.cover; cov != nullptr &&
        totals[static_cast<size_t>(best)] > 0) {
      cov->OnStallDominant(static_cast<StallBucket>(best));
    }
  }
  active_ = false;
}

StallAccountant::VcpuAcct& StallAccountant::Get(int dom, int vcpu, TimeNs now) {
  auto [it, inserted] = vcpus_.try_emplace(Key{dom, vcpu});
  if (inserted) {
    it->second.birth = now;
    it->second.since = now;
  }
  return it->second;
}

StallBucket StallAccountant::DeriveBucket(const VcpuAcct& a) {
  // Frozen wins for non-running states: a parked vCPU's wait is intentional,
  // whatever else is pending. (Running-while-frozen is evacuation progress and
  // is attributed by OnRunningAdvance, not here.)
  if (a.frozen) return StallBucket::kFrozen;
  if (a.hv_state == VcpuState::kRunnable) {
    if (a.displaced) return StallBucket::kStolen;
    if (a.pending_event) return StallBucket::kIpiInFlight;
    return StallBucket::kRunnableWaitingPcpu;
  }
  return a.block_reason == StallBlockReason::kFutex ? StallBucket::kFutexBlocked
                                                    : StallBucket::kIdle;
}

void StallAccountant::Flush(VcpuAcct& a, TimeNs now) {
  if (a.hv_state != VcpuState::kRunning) {
    a.buckets[static_cast<int>(a.cur)] += now - a.since;
  }
  a.since = now;
}

void StallAccountant::Retarget(VcpuAcct& a, TimeNs now) {
  Flush(a, now);
  if (a.hv_state != VcpuState::kRunning) a.cur = DeriveBucket(a);
}

void StallAccountant::OnVcpuCreated(int dom, int vcpu, TimeNs now) {
  if (!active_) return;
  Get(dom, vcpu, now);
}

void StallAccountant::OnTransition(int dom, int vcpu, TimeNs now, VcpuState from,
                                   VcpuState to) {
  if (!active_) return;
  VcpuAcct& a = Get(dom, vcpu, now);
  // No-op from running: running time arrives via OnRunningAdvance.
  Flush(a, now);
  a.hv_state = to;
  if (to == VcpuState::kRunning) {
    if (a.wake_start != kTimeNever) {
      wake_to_dispatch_.Add(now - a.wake_start);
      a.wake_start = kTimeNever;
    }
    a.pending_event = false;  // RunOn drains pending ports at dispatch
    a.displaced = false;
    return;
  }
  if (from == VcpuState::kBlocked) {
    // A wake: the block reason is consumed (rearmed before the next block).
    a.block_reason = StallBlockReason::kIdle;
    a.wake_start = now;
  } else if (to == VcpuState::kBlocked && a.frozen &&
             a.freeze_start != kTimeNever) {
    // A frozen vCPU blocking is Algorithm 2's quiescent point.
    freeze_quiesce_.Add(now - a.freeze_start);
    a.freeze_start = kTimeNever;
  }
  a.cur = DeriveBucket(a);
}

void StallAccountant::OnRunningAdvance(int dom, int vcpu, TimeNs elapsed) {
  if (!active_) return;
  // `now` is not needed: running time is attributed directly, not by interval.
  VcpuAcct& a = Get(dom, vcpu, 0);
  a.buckets[static_cast<int>(StallBucket::kRunning)] += elapsed;
}

void StallAccountant::OnSpinAdvance(int dom, int vcpu, TimeNs elapsed) {
  if (!active_) return;
  VcpuAcct& a = Get(dom, vcpu, 0);
  a.buckets[static_cast<int>(StallBucket::kRunning)] -= elapsed;
  a.buckets[static_cast<int>(StallBucket::kLhpSpinning)] += elapsed;
}

void StallAccountant::OnFrozenChanged(int dom, int vcpu, TimeNs now, bool frozen) {
  if (!active_) return;
  VcpuAcct& a = Get(dom, vcpu, now);
  Flush(a, now);
  a.frozen = frozen;
  if (!frozen) a.freeze_start = kTimeNever;  // unfreeze cancels an open episode
  if (a.hv_state != VcpuState::kRunning) a.cur = DeriveBucket(a);
}

void StallAccountant::OnEventPosted(int dom, int vcpu, TimeNs now) {
  if (!active_) return;
  VcpuAcct& a = Get(dom, vcpu, now);
  if (a.hv_state == VcpuState::kRunning) return;  // delivered immediately
  Flush(a, now);
  a.pending_event = true;
  a.cur = DeriveBucket(a);
}

void StallAccountant::OnStealDisplaced(int dom, int vcpu, TimeNs now) {
  if (!active_) return;
  VcpuAcct& a = Get(dom, vcpu, now);
  // A displaced vCPU can be re-dispatched within the same steal transition;
  // if it is already running again there is no stolen wait to attribute.
  if (a.hv_state == VcpuState::kRunning) return;
  Flush(a, now);
  a.displaced = true;
  a.cur = DeriveBucket(a);
}

void StallAccountant::SetBlockReason(int dom, int vcpu, StallBlockReason reason) {
  if (!active_) return;
  Get(dom, vcpu, 0).block_reason = reason;
}

void StallAccountant::OnIpiSent(int dom, int vcpu, TimeNs now) {
  if (!active_) return;
  VcpuAcct& a = Get(dom, vcpu, now);
  if (a.ipi_sends.size() >= kMaxInFlightIpis) {
    a.ipi_sends.erase(a.ipi_sends.begin());
    ++ipi_unmatched_sends_;
  }
  a.ipi_sends.push_back(now);
}

void StallAccountant::OnIpiDelivered(int dom, int vcpu, TimeNs now) {
  if (!active_) return;
  VcpuAcct& a = Get(dom, vcpu, now);
  if (a.ipi_sends.empty()) return;  // delivery of an untracked port
  ipi_deliver_.Add(now - a.ipi_sends.front());
  a.ipi_sends.erase(a.ipi_sends.begin());
}

void StallAccountant::OnFreezeRequested(int dom, int vcpu, TimeNs now) {
  if (!active_) return;
  VcpuAcct& a = Get(dom, vcpu, now);
  if (a.freeze_start == kTimeNever) a.freeze_start = now;
}

void StallAccountant::OnApplyTarget(int dom, int target) {
  if (!active_) return;
  (void)target;
  ++scale_ops_[dom];
}

void StallAccountant::EmitCounterTracks(
    Tracer& tracer, int dom, const std::array<int64_t, kStallBucketCount>& t,
    TimeNs now) {
  // Literal names at each call, so vslint's trace-docs rule sees every track.
  const TraceCategory cat = TraceCategory::kHypervisor;
  tracer.Counter(now, cat, "stall_running_ns", dom, t[0]);
  tracer.Counter(now, cat, "stall_runnable_ns", dom, t[1]);
  tracer.Counter(now, cat, "stall_lhp_ns", dom, t[2]);
  tracer.Counter(now, cat, "stall_futex_ns", dom, t[3]);
  tracer.Counter(now, cat, "stall_ipi_ns", dom, t[4]);
  tracer.Counter(now, cat, "stall_frozen_ns", dom, t[5]);
  tracer.Counter(now, cat, "stall_stolen_ns", dom, t[6]);
  tracer.Counter(now, cat, "stall_idle_ns", dom, t[7]);
}

void StallAccountant::Sample(TimeNs now, const Observers& obs) {
  if (!active_) return;
  ++samples_;
  // Exhaustiveness holds exactly at HvTick boundaries: every running vCPU was
  // just settled to `now`, so attributed running time equals wall running time.
  std::string err;
  if (!CheckExhaustive(now, &err)) {
    ++exhaustive_failures_;
    VS_INVARIANT(false, "stall accounting not exhaustive: %s", err.c_str());
  }
  ++sample_seq_;
  if (sample_seq_ % kSampleEmitPeriod != 0) return;

  std::map<int, std::array<int64_t, kStallBucketCount>> per_dom;
  for (auto& [key, a] : vcpus_) {
    Flush(a, now);
    auto& totals = per_dom[key.first];
    for (int i = 0; i < kStallBucketCount; ++i) {
      totals[static_cast<size_t>(i)] += a.buckets[i];
    }
  }
  for (const auto& [dom, t] : per_dom) {
    // Cumulative tracks restart per run, but a quickstart-style trace holds
    // several runs on one rebased timeline with the same domain pids. Make the
    // restart explicit — a zero sample at the domain's first emission of this
    // run — so the trace_lint contract stays sharp: stall_* counters may only
    // ever decrease TO zero.
    if (Tracer* tracer = obs.trace) {
      if (!emitted_doms_[dom]) {
        emitted_doms_[dom] = true;
        EmitCounterTracks(*tracer, dom, {}, now);
      }
      EmitCounterTracks(*tracer, dom, t, now);
    }
    CsvRow row;
    row.run = label_;
    row.ts = now;
    row.domain = dom;
    row.vcpu = -1;
    for (int i = 0; i < kStallBucketCount; ++i) {
      row.buckets[i] = t[static_cast<size_t>(i)];
    }
    rows_.push_back(std::move(row));
  }
}

int64_t StallAccountant::BucketNs(int dom, int vcpu, StallBucket b) const {
  auto it = vcpus_.find(Key{dom, vcpu});
  if (it == vcpus_.end()) return 0;
  return it->second.buckets[static_cast<int>(b)];
}

int64_t StallAccountant::DomainBucketNs(int dom, StallBucket b) const {
  int64_t total = 0;
  for (const auto& [key, a] : vcpus_) {
    if (key.first == dom) total += a.buckets[static_cast<int>(b)];
  }
  return total;
}

bool StallAccountant::CheckExhaustive(TimeNs now, std::string* error) const {
  for (const auto& [key, a] : vcpus_) {
    int64_t total = 0;
    for (int i = 0; i < kStallBucketCount; ++i) total += a.buckets[i];
    if (a.hv_state != VcpuState::kRunning) total += now - a.since;
    int64_t wall = now - a.birth;
    if (total != wall) {
      if (error != nullptr) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "dom %d vcpu %d: buckets sum %" PRId64
                      " != wall %" PRId64 " at t=%" PRId64,
                      key.first, key.second, total, wall, now);
        *error = buf;
      }
      return false;
    }
  }
  return true;
}

void StallAccountant::WriteCsv(std::ostream& os) const {
  ByteWriter w(os);
  w.Put("run,ts_ns,domain,vcpu,bucket,cum_ns\n");
  for (const CsvRow& row : rows_) {
    for (int i = 0; i < kStallBucketCount; ++i) {
      w.Put(row.run);
      w.Put(',');
      w.Int(row.ts);
      w.Put(',');
      w.Int(row.domain);
      w.Put(',');
      w.Int(row.vcpu);
      w.Put(',');
      w.Put(kBucketNames[i]);
      w.Put(',');
      w.Int(row.buckets[i]);
      w.Put('\n');
    }
  }
}

void StallAccountant::PublishMetrics(MetricsRegistry& registry,
                                     const std::string& prefix) const {
  std::map<int, std::array<int64_t, kStallBucketCount>> per_dom;
  for (const auto& [key, a] : vcpus_) {
    auto& totals = per_dom[key.first];
    for (int i = 0; i < kStallBucketCount; ++i) {
      totals[static_cast<size_t>(i)] += a.buckets[i];
    }
  }
  for (const auto& [dom, totals] : per_dom) {
    const std::string base = prefix + "stall.dom" + std::to_string(dom) + ".";
    for (int i = 0; i < kStallBucketCount; ++i) {
      registry.Counter(base + kBucketNames[i] + "_ns") =
          totals[static_cast<size_t>(i)];
    }
  }
  for (const auto& [dom, ops] : scale_ops_) {
    registry.Counter(prefix + "stall.dom" + std::to_string(dom) +
                     ".scale_ops") = ops;
  }
  auto publish_hist = [&](const char* name, const LatencyHistogram& h) {
    const std::string base = prefix + "stall.lat." + name + ".";
    registry.Counter(base + "count") = h.count();
    registry.Counter(base + "p50_ns") = h.Quantile(0.50);
    registry.Counter(base + "p95_ns") = h.Quantile(0.95);
    registry.Counter(base + "p99_ns") = h.Quantile(0.99);
    registry.Counter(base + "max_ns") = h.max();
  };
  publish_hist("wake_to_dispatch", wake_to_dispatch_);
  publish_hist("ipi_deliver", ipi_deliver_);
  publish_hist("freeze_quiesce", freeze_quiesce_);
  registry.Counter(prefix + "stall.ipi_unmatched_sends") = ipi_unmatched_sends_;
}

void StallAccountant::Reset() {
  active_ = false;
  label_.clear();
  vcpus_.clear();
  wake_to_dispatch_ = LatencyHistogram();
  ipi_deliver_ = LatencyHistogram();
  freeze_quiesce_ = LatencyHistogram();
  scale_ops_.clear();
  emitted_doms_.clear();
  samples_ = 0;
  sample_seq_ = 0;
  exhaustive_failures_ = 0;
  ipi_unmatched_sends_ = 0;
  rows_.clear();
}

}  // namespace vscale
