#include "src/base/trace.h"

namespace vscale {

const char* ToString(TraceCategory c) {
  switch (c) {
    case TraceCategory::kSim:
      return "sim";
    case TraceCategory::kHypervisor:
      return "hypervisor";
    case TraceCategory::kGuest:
      return "guest";
    case TraceCategory::kVscale:
      return "vscale";
  }
  return "?";
}

Tracer::Tracer(size_t capacity) { SetCapacity(capacity); }

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Enable(uint32_t category_mask) {
  enabled_ = true;
  mask_ = category_mask;
}

void Tracer::Disable() { enabled_ = false; }

void Tracer::Clear() {
  head_ = 0;
  count_ = 0;
  recorded_ = 0;
  rebase_offset_ = 0;
  last_ts_ = 0;
  domain_names_.clear();
}

void Tracer::SetCapacity(size_t capacity) {
  // For-overwrite: no slot is written here, so the pages stay untouched until
  // Record() fills them.
  capacity_ = capacity > 0 ? capacity : 1;
  ring_ = std::make_unique_for_overwrite<TraceEvent[]>(capacity_);
  Clear();
}

void Tracer::Record(TimeNs ts, TraceCategory category, TracePhase phase,
                    const char* name, int domain, int vcpu, int pcpu,
                    const char* arg_name, int64_t arg) {
  if (!enabled_ || (mask_ & static_cast<uint32_t>(category)) == 0) {
    return;
  }
  // Rebase: a fresh Machine restarts simulated time at 0; shift it past everything
  // already recorded so the buffer (and any export) stays chronological.
  TimeNs t = ts + rebase_offset_;
  if (t < last_ts_) {
    rebase_offset_ += last_ts_ - t;
    t = last_ts_;
  }
  last_ts_ = t;

  TraceEvent& e = ring_[head_];
  e.ts = t;
  e.name = name;
  e.arg_name = arg_name;
  e.arg = arg;
  e.category = category;
  e.phase = phase;
  e.domain = static_cast<int16_t>(domain);
  e.vcpu = static_cast<int16_t>(vcpu);
  e.pcpu = static_cast<int16_t>(pcpu);
  if (++head_ == capacity_) {
    head_ = 0;
  }
  if (count_ < capacity_) {
    ++count_;
  }
  ++recorded_;
}

std::vector<TraceEvent> Tracer::Snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(count_);
  ForEachRetained([&out](const TraceEvent& e) { out.push_back(e); });
  return out;
}

void Tracer::SetDomainName(int domain, const std::string& name) {
  domain_names_[domain] = name;
}

}  // namespace vscale
