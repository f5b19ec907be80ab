// Flight recorder: a bounded ring buffer of typed, timestamped trace events that the
// whole simulation stack (sim engine, hypervisor, guest kernels, vScale) records into
// when tracing is enabled. It exists to make cross-layer pathologies *visible*: lock
// holder preemption, delayed virtual IPIs and delayed I/O interrupts (paper Fig. 1)
// only show up when hypervisor scheduling decisions and guest synchronization events
// line up on one timeline.
//
// Design constraints:
//  * Near-zero overhead when off. A tracer records for a simulation only when
//    bound to its observer seam (Observers::trace, src/sim/observers.h); hook
//    sites test that pointer before touching the tracer, so an unbound hook is
//    a pointer read and one branch (the read's cost is spelled out in
//    observers.h). Recording never allocates: event names are string literals
//    and the ring is reserved up front but left unwritten, so its pages become
//    resident only as events fill them; a tracer that never records costs
//    virtual memory only.
//  * Bounded memory. The ring overwrites the oldest events once full (`dropped()`
//    counts the overwritten ones), so tracing a long run keeps the most recent window.
//  * No behavioural impact. Recording reads simulation state but never mutates it and
//    never touches the RNG; enabling tracing cannot change a run's results.
//
// Timestamps are simulated TimeNs. Because separate Machine instances each start at
// t = 0, the tracer rebases timestamps to be globally non-decreasing across runs
// recorded into the same buffer (see Record()); back-to-back runs concatenate on the
// exported timeline instead of overlapping.
//
// Export formats live in src/metrics/trace_export.h (Chrome trace_event JSON for
// ui.perfetto.dev, CSV counter dumps). Schema documentation: docs/OBSERVABILITY.md.

#ifndef VSCALE_SRC_BASE_TRACE_H_
#define VSCALE_SRC_BASE_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "src/base/time.h"

namespace vscale {

// One bit per simulation layer, so exports and recordings can be filtered. One
// byte wide so a TraceEvent packs into 40 bytes; masks stay uint32_t.
enum class TraceCategory : uint8_t {
  kSim = 1u << 0,         // event-engine dispatch
  kHypervisor = 1u << 1,  // vCPU state transitions, credits, steals, preemptions
  kGuest = 1u << 2,       // IPIs, futex wait/wake, spinlocks, ticks, hotplug
  kVscale = 1u << 3,      // extendability updates, freeze/unfreeze decisions
};
inline constexpr uint32_t kTraceCategoryAll = 0xFu;

const char* ToString(TraceCategory c);

// The subset of Chrome trace_event phases the exporter emits.
enum class TracePhase : char {
  kBegin = 'B',    // opens a duration slice on a track
  kEnd = 'E',      // closes the most recent open slice on the same track
  kInstant = 'i',  // a point event
  kCounter = 'C',  // a sampled numeric series (one track per name per domain)
};

// Trivially default-constructible on purpose: the ring is allocated without
// initialization (see Tracer), and Record() writes every field.
struct TraceEvent {
  TimeNs ts;                  // rebased simulated time (non-decreasing in buffer)
  const char* name;           // static string literal; never owned or freed
  const char* arg_name;       // optional argument label (static literal), or null
  int64_t arg;                // argument / counter value
  TraceCategory category;
  TracePhase phase;
  int16_t domain;             // -1 = machine scope
  int16_t vcpu;               // domain-local vCPU id, -1 = n/a
  int16_t pcpu;               // -1 = n/a
};
static_assert(std::is_trivially_default_constructible_v<TraceEvent>,
              "a default member initializer would write every ring slot at allocation");
static_assert(sizeof(TraceEvent) == 40, "TraceEvent is the ring's unit of memory");

class Tracer {
 public:
  // ~10 MB virtual; resident only as written.
  static constexpr size_t kDefaultCapacity = 1u << 18;

  explicit Tracer(size_t capacity = kDefaultCapacity);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Starts recording events whose category bit is in `category_mask`.
  void Enable(uint32_t category_mask = kTraceCategoryAll);
  void Disable();
  bool enabled() const { return enabled_; }
  uint32_t category_mask() const { return mask_; }

  // Drops all recorded events (capacity and enabled state are kept).
  void Clear();
  // Re-sizes the ring; implies Clear().
  void SetCapacity(size_t capacity);
  size_t capacity() const { return capacity_; }

  // Records one event. Cheap: a branch, a ring slot write, no allocation. Events with
  // a filtered-out category are ignored. `ts` may restart from 0 (a fresh Machine);
  // the tracer rebases it so buffer order is always chronological.
  void Record(TimeNs ts, TraceCategory category, TracePhase phase, const char* name,
              int domain, int vcpu, int pcpu, const char* arg_name, int64_t arg);

  // The hook spellings, one per phase. The event name is always the third
  // argument (vslint's trace-docs and trace-pairing rules key on that).
  void Instant(TimeNs ts, TraceCategory category, const char* name, int domain,
               int vcpu, int pcpu, const char* arg_name = nullptr, int64_t arg = 0) {
    Record(ts, category, TracePhase::kInstant, name, domain, vcpu, pcpu, arg_name, arg);
  }
  // Opens a slice on the (domain, vcpu) and pcpu tracks; End closes it.
  void Begin(TimeNs ts, TraceCategory category, const char* name, int domain, int vcpu,
             int pcpu) {
    Record(ts, category, TracePhase::kBegin, name, domain, vcpu, pcpu, nullptr, 0);
  }
  void End(TimeNs ts, TraceCategory category, const char* name, int domain, int vcpu,
           int pcpu) {
    Record(ts, category, TracePhase::kEnd, name, domain, vcpu, pcpu, nullptr, 0);
  }
  // One sample of the per-domain counter track `name`.
  void Counter(TimeNs ts, TraceCategory category, const char* name, int domain,
               int64_t value) {
    Record(ts, category, TracePhase::kCounter, name, domain, -1, -1, "value", value);
  }

  // Number of events currently retained (<= capacity).
  size_t size() const { return count_; }
  // Total recorded since the last Clear(), including overwritten ones.
  uint64_t recorded() const { return recorded_; }
  // Events overwritten by ring wraparound.
  uint64_t dropped() const { return recorded_ - count_; }
  // True on the first call that finds dropped events, false ever after: an
  // exporter warns about a truncated timeline once per tracer.
  bool TakeDropWarning() const {
    if (drop_warned_ || dropped() == 0) return false;
    drop_warned_ = true;
    return true;
  }

  // Calls fn(const TraceEvent&) on each retained event, oldest-first, reading
  // the ring in place (exporters stream from here without copying the buffer).
  template <typename Fn>
  void ForEachRetained(Fn&& fn) const {
    const size_t cap = capacity_;
    const size_t start = (head_ + cap - count_) % cap;
    const size_t tail = count_ < cap - start ? count_ : cap - start;
    for (size_t i = start; i < start + tail; ++i) fn(ring_[i]);
    for (size_t i = 0; i < count_ - tail; ++i) fn(ring_[i]);
  }

  // Copies the retained events oldest-first.
  std::vector<TraceEvent> Snapshot() const;

  // Human-readable display names for domain tracks in exports ("primary",
  // "desktop0", ...). Recorded by Machine::CreateDomain when a tracer is bound.
  void SetDomainName(int domain, const std::string& name);
  const std::map<int, std::string>& domain_names() const { return domain_names_; }

 private:
  // Allocated without initialization; only the retained slots are ever read,
  // and Record() wrote each of them.
  std::unique_ptr<TraceEvent[]> ring_;
  size_t capacity_ = 0;
  size_t head_ = 0;       // next slot to write
  size_t count_ = 0;      // retained events
  uint64_t recorded_ = 0;
  bool enabled_ = false;
  uint32_t mask_ = kTraceCategoryAll;
  TimeNs rebase_offset_ = 0;  // added to incoming ts so buffer time never regresses
  TimeNs last_ts_ = 0;
  std::map<int, std::string> domain_names_;
  mutable bool drop_warned_ = false;
};

// The process-wide tracer harnesses bind to the simulations they trace
// (Testbed binds it when it is enabled at construction). Touching it costs no
// resident memory until it records. The simulation is single-threaded, so no
// synchronization is needed.
Tracer& GlobalTracer();

}  // namespace vscale

#endif  // VSCALE_SRC_BASE_TRACE_H_
