// Discrete-event simulation engine.
//
// A Simulator owns virtual time and a priority queue of (time, sequence) ordered
// events. Events are plain std::function callbacks; scheduling returns an EventId
// that can be cancelled. Ties are broken by schedule order, so runs are fully
// deterministic.
//
// Hot-path design (docs/PERFORMANCE.md has the full story and the numbers):
//
//  * Slab allocator. Callbacks live in a slab of Nodes indexed by a 32-bit slot,
//    recycled through a LIFO free list — steady-state scheduling performs no heap
//    allocation at all (small callbacks also fit std::function's inline buffer).
//  * Flat binary heap. Pending events are 24-byte {when, seq, slot, gen} entries in
//    a contiguous min-heap ordered by (when, seq) — no per-node allocation, no
//    pointer chasing, and `seq` is the monotonically increasing schedule order that
//    implements the tie-break.
//  * O(1) tombstone Cancel. An EventId packs {generation:32, slot:32}. Each slot
//    carries a generation counter that is bumped whenever the slot is released
//    (fire or cancel), so Cancel is a bounds check plus a generation compare: a
//    match releases the slot immediately; a mismatch means the event already fired
//    (or the slot was recycled) and the call is a no-op. The two-level scheduler
//    simulation cancels and reschedules aggressively (every settle of a running
//    vCPU), which is exactly the traffic this makes nearly free.
//  * Lazy deletion + compaction. A cancelled event's heap entry stays behind as a
//    tombstone (its generation no longer matches the slot's) and is skipped when it
//    surfaces at the root. When tombstones outnumber live entries the heap is
//    compacted in one O(n) filter-and-heapify pass, so cancel-heavy workloads can't
//    bloat it.
//  * Same-tick batching. The run loops drain every event at the current timestamp
//    back-to-back without re-checking the deadline in between (equal-time events
//    cannot overshoot it), keeping the root of the heap hot in cache.
//
// Cancel semantics, pinned by SimulatorTest.CancelSlotReuseIsSafe and
// SimulatorTest.CancelAfterFireAndUnknownIdsAreNoOps: Cancel(kInvalidEvent),
// Cancel of an already-fired id, double Cancel, and Cancel of an id this
// Simulator never issued are all deterministic O(1) no-ops. In particular, the
// generation check guarantees that a stale id can never cancel a *different*
// live event that happens to reuse the same slab slot.
//
// Determinism: the firing order is a pure function of the (when, seq) keys — the
// heap is never iterated, only its root consumed — and all bookkeeping is
// index-based, so no container iteration order or allocator address can leak into
// a run (tools/det_lint polices hashed containers and wall clocks tree-wide).

#ifndef VSCALE_SRC_SIM_EVENT_QUEUE_H_
#define VSCALE_SRC_SIM_EVENT_QUEUE_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/base/check.h"
#include "src/base/time.h"
#include "src/base/trace.h"
#include "src/sim/event_fn.h"
#include "src/sim/observers.h"

namespace vscale {

class Simulator {
 public:
  using EventId = uint64_t;
  static constexpr EventId kInvalidEvent = 0;
  // Below this heap size compaction is pointless: skimming a handful of
  // tombstones off the root is cheaper than a rebuild.
  static constexpr size_t kCompactMinHeapSize = 64;

  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimeNs Now() const { return now_; }

  // Schedules fn at absolute virtual time `when` (>= Now()). Returns a
  // cancellable id. Templated so the callable is constructed directly inside a
  // recycled slab slot — the hot path materializes no EventFn temporaries.
  template <typename F>
  EventId ScheduleAt(TimeNs when, F&& fn);
  template <typename F>
  EventId ScheduleAfter(TimeNs delay, F&& fn) {
    return ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  // Cancels a pending event in O(1). Safe to call with kInvalidEvent, an
  // already-fired or already-cancelled id, or an id this Simulator never issued:
  // all are deterministic no-ops (see the header comment for the pinned contract).
  void Cancel(EventId id);

  // Exactly Cancel(id) followed by ScheduleAt(when, fn) — same slot reuse (the
  // free list is LIFO, so the cancelled slot is the one a scheduling would pop),
  // same generation bump, same sequence draw, hence a bit-identical firing
  // order — minus the free-list round trip and the second id decode. This is
  // the scheduler's rearm idiom (every settle of a running vCPU moves its
  // advance event), which is why it rates a fused fast path.
  template <typename F>
  EventId Reschedule(EventId id, TimeNs when, F&& fn);

  // Runs a single event; returns false if the queue is empty.
  bool Step();

  // Runs all events with time <= deadline, then advances Now() to deadline.
  void RunUntil(TimeNs deadline);

  // Runs until the queue empties or `max_events` more events have fired.
  void RunUntilIdle(uint64_t max_events = UINT64_MAX);

  // Runs until `stop` returns true (checked after each event), the queue empties, or
  // the deadline passes. Returns true if `stop` triggered.
  bool RunUntilCondition(const std::function<bool()>& stop, TimeNs deadline);

  size_t pending_events() const { return live_; }
  uint64_t events_processed() const { return events_processed_; }

  // This simulation's observer seam (src/sim/observers.h); all null = none.
  Observers& observers() { return observers_; }
  const Observers& observers() const { return observers_; }

 private:
  // A pending occurrence in the flat min-heap. `seq` is the schedule order (the
  // tie-break); `slot`/`gen` locate and validate the callback in the slab.
  struct HeapEntry {
    TimeNs when;
    uint64_t seq;
    uint32_t slot;
    uint32_t gen;
  };

  // Slab node: callback storage plus the generation that outstanding EventIds and
  // heap entries are validated against. `gen` starts at 1 and is bumped on every
  // release, so a packed id is never kInvalidEvent and never matches twice.
  struct Node {
    EventFn fn;
    uint32_t gen = 1;
  };

  // The slab is chunked (not one contiguous vector) so Node addresses are stable
  // across growth. That lets FireTop invoke a callback *in place* — no defensive
  // move-out — because a callback that schedules new events can never relocate
  // the closure it is currently executing.
  static constexpr uint32_t kSlabChunkShift = 8;  // 256 nodes per chunk
  static constexpr uint32_t kSlabChunkSize = 1u << kSlabChunkShift;

  Node& NodeAt(uint32_t slot) {
    return chunks_[slot >> kSlabChunkShift][slot & (kSlabChunkSize - 1)];
  }
  const Node& NodeAt(uint32_t slot) const {
    return chunks_[slot >> kSlabChunkShift][slot & (kSlabChunkSize - 1)];
  }

  static EventId Pack(uint32_t slot, uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  // Min-heap order: earliest (when, seq) at the root. One 128-bit comparison
  // of `when` (sign bit flipped, so signed order survives) over `seq`: no
  // data-dependent branch for the predictor to miss.
  using Key = unsigned __int128;
  static Key OrderKey(const HeapEntry& e) {
    const uint64_t when = static_cast<uint64_t>(e.when) ^ (uint64_t{1} << 63);
    return (static_cast<Key>(when) << 64) | e.seq;
  }
  static bool Earlier(const HeapEntry& a, const HeapEntry& b) {
    return OrderKey(a) < OrderKey(b);
  }

  bool Stale(const HeapEntry& e) const { return NodeAt(e.slot).gen != e.gen; }

  // The schedule/cancel/fire path is defined inline below the class: these run
  // tens of millions of times per simulated second, and letting them inline into
  // callers (RearmAdvance cancels + reschedules on every settle) is worth several
  // ns per event — see docs/PERFORMANCE.md for the measured effect.
  void SiftUp(size_t i);
  void SiftDown(size_t i);
  void PopRoot();      // removes heap_[0], restores heap order
  void SkimStale();    // pops tombstones off the root until it is live or empty
  void FireTop();      // fires heap_[0] (must be live): advance clock, run callback
  void CompactHeap();  // one O(n) filter-and-heapify pass dropping all tombstones

  TimeNs now_ = 0;
  uint64_t next_seq_ = 1;
  Observers observers_;
  std::vector<HeapEntry> heap_;
  std::vector<std::unique_ptr<Node[]>> chunks_;  // the slab; chunk arrays never move
  uint32_t n_nodes_ = 0;        // slots handed out so far (all chunks, all states)
  std::vector<uint32_t> free_;  // LIFO free list: the hottest slot is reused first
  size_t live_ = 0;             // scheduled and neither fired nor cancelled
  uint64_t events_processed_ = 0;
  // Checked builds verify the (when, seq) firing order is strictly increasing — the
  // stable tie-break every replay relies on. Dead weight otherwise.
  TimeNs last_fired_when_ = 0;
  uint64_t last_fired_seq_ = 0;
};

// --- inline hot path -------------------------------------------------------

template <typename F>
inline Simulator::EventId Simulator::ScheduleAt(TimeNs when, F&& fn) {
  assert(when >= now_ && "cannot schedule in the past");
  if (when < now_) {
    when = now_;
  }
  uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    if ((n_nodes_ >> kSlabChunkShift) == chunks_.size()) {
      chunks_.push_back(std::make_unique<Node[]>(kSlabChunkSize));
    }
    slot = n_nodes_++;
  }
  Node& n = NodeAt(slot);
  // Freed slots always hold an empty EventFn, so this is a pure placement
  // construction: capture bytes + one invoke pointer, nothing else.
  n.fn.Emplace(std::forward<F>(fn));
  const uint32_t gen = n.gen;
  heap_.push_back(HeapEntry{when, next_seq_++, slot, gen});
  SiftUp(heap_.size() - 1);
  ++live_;
  return Pack(slot, gen);
}

template <typename F>
inline Simulator::EventId Simulator::Reschedule(EventId id, TimeNs when, F&& fn) {
  const uint32_t slot = static_cast<uint32_t>(id);
  const uint32_t old_gen = static_cast<uint32_t>(id >> 32);
  if (id == kInvalidEvent || slot >= n_nodes_ || NodeAt(slot).gen != old_gen) {
    return ScheduleAt(when, std::forward<F>(fn));  // nothing live to replace
  }
  assert(when >= now_ && "cannot schedule in the past");
  if (when < now_) {
    when = now_;
  }
  Node& n = NodeAt(slot);
  n.fn.Reset();  // frees a boxed callable; no-op for the inline common case
  const uint32_t gen = ++n.gen;  // tombstones the old heap entry, as Cancel would
  n.fn.Emplace(std::forward<F>(fn));
  heap_.push_back(HeapEntry{when, next_seq_++, slot, gen});
  SiftUp(heap_.size() - 1);
  // live_ is unchanged (one release, one schedule), but the old entry became a
  // tombstone — apply the same compaction policy as Cancel.
  if (heap_.size() >= kCompactMinHeapSize && heap_.size() - live_ > live_) {
    CompactHeap();
  }
  return Pack(slot, gen);
}

inline void Simulator::Cancel(EventId id) {
  if (id == kInvalidEvent) {
    return;
  }
  const uint32_t slot = static_cast<uint32_t>(id);
  const uint32_t gen = static_cast<uint32_t>(id >> 32);
  if (slot >= n_nodes_ || NodeAt(slot).gen != gen) {
    return;  // already fired/cancelled (generation bumped) or never issued
  }
  Node& n = NodeAt(slot);
  n.fn.Reset();  // release the callback's resources now, not at pop time
  ++n.gen;       // tombstones the heap entry and invalidates the id
  free_.push_back(slot);
  --live_;
  // The heap entry stays behind as a tombstone, skipped when it surfaces at the
  // root. Rebuild once tombstones dominate so cancel-heavy phases stay O(live).
  if (heap_.size() >= kCompactMinHeapSize && heap_.size() - live_ > live_) {
    CompactHeap();
  }
}

inline void Simulator::SiftUp(size_t i) {
  // Early-out without re-storing the entry: most pushes land in heap order
  // already (timer wheels fire in time order), and the empty-heap schedule —
  // the single hottest case — must not pay a redundant 24-byte copy.
  if (i == 0 || !Earlier(heap_[i], heap_[(i - 1) / 2])) {
    return;
  }
  const HeapEntry e = heap_[i];
  do {
    const size_t parent = (i - 1) / 2;
    heap_[i] = heap_[parent];
    i = parent;
  } while (i > 0 && Earlier(e, heap_[(i - 1) / 2]));
  heap_[i] = e;
}

inline void Simulator::SiftDown(size_t i) {
  const size_t n = heap_.size();
  const HeapEntry e = heap_[i];
  size_t child = 2 * i + 1;
  // Nodes with two children: the smaller child is picked by adding the
  // comparison result, not by a branch.
  while (child + 1 < n) {
    child += static_cast<size_t>(Earlier(heap_[child + 1], heap_[child]));
    if (!Earlier(heap_[child], e)) {
      heap_[i] = e;
      return;
    }
    heap_[i] = heap_[child];
    i = child;
    child = 2 * i + 1;
  }
  // At most one node, the last parent, has a single child.
  if (child < n && Earlier(heap_[child], e)) {
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = e;
}

inline void Simulator::PopRoot() {
  const size_t last = heap_.size() - 1;
  if (last > 0) {  // skip the self-copy when popping the only element
    heap_[0] = heap_[last];
  }
  heap_.pop_back();
  if (last > 1) {
    SiftDown(0);
  }
}

inline void Simulator::SkimStale() {
  while (!heap_.empty() && Stale(heap_[0])) {
    PopRoot();
  }
}

inline void Simulator::FireTop() {
  const HeapEntry e = heap_[0];
  PopRoot();
  // Virtual time is monotonic and the tie-break is stable: events at the same
  // timestamp fire in schedule order. Every replay guarantee rests on these two.
  VS_INVARIANT(e.when >= now_,
               "event %llu fires at %lld ns but Now() is already %lld ns",
               static_cast<unsigned long long>(e.seq),
               static_cast<long long>(e.when), static_cast<long long>(now_));
  VS_INVARIANT(e.when > last_fired_when_ ||
                   (e.when == last_fired_when_ && e.seq > last_fired_seq_),
               "tie-break regression: event %llu at %lld ns fired after event %llu "
               "at %lld ns",
               static_cast<unsigned long long>(e.seq),
               static_cast<long long>(e.when),
               static_cast<unsigned long long>(last_fired_seq_),
               static_cast<long long>(last_fired_when_));
#if VSCALE_CHECKED
  last_fired_when_ = e.when;
  last_fired_seq_ = e.seq;
#endif
  now_ = e.when;
  Node& n = NodeAt(e.slot);
  ++n.gen;  // invalidates the outstanding EventId: Cancel after fire is a no-op
  --live_;
  ++events_processed_;
  if (Tracer* tr = observers_.trace) {
    tr->Instant(now_, TraceCategory::kSim, "event_fire", -1, -1, -1, "pending",
                pending_events());
  }
  // In-place invocation: the chunked slab guarantees `n` stays put even if the
  // callback grows the slab, and the slot is not on the free list yet, so a
  // callback that schedules can never clobber its own executing closure. The
  // slot is released only after the callback returns.
  n.fn();
  n.fn.Reset();
  free_.push_back(e.slot);
}

inline bool Simulator::Step() {
  SkimStale();
  if (heap_.empty()) {
    return false;
  }
  FireTop();
  return true;
}

// Re-schedules itself at a fixed period until stopped. The callback observes Now().
class PeriodicTask {
 public:
  PeriodicTask(Simulator& sim, TimeNs period, std::function<void()> fn);
  ~PeriodicTask();
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  // First fire happens at Now() + phase (default: one full period from now).
  void Start(TimeNs phase = -1);
  void Stop();
  bool running() const { return running_; }
  TimeNs period() const { return period_; }
  void set_period(TimeNs period) { period_ = period; }

 private:
  void Fire();

  Simulator& sim_;
  TimeNs period_;
  std::function<void()> fn_;
  Simulator::EventId pending_ = Simulator::kInvalidEvent;
  bool running_ = false;
};

}  // namespace vscale

#endif  // VSCALE_SRC_SIM_EVENT_QUEUE_H_
