// Discrete-event simulation engine: a simulated clock plus an ordered event
// queue. All LightVM components run on top of one Engine; time only advances
// when the engine processes events, so runs are exactly reproducible.
//
// Event core. The queue allocates nothing in steady state (a callback whose
// captures overflow std::function's inline buffer still allocates when it is
// built). Each pending event owns a slot in a recycled slot vector (callback
// or coroutine handle, generation, heap position). The queue is a 4-ary
// min-heap of small {when, seq, slot} values, and every slot knows its heap
// position, so Cancel removes its entry at once in O(log n). Events fire in
// (when, seq) order, seq being the schedule order, so equal-time events run
// FIFO.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/base/rng.h"
#include "src/base/time.h"
#include "src/sim/task.h"

namespace sim {

using lv::Duration;
using lv::TimePoint;

class Engine;

// Handle to a scheduled event; allows cancellation (used by the CPU
// scheduler to re-plan core completion events). A handle names its slot and
// the slot's generation, so once the event fires or is cancelled the handle
// goes stale and never touches the slot's next occupant.
//
// Lifetime rule: a non-empty handle must not be cancelled (or queried)
// after its engine is destroyed. Owners of handles (CPU schedulers, sync
// primitives' awaiters, guests) are torn down before their engine.
class EventHandle {
 public:
  EventHandle() = default;
  // Removes the event from the queue if it is still pending; a no-op on a
  // fired, cancelled or empty handle.
  inline void Cancel();
  // True while the event is pending (scheduled, not yet fired or cancelled).
  inline bool valid() const;

 private:
  friend class Engine;
  EventHandle(Engine* engine, uint32_t slot, uint64_t generation)
      : engine_(engine), slot_(slot), generation_(generation) {}
  Engine* engine_ = nullptr;
  uint32_t slot_ = 0;
  uint64_t generation_ = 0;
};

class Engine {
 public:
  explicit Engine(uint64_t seed = 1);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  TimePoint now() const { return now_; }
  lv::Rng& rng() { return rng_; }

  EventHandle Schedule(Duration delay, std::function<void()> fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }
  EventHandle ScheduleAt(TimePoint when, std::function<void()> fn);
  // Resumes coroutine `h` after `delay`: the wake-up of every suspension
  // point, without wrapping the handle in a callback.
  EventHandle ScheduleResume(Duration delay, std::coroutine_handle<> h);

  // Starts a detached coroutine task. It runs synchronously until its first
  // suspension point; its frame is reclaimed automatically on completion.
  void Spawn(Co<void> task);

  // Awaitable that suspends the current coroutine for `d` of simulated time.
  // Sleep(Duration()) yields through the event queue (fair re-entry).
  struct SleepAwaiter {
    Engine* engine;
    Duration d;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { engine->ScheduleResume(d, h); }
    void await_resume() const noexcept {}
  };
  SleepAwaiter Sleep(Duration d) { return SleepAwaiter{this, d}; }

  // Processes every pending event (including ones scheduled along the way).
  void Run();
  // Processes events up to and including time t, then advances the clock to t.
  void RunUntil(TimePoint t);
  void RunFor(Duration d) { RunUntil(now_ + d); }
  // Processes a single event. Returns false if the queue was empty.
  bool Step();

  // Events scheduled and neither fired nor cancelled.
  size_t pending_events() const { return heap_.size(); }
  uint64_t processed_events() const { return processed_; }

 private:
  friend class EventHandle;
  static constexpr uint32_t kNotQueued = UINT32_MAX;

  // One pending event's payload. Exactly one of `fn` and `resume` is set.
  // A free slot has heap_pos == kNotQueued and links the free list through
  // next_free; its generation advances on every release.
  struct Slot {
    std::function<void()> fn;
    std::coroutine_handle<> resume;
    uint64_t generation = 0;
    uint32_t heap_pos = kNotQueued;
    uint32_t next_free = kNotQueued;
  };
  struct Entry {
    TimePoint when;
    uint64_t seq;
    uint32_t slot;
  };
  static bool Before(const Entry& a, const Entry& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }

  // Claims a slot and queues it at `when`; the caller fills in the payload.
  uint32_t Push(TimePoint when);
  // Cancel's body: removes a still-pending event and frees its slot.
  void Cancel(uint32_t slot, uint64_t generation);
  // Slots are never dropped, so a handle's slot index is always in range.
  bool Pending(uint32_t slot, uint64_t generation) const {
    return slots_[slot].generation == generation && slots_[slot].heap_pos != kNotQueued;
  }
  // Removes the heap entry at `pos`, restoring the heap around it.
  void EraseAt(size_t pos);
  void SiftUp(size_t pos, Entry e);
  void SiftDown(size_t pos, Entry e);
  void Place(size_t pos, const Entry& e) {
    heap_[pos] = e;
    slots_[e.slot].heap_pos = static_cast<uint32_t>(pos);
  }
  void Release(uint32_t slot);
  // Pops the earliest event, advances the clock to it and runs it. The
  // payload is moved out and the slot released before the call, since the
  // callback may schedule (and so grow or reuse the slot vector).
  void FireTop();

  // Deregisters a detached frame that reached its final suspend (see
  // PromiseBase::reap).
  static void ReapDetached(void* ctx, uint64_t id);

  TimePoint now_;
  uint64_t next_seq_ = 0;
  uint64_t processed_ = 0;
  std::vector<Slot> slots_;
  uint32_t free_head_ = kNotQueued;
  std::vector<Entry> heap_;
  lv::Rng rng_;
  // Live detached frames by spawn order: a frame still parked on the queue
  // when the engine dies is unreachable any other way, so ~Engine destroys
  // the survivors (newest first).
  std::map<uint64_t, void*> detached_frames_;
  uint64_t next_detached_id_ = 0;
};

inline void EventHandle::Cancel() {
  if (engine_ != nullptr) {
    engine_->Cancel(slot_, generation_);
  }
}

inline bool EventHandle::valid() const {
  return engine_ != nullptr && engine_->Pending(slot_, generation_);
}

}  // namespace sim
