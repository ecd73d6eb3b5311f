#include "src/sim/engine.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/obs/obs.h"
#include "src/trace/trace.h"

namespace sim {

namespace {

TimePoint LoggerNow(void* ctx) { return static_cast<Engine*>(ctx)->now(); }

}  // namespace

Engine::Engine(uint64_t seed) : rng_(seed) {
  lv::Logger::Get().AttachClock(&LoggerNow, this);
  trace::Tracer::Get().AttachClock(&LoggerNow, this);
  obs::FlightRecorder::Get().AttachClock(&LoggerNow, this);
}

Engine::~Engine() {
  // Reclaim detached frames still parked on the queue. Destroying a frame
  // only unwinds its locals (awaiter destructors cancel their events; nothing
  // resumes), but those destructors may themselves spawn or finish other
  // detached tasks, so loop rather than iterate. Newest first, so a late
  // frame referencing state owned by an earlier one unwinds before it.
  while (!detached_frames_.empty()) {
    auto it = std::prev(detached_frames_.end());
    void* frame = it->second;
    detached_frames_.erase(it);
    std::coroutine_handle<>::from_address(frame).destroy();
  }
  lv::Logger::Get().DetachClock();
  trace::Tracer::Get().DetachClock();
  obs::FlightRecorder::Get().DetachClock();
}

uint32_t Engine::Push(TimePoint when) {
  LV_CHECK_MSG(when >= now_, "cannot schedule an event in the simulated past");
  uint32_t s = free_head_;
  if (s != kNotQueued) {
    free_head_ = slots_[s].next_free;
  } else {
    LV_CHECK_MSG(slots_.size() < kNotQueued, "too many pending events");
    s = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  heap_.emplace_back();
  SiftUp(heap_.size() - 1, Entry{when, next_seq_++, s});
  return s;
}

EventHandle Engine::ScheduleAt(TimePoint when, std::function<void()> fn) {
  uint32_t s = Push(when);
  slots_[s].fn = std::move(fn);
  return EventHandle(this, s, slots_[s].generation);
}

EventHandle Engine::ScheduleResume(Duration delay, std::coroutine_handle<> h) {
  uint32_t s = Push(now_ + delay);
  slots_[s].resume = h;
  return EventHandle(this, s, slots_[s].generation);
}

void Engine::Cancel(uint32_t slot, uint64_t generation) {
  if (!Pending(slot, generation)) {
    return;
  }
  EraseAt(slots_[slot].heap_pos);
  // The callback dies after the bookkeeping: its captures' destructors may
  // schedule or cancel in turn.
  std::function<void()> dead;
  dead.swap(slots_[slot].fn);
  Release(slot);
}

void Engine::Release(uint32_t slot) {
  Slot& s = slots_[slot];
  s.resume = nullptr;
  s.heap_pos = kNotQueued;
  ++s.generation;
  s.next_free = free_head_;
  free_head_ = slot;
}

// 4-ary heap: the children of i are 4i+1 .. 4i+4. A wider node halves the
// depth of a binary heap, and a node's children sit side by side.
void Engine::SiftUp(size_t pos, Entry e) {
  while (pos > 0) {
    size_t parent = (pos - 1) / 4;
    if (!Before(e, heap_[parent])) {
      break;
    }
    Place(pos, heap_[parent]);
    pos = parent;
  }
  Place(pos, e);
}

void Engine::SiftDown(size_t pos, Entry e) {
  const size_t n = heap_.size();
  while (true) {
    size_t first = 4 * pos + 1;
    if (first >= n) {
      break;
    }
    size_t best = first;
    size_t last = std::min(first + 4, n);
    for (size_t c = first + 1; c < last; ++c) {
      if (Before(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!Before(heap_[best], e)) {
      break;
    }
    Place(pos, heap_[best]);
    pos = best;
  }
  Place(pos, e);
}

void Engine::EraseAt(size_t pos) {
  Entry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) {
    return;
  }
  if (pos > 0 && Before(last, heap_[(pos - 1) / 4])) {
    SiftUp(pos, last);
  } else {
    SiftDown(pos, last);
  }
}

void Engine::Spawn(Co<void> task) {
  auto h = task.Release();
  LV_CHECK_MSG(h != nullptr, "spawning an empty task");
  trace::Count("engine.tasks_spawned", 1);
  internal::Promise<void>& p = h.promise();
  p.detached = true;
  p.reap = &Engine::ReapDetached;
  p.reap_ctx = this;
  p.reap_id = next_detached_id_++;
  detached_frames_.emplace(p.reap_id, h.address());
  h.resume();
}

void Engine::ReapDetached(void* ctx, uint64_t id) {
  static_cast<Engine*>(ctx)->detached_frames_.erase(id);
}

void Engine::FireTop() {
  const Entry top = heap_[0];
  EraseAt(0);
  now_ = top.when;
  ++processed_;
  trace::Count("engine.events", 1);
  Slot& s = slots_[top.slot];
  if (std::coroutine_handle<> h = s.resume) {
    Release(top.slot);
    h.resume();
    return;
  }
  std::function<void()> fn;
  fn.swap(s.fn);
  Release(top.slot);
  fn();
}

bool Engine::Step() {
  if (heap_.empty()) {
    return false;
  }
  FireTop();
  return true;
}

void Engine::Run() {
  while (Step()) {
  }
}

void Engine::RunUntil(TimePoint t) {
  while (!heap_.empty() && heap_[0].when <= t) {
    FireTop();
  }
  if (now_ < t) {
    now_ = t;
  }
}

}  // namespace sim
