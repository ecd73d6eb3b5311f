// Unit tests for the DES engine, coroutine tasks, sync primitives and the
// processor-sharing CPU scheduler.
#include <gtest/gtest.h>

#include <coroutine>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/sim/cpu.h"
#include "src/sim/engine.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace sim {
namespace {

using lv::Duration;
using lv::TimePoint;

TEST(EngineTest, EventsRunInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.Schedule(Duration::Millis(30), [&] { order.push_back(3); });
  engine.Schedule(Duration::Millis(10), [&] { order.push_back(1); });
  engine.Schedule(Duration::Millis(20), [&] { order.push_back(2); });
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now().ms(), 30.0);
}

TEST(EngineTest, SameTimeEventsRunFifo) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    engine.Schedule(Duration::Millis(1), [&order, i] { order.push_back(i); });
  }
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EngineTest, CancelledEventDoesNotRun) {
  Engine engine;
  bool ran = false;
  EventHandle h = engine.Schedule(Duration::Millis(5), [&] { ran = true; });
  h.Cancel();
  engine.Run();
  EXPECT_FALSE(ran);
}

TEST(EngineTest, RunUntilStopsAtHorizon) {
  Engine engine;
  int count = 0;
  engine.Schedule(Duration::Millis(5), [&] { ++count; });
  engine.Schedule(Duration::Millis(15), [&] { ++count; });
  engine.RunUntil(TimePoint() + Duration::Millis(10));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(engine.now().ms(), 10.0);
  engine.Run();
  EXPECT_EQ(count, 2);
}

TEST(EngineTest, NestedScheduling) {
  Engine engine;
  std::vector<double> times;
  engine.Schedule(Duration::Millis(1), [&] {
    times.push_back(engine.now().ms());
    engine.Schedule(Duration::Millis(2), [&] { times.push_back(engine.now().ms()); });
  });
  engine.Run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 3.0}));
}

Co<int> Add(Engine& engine, int a, int b) {
  co_await engine.Sleep(Duration::Millis(1));
  co_return a + b;
}

Co<int> Chain(Engine& engine) {
  int x = co_await Add(engine, 1, 2);
  int y = co_await Add(engine, x, 10);
  co_return y;
}

TEST(CoTest, NestedAwaitsPropagateValues) {
  Engine engine;
  int result = 0;
  engine.Spawn([](Engine& e, int& out) -> Co<void> {
    out = co_await Chain(e);
  }(engine, result));
  engine.Run();
  EXPECT_EQ(result, 13);
  EXPECT_EQ(engine.now().ms(), 2.0);
}

TEST(CoTest, SpawnRunsUntilFirstSuspension) {
  Engine engine;
  bool before = false;
  bool after = false;
  engine.Spawn([](Engine& e, bool& b, bool& a) -> Co<void> {
    b = true;
    co_await e.Sleep(Duration::Millis(1));
    a = true;
  }(engine, before, after));
  EXPECT_TRUE(before);
  EXPECT_FALSE(after);
  engine.Run();
  EXPECT_TRUE(after);
}

TEST(CoTest, ExceptionPropagatesToAwaiter) {
  Engine engine;
  bool caught = false;
  engine.Spawn([](Engine& e, bool& c) -> Co<void> {
    auto thrower = [](Engine& en) -> Co<int> {
      co_await en.Sleep(Duration::Millis(1));
      throw std::runtime_error("boom");
    };
    try {
      co_await thrower(e);
    } catch (const std::runtime_error&) {
      c = true;
    }
  }(engine, caught));
  engine.Run();
  EXPECT_TRUE(caught);
}

TEST(CoTest, ManyConcurrentTasks) {
  Engine engine;
  int done = 0;
  for (int i = 0; i < 1000; ++i) {
    engine.Spawn([](Engine& e, int& d, int i) -> Co<void> {
      co_await e.Sleep(Duration::Micros(i));
      ++d;
    }(engine, done, i));
  }
  engine.Run();
  EXPECT_EQ(done, 1000);
}

TEST(OneShotEventTest, WaitersResumeOnTrigger) {
  Engine engine;
  OneShotEvent ev(&engine);
  int resumed = 0;
  for (int i = 0; i < 3; ++i) {
    engine.Spawn([](OneShotEvent& e, int& r) -> Co<void> {
      co_await e.Wait();
      ++r;
    }(ev, resumed));
  }
  engine.Run();
  EXPECT_EQ(resumed, 0);
  ev.Trigger();
  engine.Run();
  EXPECT_EQ(resumed, 3);
}

TEST(OneShotEventTest, WaitAfterTriggerIsImmediate) {
  Engine engine;
  OneShotEvent ev(&engine);
  ev.Trigger();
  bool done = false;
  engine.Spawn([](OneShotEvent& e, bool& d) -> Co<void> {
    co_await e.Wait();
    d = true;
  }(ev, done));
  EXPECT_TRUE(done);  // No suspension needed.
}

TEST(SemaphoreTest, LimitsConcurrency) {
  Engine engine;
  Semaphore sem(&engine, 2);
  int active = 0;
  int max_active = 0;
  for (int i = 0; i < 6; ++i) {
    engine.Spawn([](Engine& e, Semaphore& s, int& act, int& mx) -> Co<void> {
      co_await s.Acquire();
      ++act;
      mx = std::max(mx, act);
      co_await e.Sleep(Duration::Millis(10));
      --act;
      s.Release();
    }(engine, sem, active, max_active));
  }
  engine.Run();
  EXPECT_EQ(active, 0);
  EXPECT_EQ(max_active, 2);
  EXPECT_EQ(engine.now().ms(), 30.0);  // 6 tasks, 2 at a time, 10ms each.
}

TEST(SemaphoreTest, TryAcquire) {
  Engine engine;
  Semaphore sem(&engine, 1);
  EXPECT_TRUE(sem.TryAcquire());
  EXPECT_FALSE(sem.TryAcquire());
  sem.Release();
  EXPECT_TRUE(sem.TryAcquire());
}

TEST(ChannelTest, SendThenRecv) {
  Engine engine;
  Channel<int> ch(&engine);
  ch.Send(1);
  ch.Send(2);
  std::vector<int> got;
  engine.Spawn([](Channel<int>& c, std::vector<int>& g) -> Co<void> {
    g.push_back(co_await c.Recv());
    g.push_back(co_await c.Recv());
  }(ch, got));
  engine.Run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST(ChannelTest, RecvBlocksUntilSend) {
  Engine engine;
  Channel<int> ch(&engine);
  int got = 0;
  engine.Spawn([](Channel<int>& c, int& g) -> Co<void> { g = co_await c.Recv(); }(ch, got));
  engine.Run();
  EXPECT_EQ(got, 0);
  ch.Send(7);
  engine.Run();
  EXPECT_EQ(got, 7);
}

TEST(ChannelTest, ManyProducersOneConsumer) {
  Engine engine;
  Channel<int> ch(&engine);
  int sum = 0;
  engine.Spawn([](Channel<int>& c, int& s) -> Co<void> {
    for (int i = 0; i < 10; ++i) {
      s += co_await c.Recv();
    }
  }(ch, sum));
  for (int i = 1; i <= 10; ++i) {
    engine.Schedule(Duration::Millis(i), [&ch, i] { ch.Send(i); });
  }
  engine.Run();
  EXPECT_EQ(sum, 55);
}

TEST(SharedFutureTest, MultipleGetters) {
  Engine engine;
  SharedFuture<int> fut(&engine);
  int sum = 0;
  for (int i = 0; i < 3; ++i) {
    engine.Spawn([](SharedFuture<int>& f, int& s) -> Co<void> {
      s += co_await f.Get();
    }(fut, sum));
  }
  engine.Run();
  EXPECT_EQ(sum, 0);
  fut.Set(5);
  engine.Run();
  EXPECT_EQ(sum, 15);
  EXPECT_TRUE(fut.has_value());
}

// --- CPU scheduler -------------------------------------------------------

Co<void> Burn(Engine& engine, CpuScheduler& cpu, int core, Duration work, TimePoint* done,
              CpuOwner owner = kHostOwner) {
  co_await cpu.Run(core, work, owner);
  *done = engine.now();
}

TEST(CpuTest, SingleJobTakesItsWork) {
  Engine engine;
  CpuScheduler cpu(&engine, 1);
  TimePoint done;
  engine.Spawn(Burn(engine, cpu, 0, Duration::Millis(10), &done));
  engine.Run();
  EXPECT_EQ(done.ms(), 10.0);
}

TEST(CpuTest, TwoEqualJobsShareTheCore) {
  Engine engine;
  CpuScheduler cpu(&engine, 1);
  TimePoint a;
  TimePoint b;
  engine.Spawn(Burn(engine, cpu, 0, Duration::Millis(10), &a));
  engine.Spawn(Burn(engine, cpu, 0, Duration::Millis(10), &b));
  engine.Run();
  // Processor sharing: both finish at 20ms.
  EXPECT_NEAR(a.ms(), 20.0, 1e-6);
  EXPECT_NEAR(b.ms(), 20.0, 1e-6);
}

TEST(CpuTest, ShortJobDelaysLongJobByItsWork) {
  Engine engine;
  CpuScheduler cpu(&engine, 1);
  TimePoint a;
  TimePoint b;
  engine.Spawn(Burn(engine, cpu, 0, Duration::Millis(100), &a));
  engine.Schedule(Duration::Millis(10), [&] {
    engine.Spawn(Burn(engine, cpu, 0, Duration::Millis(5), &b));
  });
  engine.Run();
  // Short job arrives at 10ms with long job at 90ms remaining; it runs at
  // rate 1/2 so completes at 20ms; long job finishes at 105ms total.
  EXPECT_NEAR(b.ms(), 20.0, 1e-6);
  EXPECT_NEAR(a.ms(), 105.0, 1e-6);
}

TEST(CpuTest, CoresAreIndependent) {
  Engine engine;
  CpuScheduler cpu(&engine, 2);
  TimePoint a;
  TimePoint b;
  engine.Spawn(Burn(engine, cpu, 0, Duration::Millis(10), &a));
  engine.Spawn(Burn(engine, cpu, 1, Duration::Millis(10), &b));
  engine.Run();
  EXPECT_NEAR(a.ms(), 10.0, 1e-6);
  EXPECT_NEAR(b.ms(), 10.0, 1e-6);
}

TEST(CpuTest, ZeroWorkCompletesInline) {
  Engine engine;
  CpuScheduler cpu(&engine, 1);
  bool done = false;
  engine.Spawn([](CpuScheduler& c, bool& d) -> Co<void> {
    co_await c.Run(0, Duration());
    d = true;
  }(cpu, done));
  EXPECT_TRUE(done);
}

TEST(CpuTest, PerOwnerAccounting) {
  Engine engine;
  CpuScheduler cpu(&engine, 1);
  TimePoint a;
  TimePoint b;
  engine.Spawn(Burn(engine, cpu, 0, Duration::Millis(10), &a, /*owner=*/1));
  engine.Spawn(Burn(engine, cpu, 0, Duration::Millis(30), &b, /*owner=*/2));
  engine.Run();
  EXPECT_NEAR(cpu.ConsumedBy(1).ms(), 10.0, 0.01);
  EXPECT_NEAR(cpu.ConsumedBy(2).ms(), 30.0, 0.01);
  EXPECT_NEAR(cpu.BusyTime(0).ms(), 40.0, 0.01);
}

TEST(CpuTest, WindowUtilization) {
  Engine engine;
  CpuScheduler cpu(&engine, 2);
  TimePoint done;
  cpu.StartWindow();
  engine.Spawn(Burn(engine, cpu, 0, Duration::Millis(10), &done));
  engine.RunUntil(TimePoint() + Duration::Millis(20));
  // One of two cores busy for 10 of 20 ms -> 25% machine-wide.
  EXPECT_NEAR(cpu.WindowUtilization(), 0.25, 0.001);
}

TEST(CpuTest, ManyJobsFairness) {
  Engine engine;
  CpuScheduler cpu(&engine, 1);
  std::vector<TimePoint> done(10);
  for (int i = 0; i < 10; ++i) {
    engine.Spawn(Burn(engine, cpu, 0, Duration::Millis(1), &done[static_cast<size_t>(i)]));
  }
  engine.Run();
  for (const TimePoint& t : done) {
    EXPECT_NEAR(t.ms(), 10.0, 1e-6);  // All equal jobs end together under PS.
  }
}

// --- Periodic load ------------------------------------------------------------

TimePoint At(double ms) { return TimePoint() + Duration::Micros(ms * 1000.0); }

TEST(CpuTest, PeriodicFirstArrivalLandsAtOffset) {
  Engine engine;
  CpuScheduler cpu(&engine, 1);
  auto load = cpu.AddPeriodic(0, /*owner=*/1, Duration::Millis(1), Duration::Millis(10),
                              /*offset=*/Duration::Millis(3));
  engine.RunUntil(At(2.999));
  EXPECT_EQ(cpu.ActiveJobs(0), 0);
  engine.RunUntil(At(3));
  EXPECT_EQ(cpu.ActiveJobs(0), 1);
  engine.RunUntil(At(4));
  EXPECT_EQ(cpu.ActiveJobs(0), 0);
  EXPECT_EQ(cpu.ConsumedBy(1).ns(), Duration::Millis(1).ns());
}

TEST(CpuTest, PeriodicNextArrivalIsCompletionPlusPeriod) {
  Engine engine;
  CpuScheduler cpu(&engine, 1);
  TimePoint long_done;
  engine.Spawn(Burn(engine, cpu, 0, Duration::Millis(100), &long_done));
  auto load =
      cpu.AddPeriodic(0, /*owner=*/1, Duration::Millis(1), Duration::Millis(10), Duration());
  // Sharing the core with the long job, the 1 ms slice completes at 2 ms, so
  // the next arrives at 12 ms, not at 10 ms.
  engine.RunUntil(At(2));
  EXPECT_EQ(cpu.ActiveJobs(0), 1);
  EXPECT_EQ(cpu.ConsumedBy(1).ns(), Duration::Millis(1).ns());
  engine.RunUntil(At(11.999));
  EXPECT_EQ(cpu.ActiveJobs(0), 1);
  engine.RunUntil(At(12));
  EXPECT_EQ(cpu.ActiveJobs(0), 2);
  engine.RunUntil(At(14));
  EXPECT_EQ(cpu.ActiveJobs(0), 1);
  EXPECT_EQ(cpu.ConsumedBy(1).ns(), Duration::Millis(2).ns());
}

TEST(CpuTest, PeriodicCancelWhileWaitingStopsAllCpu) {
  Engine engine;
  CpuScheduler cpu(&engine, 1);
  auto load =
      cpu.AddPeriodic(0, /*owner=*/1, Duration::Millis(1), Duration::Millis(10), Duration());
  engine.RunUntil(At(5));
  EXPECT_EQ(cpu.ConsumedBy(1).ns(), Duration::Millis(1).ns());
  load.reset();
  EXPECT_EQ(engine.pending_events(), 0u);  // The next arrival is dropped.
  engine.RunUntil(At(100));
  EXPECT_EQ(cpu.ConsumedBy(1).ns(), Duration::Millis(1).ns());
}

TEST(CpuTest, PeriodicCancelMidSliceFinishesOnlyThatSlice) {
  Engine engine;
  CpuScheduler cpu(&engine, 1);
  TimePoint long_done;
  engine.Spawn(Burn(engine, cpu, 0, Duration::Millis(100), &long_done));
  auto load =
      cpu.AddPeriodic(0, /*owner=*/1, Duration::Millis(2), Duration::Millis(10), Duration());
  engine.RunUntil(At(1));
  load.reset();
  EXPECT_EQ(cpu.ActiveJobs(0), 2);  // The slice stays on the core...
  engine.Run();
  // ...and takes its exact processor share: 2 ms of work at rate 1/2 ends at
  // 4 ms, delaying the long job by exactly 2 ms. Nothing follows it.
  EXPECT_EQ(cpu.ConsumedBy(1).ns(), Duration::Millis(2).ns());
  EXPECT_NEAR(long_done.ms(), 102.0, 1e-6);
  EXPECT_EQ(engine.now(), long_done);
}

// A load destroyed mid-slice may have its memory reused by the next load;
// the finishing slice must not re-arm that newcomer.
TEST(CpuTest, PeriodicLoadsChurnWithoutCrossTalk) {
  Engine engine;
  CpuScheduler cpu(&engine, 1);
  auto a = cpu.AddPeriodic(0, /*owner=*/1, Duration::Millis(1), Duration::Millis(10),
                           Duration());
  engine.RunUntil(At(0.5));
  a.reset();  // Mid-slice: a's slice still ends at 1 ms.
  auto b = cpu.AddPeriodic(0, /*owner=*/2, Duration::Millis(1), Duration::Millis(10),
                           Duration::Millis(5));
  // b's slices arrive at 5.5, 16.5, ..., 93.5 ms: nine by 100 ms.
  engine.RunUntil(At(100));
  EXPECT_EQ(cpu.ConsumedBy(1).ns(), Duration::Millis(1).ns());
  EXPECT_EQ(cpu.ConsumedBy(2).ns(), Duration::Millis(9).ns());

  // Churn: each load is dropped mid-slice and replaced at once, so slices
  // overlap (and share the core) but each still runs exactly once.
  b.reset();
  for (int i = 0; i < 50; ++i) {
    auto c = cpu.AddPeriodic(0, /*owner=*/3, Duration::Millis(1), Duration::Millis(10),
                             Duration());
    engine.RunFor(Duration::Micros(500));
  }
  engine.Run();
  EXPECT_NEAR(cpu.ConsumedBy(3).ms(), 50.0, 1e-3);
  EXPECT_EQ(cpu.ConsumedBy(2).ns(), Duration::Millis(9).ns());
}

TEST(CorePlacerTest, RoundRobinGuestCores) {
  CorePlacer placer(4, 1);
  EXPECT_EQ(placer.NextGuestCore(), 1);
  EXPECT_EQ(placer.NextGuestCore(), 2);
  EXPECT_EQ(placer.NextGuestCore(), 3);
  EXPECT_EQ(placer.NextGuestCore(), 1);
  EXPECT_EQ(placer.num_guest_cores(), 3);
  EXPECT_EQ(placer.num_dom0_cores(), 1);
  EXPECT_EQ(placer.NextDom0Core(), 0);
  EXPECT_EQ(placer.NextDom0Core(), 0);
}

TEST(CorePlacerTest, MultipleDom0Cores) {
  CorePlacer placer(64, 4);
  EXPECT_EQ(placer.NextDom0Core(), 0);
  EXPECT_EQ(placer.NextDom0Core(), 1);
  EXPECT_EQ(placer.NextDom0Core(), 2);
  EXPECT_EQ(placer.NextDom0Core(), 3);
  EXPECT_EQ(placer.NextDom0Core(), 0);
  EXPECT_EQ(placer.num_guest_cores(), 60);
}

// --- Event core: eager cancel, generation handles -----------------------------

TEST(EngineTest, CancelDropsPendingCountAtOnce) {
  Engine engine;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(engine.Schedule(Duration::Millis(i + 1), [] {}));
  }
  EXPECT_EQ(engine.pending_events(), 10u);
  handles[3].Cancel();
  EXPECT_EQ(engine.pending_events(), 9u);
  EXPECT_FALSE(handles[3].valid());
  EXPECT_TRUE(handles[7].valid());
  handles[0].Cancel();
  handles[9].Cancel();
  EXPECT_EQ(engine.pending_events(), 7u);
  engine.Run();
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_EQ(engine.processed_events(), 7u);
  EXPECT_EQ(engine.now().ms(), 9.0);
}

TEST(EngineTest, DoubleCancelAndCancelAfterFireAreNoOps) {
  Engine engine;
  std::vector<int> ran;
  EventHandle a = engine.Schedule(Duration::Millis(1), [&] { ran.push_back(1); });
  EventHandle b = engine.Schedule(Duration::Millis(2), [&] { ran.push_back(2); });
  engine.Schedule(Duration::Millis(3), [&] { ran.push_back(3); });
  b.Cancel();
  b.Cancel();
  EXPECT_EQ(engine.pending_events(), 2u);
  ASSERT_TRUE(engine.Step());
  EXPECT_FALSE(a.valid());
  a.Cancel();  // already fired
  EXPECT_EQ(engine.pending_events(), 1u);
  engine.Run();
  EXPECT_EQ(ran, (std::vector<int>{1, 3}));
}

TEST(EngineTest, StaleHandleLeavesRecycledSlotAlone) {
  Engine engine;
  bool first = false;
  bool second = false;
  EventHandle stale = engine.Schedule(Duration::Millis(1), [&] { first = true; });
  stale.Cancel();
  // The freed slot is reused by the next event; the old handle must not
  // reach it, before or after it fires.
  EventHandle fresh = engine.Schedule(Duration::Millis(1), [&] { second = true; });
  stale.Cancel();
  EXPECT_FALSE(stale.valid());
  EXPECT_TRUE(fresh.valid());
  EXPECT_EQ(engine.pending_events(), 1u);
  engine.Run();
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);

  // Same once the first occupant fired rather than being cancelled.
  int fired = 0;
  EventHandle done = engine.Schedule(Duration::Millis(1), [&] { ++fired; });
  engine.Run();
  EventHandle next = engine.Schedule(Duration::Millis(1), [&] { fired += 10; });
  done.Cancel();
  EXPECT_TRUE(next.valid());
  engine.Run();
  EXPECT_EQ(fired, 11);
}

TEST(EngineTest, CancelFromInsideACallbackRemovesTheOtherEvent) {
  Engine engine;
  std::vector<int> ran;
  EventHandle later = engine.Schedule(Duration::Millis(2), [&] { ran.push_back(2); });
  engine.Schedule(Duration::Millis(1), [&] {
    ran.push_back(1);
    later.Cancel();
    // Scheduling from a callback may grow the slot vector.
    for (int i = 0; i < 100; ++i) {
      engine.Schedule(Duration::Millis(5), [&ran, i] { ran.push_back(100 + i); });
    }
  });
  engine.Run();
  ASSERT_EQ(ran.size(), 101u);
  EXPECT_EQ(ran[0], 1);
  EXPECT_EQ(ran[1], 100);
  EXPECT_EQ(ran[100], 199);
}

// Random mixes of Schedule / ScheduleAt / ScheduleResume / Cancel / Step /
// RunUntil must fire exactly the events, at exactly the times and in exactly
// the order, of a reference map keyed by (when, schedule order).
struct Waker {
  struct promise_type {
    Waker get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
  };
};

struct Park {
  std::coroutine_handle<>* out;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) { *out = h; }
  void await_resume() const noexcept {}
};

// Parks at once; once resumed it runs `on_wake` and its frame frees itself.
Waker ParkThen(Park park, std::function<void()> on_wake) {
  co_await park;
  on_wake();
}

TEST(EngineTest, RandomOperationsMatchReferenceOrder) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Engine engine(seed);
    lv::Rng rng(seed * 7919);
    using Key = std::pair<int64_t, uint64_t>;  // (when, seq)
    std::map<Key, size_t> model;               // pending event ids
    std::vector<Key> keys;                     // per id
    std::vector<EventHandle> handles;          // per id
    std::vector<std::coroutine_handle<>> frames;  // per id; null for callbacks
    std::vector<std::pair<size_t, int64_t>> fired;  // (id, now) as run
    std::vector<std::pair<size_t, int64_t>> expected;
    uint64_t seq = 0;

    auto schedule = [&](int64_t kind, int64_t delay_ns) {
      size_t id = handles.size();
      int64_t when = engine.now().ns() + delay_ns;
      auto record = [&fired, &engine, id] { fired.emplace_back(id, engine.now().ns()); };
      std::coroutine_handle<> frame;
      if (kind == 0) {
        handles.push_back(engine.Schedule(Duration::Nanos(delay_ns), record));
      } else if (kind == 1) {
        handles.push_back(engine.ScheduleAt(TimePoint::FromNanos(when), record));
      } else {
        ParkThen(Park{&frame}, record);
        handles.push_back(engine.ScheduleResume(Duration::Nanos(delay_ns), frame));
      }
      frames.push_back(frame);
      keys.emplace_back(when, seq);
      model.emplace(Key{when, seq++}, id);
    };
    auto model_pop = [&] {
      expected.emplace_back(model.begin()->second, model.begin()->first.first);
      model.erase(model.begin());
    };

    for (int op = 0; op < 10000; ++op) {
      int64_t r = rng.Uniform(0, 99);
      if (r < 45) {
        // Many zero and small delays, so equal-time ties are common.
        int64_t delay = rng.Chance(0.25) ? 0 : rng.Uniform(0, 50);
        schedule(rng.Uniform(0, 2), delay);
      } else if (r < 65 && !handles.empty()) {
        // Any id: pending, already fired or already cancelled.
        size_t id = static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(handles.size()) - 1));
        handles[id].Cancel();
        auto it = model.find(keys[id]);
        if (it != model.end()) {
          model.erase(it);
          if (frames[id]) {
            frames[id].destroy();  // its wake-up is gone; nothing will resume it
          }
        }
      } else if (r < 90) {
        EXPECT_EQ(engine.Step(), !model.empty());
        if (!model.empty()) {
          model_pop();
        }
      } else {
        int64_t t = engine.now().ns() + rng.Uniform(0, 40);
        engine.RunUntil(TimePoint::FromNanos(t));
        while (!model.empty() && model.begin()->first.first <= t) {
          model_pop();
        }
        EXPECT_EQ(engine.now().ns(), t);
      }
      ASSERT_EQ(engine.pending_events(), model.size()) << "seed " << seed << " op " << op;
    }
    engine.Run();
    while (!model.empty()) {
      model_pop();
    }
    EXPECT_GT(fired.size(), 1000u);
    EXPECT_EQ(fired, expected) << "seed " << seed;
  }
}

}  // namespace
}  // namespace sim
