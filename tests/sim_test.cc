#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "mapred/fetch_client.h"
#include "sim/channel.h"
#include "sim/engine.h"
#include "sim/sync.h"
#include "sim/task.h"

// Counting global allocator for SimMemoryTest: every operator new in this
// binary stores its size in a header, so the test can read the live heap
// bytes and the number of allocations around the code it measures.
namespace {
std::atomic<std::int64_t> g_heap_bytes{0};
std::atomic<std::int64_t> g_heap_allocs{0};
constexpr std::size_t kHeapHeader = alignof(std::max_align_t);
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  void* base = std::malloc(size + kHeapHeader);
  if (base == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(base) = size;
  g_heap_bytes.fetch_add(std::int64_t(size), std::memory_order_relaxed);
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return static_cast<char*>(base) + kHeapHeader;
}
void* operator new[](std::size_t size) { return operator new(size); }
[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  void* base = static_cast<char*>(p) - kHeapHeader;
  g_heap_bytes.fetch_sub(std::int64_t(*static_cast<std::size_t*>(base)),
                         std::memory_order_relaxed);
  std::free(base);
}
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }

namespace hmr::sim {
namespace {

// ---------------------------------------------------------------- engine

TEST(EngineTest, StartsAtZero) {
  Engine engine;
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);
  EXPECT_EQ(engine.live_processes(), 0);
}

TEST(EngineTest, DelayAdvancesClock) {
  Engine engine;
  double finished_at = -1.0;
  engine.spawn([](Engine& e, double& out) -> Task<> {
    co_await e.delay(2.5);
    co_await e.delay(1.5);
    out = e.now();
  }(engine, finished_at));
  engine.run();
  EXPECT_DOUBLE_EQ(finished_at, 4.0);
  EXPECT_EQ(engine.live_processes(), 0);
}

TEST(EngineTest, EqualTimeEventsRunInScheduleOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    engine.spawn([](Engine& e, std::vector<int>& order, int id) -> Task<> {
      co_await e.delay(1.0);
      order.push_back(id);
    }(engine, order, i));
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// An EventQueue driven in lockstep with a std::priority_queue ordered
// by (at, seq): the reference the container is checked against.
class ReferencedQueue {
 public:
  void push(Time now, Time at) {
    const EventQueue::Event event{at, seq_++, {}};
    queue_.push(now, event);
    reference_.push(event);
  }
  EventQueue::Event pop() {
    const EventQueue::Event got = queue_.pop();
    EXPECT_EQ(got.at, reference_.top().at);
    EXPECT_EQ(got.seq, reference_.top().seq);
    reference_.pop();
    return got;
  }
  bool empty() const {
    EXPECT_EQ(queue_.empty(), reference_.empty());
    EXPECT_EQ(queue_.size(), reference_.size());
    return reference_.empty();
  }

 private:
  struct Later {
    bool operator()(const EventQueue::Event& a,
                    const EventQueue::Event& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };
  EventQueue queue_;
  std::priority_queue<EventQueue::Event, std::vector<EventQueue::Event>,
                      Later>
      reference_;
  std::uint64_t seq_ = 0;
};

// Every pop matches the reference, for seeded random mixes of pushes at
// the current time (the now-FIFO lane) and future pushes (the heap
// lane). Future times sit on a coarse grid so same-time events often
// straddle both lanes and must be tie-broken by seq.
TEST(EventQueueTest, PopsMatchPriorityQueueReference) {
  {
    ReferencedQueue queue;
    // Heap-resident events for t=1.0 scheduled from t=0...
    queue.push(0.0, 1.0);  // seq 0
    queue.push(0.0, 2.0);  // seq 1
    queue.push(0.0, 1.0);  // seq 2
    // ...then time advances to 1.0 and same-time pushes hit the FIFO.
    queue.push(1.0, 1.0);  // seq 3
    queue.push(1.0, 1.5);  // seq 4 (future: heap)
    queue.push(1.0, 1.0);  // seq 5
    std::vector<std::uint64_t> order;
    while (!queue.empty()) order.push_back(queue.pop().seq);
    EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 2, 3, 5, 4, 1}));
  }
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed, "event_queue.reference");
    ReferencedQueue queue;
    Time now = 0.0;
    for (int op = 0; op < 2000; ++op) {
      if (!queue.empty() && rng.chance(0.45)) {
        now = queue.pop().at;
      } else {
        queue.push(now, rng.chance(0.5)
                            ? now
                            : now + 0.25 * double(1 + rng.below(8)));
      }
    }
    while (!queue.empty()) now = queue.pop().at;
  }
}

// An event that sorts before the last pop (pushed into the past, or
// held back by a lane bug) trips pop()'s order check.
TEST(EventQueueTest, PopOutOfOrderAborts) {
  EventQueue queue;
  queue.push(0.0, {2.0, 0, {}});
  EXPECT_EQ(queue.pop().seq, 0u);
  queue.push(2.0, {1.0, 1, {}});
  EXPECT_DEATH(queue.pop(), "popped out of");
}

TEST(EventQueueTest, NextAtSeesBothLanes) {
  EventQueue queue;
  queue.push(0.0, {3.0, 0, {}});
  EXPECT_DOUBLE_EQ(queue.next_at(), 3.0);
  queue.push(0.0, {0.0, 1, {}});  // lands in the now-FIFO
  EXPECT_DOUBLE_EQ(queue.next_at(), 0.0);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.pop().seq, 1u);
  EXPECT_EQ(queue.pop().seq, 0u);
  EXPECT_TRUE(queue.empty());
}

TEST(EngineTest, ZeroDelayRunsAtSameTime) {
  Engine engine;
  double t = -1;
  engine.spawn([](Engine& e, double& t) -> Task<> {
    co_await e.delay(0.0);
    t = e.now();
  }(engine, t));
  engine.run();
  EXPECT_DOUBLE_EQ(t, 0.0);
}

TEST(EngineTest, StructuredChildReturnsValue) {
  Engine engine;
  int result = 0;
  engine.spawn([](Engine& e, int& out) -> Task<> {
    auto child = [](Engine& e) -> Task<int> {
      co_await e.delay(1.0);
      co_return 42;
    };
    out = co_await child(e);
  }(engine, result));
  engine.run();
  EXPECT_EQ(result, 42);
}

TEST(EngineTest, NestedChildrenComposeDelays) {
  Engine engine;
  double done = 0;
  engine.spawn([](Engine& e, double& done) -> Task<> {
    auto inner = [](Engine& e) -> Task<int> {
      co_await e.delay(1.0);
      co_return 1;
    };
    auto middle = [inner](Engine& e) -> Task<int> {
      int total = 0;
      for (int i = 0; i < 3; ++i) total += co_await inner(e);
      co_return total;
    };
    const int total = co_await middle(e);
    EXPECT_EQ(total, 3);
    done = e.now();
  }(engine, done));
  engine.run();
  EXPECT_DOUBLE_EQ(done, 3.0);
}

TEST(EngineTest, ExceptionPropagatesToAwaiter) {
  Engine engine;
  bool caught = false;
  engine.spawn([](Engine& e, bool& caught) -> Task<> {
    auto thrower = [](Engine& e) -> Task<int> {
      co_await e.delay(0.5);
      throw std::runtime_error("boom");
    };
    try {
      (void)co_await thrower(e);
    } catch (const std::runtime_error& err) {
      caught = std::string(err.what()) == "boom";
    }
  }(engine, caught));
  engine.run();
  EXPECT_TRUE(caught);
}

TEST(EngineTest, RunUntilStopsEarly) {
  Engine engine;
  int ticks = 0;
  engine.spawn([](Engine& e, int& ticks) -> Task<> {
    for (int i = 0; i < 100; ++i) {
      co_await e.delay(1.0);
      ++ticks;
    }
  }(engine, ticks));
  engine.run_until(10.5);
  EXPECT_EQ(ticks, 10);
  EXPECT_DOUBLE_EQ(engine.now(), 10.5);
  EXPECT_EQ(engine.live_processes(), 1);
  engine.run();
  EXPECT_EQ(ticks, 100);
}

TEST(EngineTest, BlockedProcessReportedLive) {
  Engine engine;
  Event never(engine);
  engine.spawn([](Event& ev) -> Task<> { co_await ev.wait(); }(never));
  engine.run();
  EXPECT_EQ(engine.live_processes(), 1);
}

// Frames still parked when the engine dies are destroyed oldest spawn
// first, whatever their frame addresses or park order. Frames are
// created A, B, C but spawned C, A, B. A and B park on an Event that
// outlives the engine (each frame unlinks its waiter as it dies); C parks
// on a Channel that dies first (it orphans C's waiter).
TEST(EngineTest, TeardownDestroysLeftoverFramesInSpawnOrder) {
  struct Mark {
    std::vector<char>* log;
    char id;
    ~Mark() { log->push_back(id); }
  };
  auto park_on_event = [](Engine& e, Event& ev, std::vector<char>& log,
                          char id, double arrive) -> Task<> {
    Mark mark{&log, id};
    co_await e.delay(arrive);
    co_await ev.wait();
    ADD_FAILURE() << "event was never set";
  };
  std::vector<char> destroyed;
  std::unique_ptr<Event> outliving;
  {
    Engine engine;
    outliving = std::make_unique<Event>(engine);
    Channel<int> channel(engine, 1);
    Task<> a = park_on_event(engine, *outliving, destroyed, 'A', 2.0);
    Task<> b = park_on_event(engine, *outliving, destroyed, 'B', 1.0);
    Task<> c = [](Channel<int>& ch, std::vector<char>& log) -> Task<> {
      Mark mark{&log, 'C'};
      (void)co_await ch.recv();
      ADD_FAILURE() << "channel never delivers";
    }(channel, destroyed);
    engine.spawn(std::move(c));
    engine.spawn(std::move(a));
    engine.spawn(std::move(b));
    engine.run();
    EXPECT_EQ(engine.live_processes(), 3);
    EXPECT_TRUE(destroyed.empty());
  }
  EXPECT_EQ(destroyed, (std::vector<char>{'C', 'A', 'B'}));
}

TEST(EngineTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine engine(42);
    std::vector<double> times;
    auto rng = engine.make_rng("jitter");
    for (int i = 0; i < 10; ++i) {
      engine.spawn(
          [](Engine& e, std::vector<double>& times, double dt) -> Task<> {
            co_await e.delay(dt);
            times.push_back(e.now());
          }(engine, times, rng.uniform()));
    }
    engine.run();
    return times;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(EngineTest, MakeRngIsStable) {
  Engine a(7), b(7);
  EXPECT_EQ(a.make_rng("x").next(), b.make_rng("x").next());
}

// ----------------------------------------------------------------- event

TEST(EventTest, SetWakesAllWaiters) {
  Engine engine;
  Event ev(engine);
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    engine.spawn([](Event& ev, int& woken) -> Task<> {
      co_await ev.wait();
      ++woken;
    }(ev, woken));
  }
  engine.spawn([](Engine& e, Event& ev) -> Task<> {
    co_await e.delay(5.0);
    ev.set();
  }(engine, ev));
  engine.run();
  EXPECT_EQ(woken, 3);
  EXPECT_DOUBLE_EQ(engine.now(), 5.0);
}

TEST(EventTest, WaitOnSetEventIsImmediate) {
  Engine engine;
  Event ev(engine);
  ev.set();
  double t = -1;
  engine.spawn([](Engine& e, Event& ev, double& t) -> Task<> {
    co_await e.delay(1.0);
    co_await ev.wait();
    t = e.now();
  }(engine, ev, t));
  engine.run();
  EXPECT_DOUBLE_EQ(t, 1.0);
}

TEST(EventTest, ResetRearms) {
  Engine engine;
  Event ev(engine);
  ev.set();
  ev.reset();
  EXPECT_FALSE(ev.is_set());
  int woken = 0;
  engine.spawn([](Event& ev, int& woken) -> Task<> {
    co_await ev.wait();
    ++woken;
  }(ev, woken));
  engine.spawn([](Event& ev) -> Task<> {
    ev.set();
    co_return;
  }(ev));
  engine.run();
  EXPECT_EQ(woken, 1);
}

// Waiters wake in the order they parked (here the reverse of spawn
// order). A waiter that arrives at the set() timestamp, and a woken
// waiter that waits again, both see the event set and never park.
TEST(EventTest, WaitersWakeInParkOrder) {
  Engine engine;
  Event ev(engine);
  std::vector<int> order;
  engine.spawn([](Engine& e, Event& ev) -> Task<> {
    co_await e.delay(1.0);
    ev.set();
  }(engine, ev));
  engine.spawn([](Engine& e, Event& ev, std::vector<int>& order) -> Task<> {
    co_await e.delay(1.0);
    co_await ev.wait();
    order.push_back(100);
  }(engine, ev, order));
  for (int i = 0; i < 4; ++i) {
    engine.spawn([](Engine& e, Event& ev, std::vector<int>& order,
                    int id) -> Task<> {
      co_await e.delay(0.001 * double(3 - id));
      co_await ev.wait();
      order.push_back(id);
      co_await ev.wait();
      order.push_back(10 + id);
    }(engine, ev, order, i));
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{100, 3, 13, 2, 12, 1, 11, 0, 10}));
  EXPECT_EQ(engine.live_processes(), 0);
}

// -------------------------------------------------------------- resource

// queued() counts parked waiters, O(1), as they park and as grants
// admit them.
TEST(ResourceTest, QueuedCountsParkedWaiters) {
  Engine engine;
  Resource r(engine, 2, "slots");
  std::vector<std::int64_t> queued;
  engine.spawn([](Engine& e, Resource& r) -> Task<> {
    co_await r.acquire(2);
    co_await e.delay(1.0);
    r.release(2);
  }(engine, r));
  for (const std::int64_t amount : {1, 1, 2}) {
    engine.spawn([](Engine& e, Resource& r, std::int64_t amount) -> Task<> {
      co_await r.acquire(amount);
      co_await e.delay(1.0);
      r.release(amount);
    }(engine, r, amount));
  }
  engine.spawn([](Engine& e, Resource& r,
                  std::vector<std::int64_t>& queued) -> Task<> {
    for (int i = 0; i < 4; ++i) {
      co_await e.delay(0.5);
      queued.push_back(r.queued());
      co_await e.delay(0.5);
    }
  }(engine, r, queued));
  engine.run();
  // t=0.5: all three park behind the holder. t=1.5: both 1-unit waiters
  // were granted, the 2-unit one waits. t=2.5: it holds both units.
  EXPECT_EQ(queued, (std::vector<std::int64_t>{3, 1, 0, 0}));
  EXPECT_EQ(r.available(), 2);
}


TEST(ResourceTest, CapacityLimitsConcurrency) {
  Engine engine;
  Resource cores(engine, 2, "cpu");
  int concurrent = 0, peak = 0;
  for (int i = 0; i < 6; ++i) {
    engine.spawn([](Engine& e, Resource& r, int& concurrent,
                    int& peak) -> Task<> {
      co_await r.acquire();
      ++concurrent;
      peak = std::max(peak, concurrent);
      co_await e.delay(1.0);
      --concurrent;
      r.release();
    }(engine, cores, concurrent, peak));
  }
  engine.run();
  EXPECT_EQ(peak, 2);
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);  // 6 jobs, 2 at a time, 1s each
  EXPECT_EQ(cores.available(), 2);
}

TEST(ResourceTest, FifoOrderPreserved) {
  Engine engine;
  Resource r(engine, 1, "disk");
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    engine.spawn([](Engine& e, Resource& r, std::vector<int>& order,
                    int id) -> Task<> {
      co_await e.delay(double(id) * 0.001);  // stagger arrival
      co_await r.acquire();
      order.push_back(id);
      co_await e.delay(1.0);
      r.release();
    }(engine, r, order, i));
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ResourceTest, LargeRequestBlocksLaterSmallOnes) {
  Engine engine;
  Resource r(engine, 4, "mem");
  std::vector<std::string> order;
  engine.spawn([](Engine& e, Resource& r,
                  std::vector<std::string>& order) -> Task<> {
    co_await r.acquire(3);
    order.push_back("A3");
    co_await e.delay(2.0);
    r.release(3);
  }(engine, r, order));
  engine.spawn([](Engine& e, Resource& r,
                  std::vector<std::string>& order) -> Task<> {
    co_await e.delay(0.1);
    co_await r.acquire(3);  // must wait for A to release
    order.push_back("B3");
    r.release(3);
  }(engine, r, order));
  engine.spawn([](Engine& e, Resource& r,
                  std::vector<std::string>& order) -> Task<> {
    co_await e.delay(0.2);
    co_await r.acquire(1);  // would fit, but must not jump the queue
    order.push_back("C1");
    r.release(1);
  }(engine, r, order));
  engine.run();
  EXPECT_EQ(order, (std::vector<std::string>{"A3", "B3", "C1"}));
}

TEST(ResourceTest, HoldReleasesOnScopeExit) {
  Engine engine;
  Resource r(engine, 1, "slot");
  double second_start = -1;
  engine.spawn([](Engine& e, Resource& r) -> Task<> {
    auto guard = co_await hold(r);
    co_await e.delay(3.0);
    // guard released at scope exit
  }(engine, r));
  engine.spawn([](Engine& e, Resource& r, double& start) -> Task<> {
    auto guard = co_await hold(r);
    start = e.now();
  }(engine, r, second_start));
  engine.run();
  EXPECT_DOUBLE_EQ(second_start, 3.0);
  EXPECT_EQ(r.available(), 1);
}

// ------------------------------------------------------------- waitgroup

TEST(WaitGroupTest, WaitsForAll) {
  Engine engine;
  WaitGroup wg(engine);
  double done_at = -1;
  for (int i = 1; i <= 3; ++i) {
    wg.add();
    engine.spawn([](Engine& e, WaitGroup& wg, double dt) -> Task<> {
      co_await e.delay(dt);
      wg.done();
    }(engine, wg, double(i)));
  }
  engine.spawn([](Engine& e, WaitGroup& wg, double& done_at) -> Task<> {
    co_await wg.wait();
    done_at = e.now();
  }(engine, wg, done_at));
  engine.run();
  EXPECT_DOUBLE_EQ(done_at, 3.0);
}

TEST(WaitGroupTest, EmptyGroupDoesNotBlock) {
  Engine engine;
  WaitGroup wg(engine);
  bool ran = false;
  engine.spawn([](WaitGroup& wg, bool& ran) -> Task<> {
    co_await wg.wait();
    ran = true;
  }(wg, ran));
  engine.run();
  EXPECT_TRUE(ran);
}

// --------------------------------------------------------------- channel

TEST(ChannelTest, FifoDelivery) {
  Engine engine;
  Channel<int> ch(engine, 4);
  std::vector<int> received;
  engine.spawn([](Channel<int>& ch) -> Task<> {
    for (int i = 0; i < 8; ++i) co_await ch.send(i);
    ch.close();
  }(ch));
  engine.spawn([](Channel<int>& ch, std::vector<int>& received) -> Task<> {
    while (auto v = co_await ch.recv()) received.push_back(*v);
  }(ch, received));
  engine.run();
  EXPECT_EQ(received, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(engine.live_processes(), 0);
}

TEST(ChannelTest, BoundedCapacityBlocksSender) {
  Engine engine;
  Channel<int> ch(engine, 2);
  int sent = 0;
  engine.spawn([](Channel<int>& ch, int& sent) -> Task<> {
    for (int i = 0; i < 5; ++i) {
      co_await ch.send(i);
      ++sent;
    }
  }(ch, sent));
  engine.spawn([](Engine& e, Channel<int>& ch) -> Task<> {
    co_await e.delay(10.0);
    (void)co_await ch.recv();
  }(engine, ch));
  engine.run();
  // 2 buffered + 1 handed to the receiver after its recv = 3 completed sends.
  EXPECT_EQ(sent, 3);
  EXPECT_EQ(engine.live_processes(), 1);  // sender still parked
}

TEST(ChannelTest, ReceiverBlocksUntilSend) {
  Engine engine;
  Channel<std::string> ch(engine, 1);
  double received_at = -1;
  engine.spawn([](Engine& e, Channel<std::string>& ch,
                  double& received_at) -> Task<> {
    auto v = co_await ch.recv();
    EXPECT_TRUE(v.has_value());
    EXPECT_EQ(*v, "hi");
    received_at = e.now();
  }(engine, ch, received_at));
  engine.spawn([](Engine& e, Channel<std::string>& ch) -> Task<> {
    co_await e.delay(7.0);
    co_await ch.send("hi");
  }(engine, ch));
  engine.run();
  EXPECT_DOUBLE_EQ(received_at, 7.0);
}

TEST(ChannelTest, CloseWakesParkedReceivers) {
  Engine engine;
  Channel<int> ch(engine, 1);
  int nullopts = 0;
  for (int i = 0; i < 3; ++i) {
    engine.spawn([](Channel<int>& ch, int& nullopts) -> Task<> {
      auto v = co_await ch.recv();
      if (!v) ++nullopts;
    }(ch, nullopts));
  }
  engine.spawn([](Engine& e, Channel<int>& ch) -> Task<> {
    co_await e.delay(1.0);
    ch.close();
  }(engine, ch));
  engine.run();
  EXPECT_EQ(nullopts, 3);
}

TEST(ChannelTest, CloseDrainsBufferFirst) {
  Engine engine;
  Channel<int> ch(engine, 4);
  std::vector<int> got;
  int nullopts = 0;
  engine.spawn([](Channel<int>& ch) -> Task<> {
    co_await ch.send(1);
    co_await ch.send(2);
    ch.close();
  }(ch));
  engine.spawn([](Engine& e, Channel<int>& ch, std::vector<int>& got,
                  int& nullopts) -> Task<> {
    co_await e.delay(1.0);
    while (true) {
      auto v = co_await ch.recv();
      if (!v) {
        ++nullopts;
        break;
      }
      got.push_back(*v);
    }
  }(engine, ch, got, nullopts));
  engine.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
  EXPECT_EQ(nullopts, 1);
}

TEST(ChannelTest, MultipleProducersConsumers) {
  Engine engine;
  Channel<int> ch(engine, 3);
  WaitGroup producers(engine);
  std::vector<int> received;
  for (int p = 0; p < 4; ++p) {
    producers.add();
    engine.spawn(
        [](Engine& e, Channel<int>& ch, WaitGroup& wg, int base) -> Task<> {
          for (int i = 0; i < 10; ++i) {
            co_await e.delay(0.01);
            co_await ch.send(base + i);
          }
          wg.done();
        }(engine, ch, producers, p * 100));
  }
  engine.spawn([](Channel<int>& ch, WaitGroup& wg) -> Task<> {
    co_await wg.wait();
    ch.close();
  }(ch, producers));
  for (int c = 0; c < 2; ++c) {
    engine.spawn([](Channel<int>& ch, std::vector<int>& received) -> Task<> {
      while (auto v = co_await ch.recv()) received.push_back(*v);
    }(ch, received));
  }
  engine.run();
  EXPECT_EQ(received.size(), 40u);
  EXPECT_EQ(engine.live_processes(), 0);
}

// Property-style sweep: N producers × M items delivered exactly once for a
// range of channel capacities.
class ChannelSweepTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ChannelSweepTest, ExactlyOnceDelivery) {
  const size_t capacity = GetParam();
  Engine engine;
  Channel<int> ch(engine, capacity);
  WaitGroup producers(engine);
  std::vector<int> received;
  constexpr int kProducers = 3, kItems = 25;
  for (int p = 0; p < kProducers; ++p) {
    producers.add();
    engine.spawn(
        [](Channel<int>& ch, WaitGroup& wg, int p) -> Task<> {
          for (int i = 0; i < kItems; ++i) co_await ch.send(p * kItems + i);
          wg.done();
        }(ch, producers, p));
  }
  engine.spawn([](Channel<int>& ch, WaitGroup& wg) -> Task<> {
    co_await wg.wait();
    ch.close();
  }(ch, producers));
  engine.spawn([](Channel<int>& ch, std::vector<int>& received) -> Task<> {
    while (auto v = co_await ch.recv()) received.push_back(*v);
  }(ch, received));
  engine.run();
  ASSERT_EQ(received.size(), size_t(kProducers * kItems));
  std::vector<int> sorted = received;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < kProducers * kItems; ++i) EXPECT_EQ(sorted[i], i);
  EXPECT_EQ(engine.live_processes(), 0);
}

INSTANTIATE_TEST_SUITE_P(Capacities, ChannelSweepTest,
                         ::testing::Values(1, 2, 3, 7, 64));

}  // namespace
}  // namespace hmr::sim

namespace hmr::sim {
namespace {

TEST(ResourceTest, TryAcquireNonBlocking) {
  Engine engine;
  Resource r(engine, 2, "slots");
  EXPECT_TRUE(r.try_acquire(2));
  EXPECT_FALSE(r.try_acquire(1));
  r.release(2);
  EXPECT_TRUE(r.try_acquire(1));
  r.release(1);
}

TEST(ResourceTest, TryAcquireYieldsToQueuedWaiters) {
  Engine engine;
  Resource r(engine, 1, "slot");
  bool waiter_got_it = false;
  engine.spawn([](Engine& e, Resource& r) -> Task<> {
    co_await r.acquire();          // takes the only unit
    co_await e.delay(1.0);
    r.release();
    co_return;
  }(engine, r));
  engine.spawn([](Resource& r, bool& got) -> Task<> {
    co_await r.acquire();          // queues behind the holder
    got = true;
    r.release();
  }(r, waiter_got_it));
  engine.spawn([](Engine& e, Resource& r) -> Task<> {
    co_await e.delay(0.5);
    // A queued waiter exists: try_acquire must not jump the line even
    // after the release happens.
    EXPECT_FALSE(r.try_acquire(1));
    co_return;
  }(engine, r));
  engine.run();
  EXPECT_TRUE(waiter_got_it);
}

TEST(ChannelTest, TrySendRespectsCapacityAndClose) {
  Engine engine;
  Channel<int> ch(engine, 2);
  EXPECT_TRUE(ch.try_send(1));
  EXPECT_TRUE(ch.try_send(2));
  EXPECT_FALSE(ch.try_send(3));  // full
  EXPECT_EQ(ch.try_recv().value(), 1);
  EXPECT_TRUE(ch.try_send(3));
  ch.close();
  EXPECT_FALSE(ch.try_send(4));  // closed
}

TEST(ChannelTest, TrySendHandsOffToParkedReceiver) {
  Engine engine;
  Channel<int> ch(engine, 1);
  int got = -1;
  engine.spawn([](Channel<int>& ch, int& got) -> Task<> {
    auto v = co_await ch.recv();
    got = v.value_or(-2);
  }(ch, got));
  engine.spawn([](Channel<int>& ch) -> Task<> {
    EXPECT_TRUE(ch.try_send(42));
    co_return;
  }(ch));
  engine.run();
  EXPECT_EQ(got, 42);
}

// Senders parked on a full channel enter the buffer oldest first, one
// per consumed item, whether the item leaves through recv() or
// try_recv(). Senders park in the reverse of spawn order here.
TEST(ChannelTest, ParkedSendersAdmittedOldestFirst) {
  Engine engine;
  Channel<int> ch(engine, 1);
  ASSERT_TRUE(ch.try_send(0));
  std::vector<int> sent;
  for (int i = 1; i <= 3; ++i) {
    engine.spawn([](Engine& e, Channel<int>& ch, std::vector<int>& sent,
                    int value) -> Task<> {
      co_await e.delay(0.001 * double(value));
      co_await ch.send(value);
      sent.push_back(value);
    }(engine, ch, sent, 4 - i));
  }
  std::vector<int> got;
  engine.spawn([](Engine& e, Channel<int>& ch, std::vector<int>& got)
                   -> Task<> {
    co_await e.delay(1.0);
    got.push_back(ch.try_recv().value_or(-1));
    got.push_back((co_await ch.recv()).value_or(-1));
    got.push_back(ch.try_recv().value_or(-1));
    got.push_back((co_await ch.recv()).value_or(-1));
  }(engine, ch, got));
  engine.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sent, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(ch.empty());
  EXPECT_EQ(engine.live_processes(), 0);
}

TEST(ChannelTest, TryRecvDrainsBuffer) {
  Engine engine;
  Channel<int> ch(engine, 4);
  EXPECT_FALSE(ch.try_recv().has_value());
  EXPECT_TRUE(ch.try_send(7));
  EXPECT_EQ(ch.try_recv().value(), 7);
  EXPECT_FALSE(ch.try_recv().has_value());
}

}  // namespace
}  // namespace hmr::sim

#include "sim/trace.h"

namespace hmr::sim {
namespace {

TEST(TracerTest, RecordsSpansWithSimTime) {
  Engine engine;
  Tracer tracer(engine);
  engine.set_tracer(&tracer);
  engine.spawn([](Engine& e) -> Task<> {
    auto span = maybe_span(e.tracer(), "host0", "map", "map_0");
    co_await e.delay(2.0);
  }(engine));
  engine.run();
  EXPECT_EQ(tracer.size(), 1u);
  const std::string json = tracer.to_chrome_json();
  EXPECT_NE(json.find("\"name\":\"map_0\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2000000.000"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"host0\""), std::string::npos);
}

TEST(TracerTest, NullTracerIsFree) {
  Engine engine;
  engine.spawn([](Engine& e) -> Task<> {
    auto span = maybe_span(e.tracer(), "x", "y", "z");  // tracer() == null
    co_await e.delay(1.0);
  }(engine));
  engine.run();
  EXPECT_EQ(engine.tracer(), nullptr);
}

TEST(TracerTest, JsonEscapesSpecials) {
  Engine engine;
  Tracer tracer(engine);
  tracer.instant("tr\"ack", "cat", "na\\me\nline");
  const std::string json = tracer.to_chrome_json();
  EXPECT_NE(json.find("tr\\\"ack"), std::string::npos);
  EXPECT_NE(json.find("na\\\\me\\nline"), std::string::npos);
}

// Regression tests for Span teardown ordering. In the usual scope order
// (`Engine e; Tracer t(e);`) the tracer dies before the engine, and the
// engine then destroys detached frames whose Spans still point at the
// dead tracer. The span must detect this (via the engine's tracer
// identity) and drop the record instead of touching freed memory.
TEST(SpanLifetimeTest, SpanInLeakedFrameSurvivesTracerDeath) {
  {
    Engine engine;
    Tracer tracer(engine);
    engine.set_tracer(&tracer);
    engine.spawn([](Engine& e) -> Task<> {
      auto span = maybe_span(e.tracer(), "host", "cat", "stuck");
      co_await e.delay(1e9);  // never resumed; frame dies in ~Engine
    }(engine));
    engine.run_until(1.0);
    EXPECT_EQ(engine.live_processes(), 1);
  }  // ~Tracer detaches, then ~Engine destroys the frame: span is a no-op
  SUCCEED();
}

TEST(SpanLifetimeTest, TracerDetachesFromEngineOnDestruction) {
  Engine engine;
  {
    Tracer tracer(engine);
    engine.set_tracer(&tracer);
    EXPECT_EQ(engine.tracer(), &tracer);
  }
  EXPECT_EQ(engine.tracer(), nullptr);
}

TEST(SpanLifetimeTest, ReplacedTracerDoesNotReceiveStaleSpans) {
  Engine engine;
  Tracer first(engine);
  Tracer second(engine);
  engine.set_tracer(&first);
  {
    auto span = first.span("t", "c", "from_first");
    // The tracer is swapped while the span is open; on close, the span
    // must record to neither (its tracer is no longer installed).
    engine.set_tracer(&second);
  }
  EXPECT_EQ(first.size(), 0u);
  EXPECT_EQ(second.size(), 0u);
  engine.set_tracer(nullptr);
}

TEST(SpanLifetimeTest, SpanStillRecordsInNormalOperation) {
  Engine engine;
  Tracer tracer(engine);
  engine.set_tracer(&tracer);
  engine.spawn([](Engine& e) -> Task<> {
    auto span = maybe_span(e.tracer(), "host", "cat", "work");
    co_await e.delay(2.0);
  }(engine));
  engine.run();
  ASSERT_EQ(tracer.size(), 1u);
  const std::string json = tracer.to_chrome_json();
  EXPECT_NE(json.find("\"name\":\"work\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2000000.000"), std::string::npos);
}

TEST(TracerTest, InterningKeepsLabelsStable) {
  Engine engine;
  Tracer tracer(engine);
  // Pass labels through short-lived buffers: the tracer must own copies.
  for (int i = 0; i < 3; ++i) {
    const std::string track = "track" + std::to_string(i % 2);
    tracer.instant(track, "cat", "evt");
  }
  const std::string json = tracer.to_chrome_json();
  EXPECT_NE(json.find("\"name\":\"track0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"track1\""), std::string::npos);
  EXPECT_EQ(tracer.size(), 3u);
}

TEST(TracerTest, TracksGetStableThreadIds) {
  Engine engine;
  Tracer tracer(engine);
  tracer.instant("b", "c", "1");
  tracer.instant("a", "c", "2");
  tracer.instant("b", "c", "3");
  const std::string json = tracer.to_chrome_json();
  // Two thread_name metadata records, three instants.
  size_t count = 0, pos = 0;
  while ((pos = json.find("thread_name", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, 2u);
}

}  // namespace
}  // namespace hmr::sim

namespace hmr::sim {
namespace {

TEST(EngineTest, MaxEventsSurfacesCleanOverrun) {
  Engine engine;
  engine.set_max_events(100);
  engine.spawn([](Engine& e) -> Task<> {
    while (true) co_await e.delay(0.001);  // would run forever
  }(engine));
  engine.run();  // returns instead of aborting
  EXPECT_TRUE(engine.overrun());
  EXPECT_EQ(engine.events_dispatched(), 100u);
  EXPECT_GT(engine.pending_events(), 0u);   // runaway still queued
  EXPECT_EQ(engine.live_processes(), 1);    // the loop never finished
  EXPECT_FALSE(engine.step());              // valve stays shut
}

TEST(EngineTest, RunUntilStopsAtOverrunWithoutTimeJump) {
  Engine engine;
  engine.set_max_events(10);
  engine.spawn([](Engine& e) -> Task<> {
    while (true) co_await e.delay(1.0);
  }(engine));
  engine.run_until(100.0);
  EXPECT_TRUE(engine.overrun());
  // Time must not jump to the deadline past still-queued events.
  EXPECT_LT(engine.now(), 100.0);
}

TEST(EngineTest, NoOverrunWhenUnderLimit) {
  Engine engine;
  engine.set_max_events(1000);
  engine.spawn([](Engine& e) -> Task<> { co_await e.delay(1.0); }(engine));
  engine.run();
  EXPECT_FALSE(engine.overrun());
  EXPECT_EQ(engine.live_processes(), 0);
}

TEST(EngineTest, DetachedExceptionAborts) {
  Engine engine;
  engine.spawn([](Engine& e) -> Task<> {
    co_await e.delay(0.1);
    throw std::runtime_error("unhandled in daemon");
  }(engine));
  EXPECT_DEATH(engine.run(), "detached sim task threw");
}

TEST(EngineTest, NegativeDelayAborts) {
  Engine engine;
  // Tasks are lazy: the bad delay fires when the engine runs the task.
  engine.spawn([](Engine& e) -> Task<> { co_await e.delay(-1.0); }(engine));
  EXPECT_DEATH(engine.run(), "negative delay");
}

TEST(ResourceTest, OverReleaseAborts) {
  Engine engine;
  Resource r(engine, 1, "x");
  EXPECT_DEATH(r.release(), "over-release");
}

TEST(ChannelTest, SendOnClosedAborts) {
  Engine engine;
  Channel<int> ch(engine, 1);
  ch.close();
  engine.spawn([](Channel<int>& ch) -> Task<> { co_await ch.send(1); }(ch));
  EXPECT_DEATH(engine.run(), "closed channel");
}

}  // namespace
}  // namespace hmr::sim

namespace hmr::sim {
namespace {

std::int64_t heap_bytes() {
  return g_heap_bytes.load(std::memory_order_relaxed);
}
std::int64_t heap_allocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

// An idle primitive costs only its own object: the simulator keeps
// several per (map, reduce) pair alive at once (DESIGN.md §6.3).
TEST(SimMemoryTest, IdlePrimitivesHoldNoHeap) {
  Engine engine;

  // Construction allocates nothing beyond the objects themselves.
  std::int64_t before = heap_allocs();
  {
    Channel<int> channel(engine, 64);
    Event event(engine);
    Resource resource(engine, 4, "disk");
    WaitGroup group(engine);
    mapred::FetchInbox inbox(engine);
    EXPECT_EQ(heap_allocs() - before, 0);
  }

  // A channel that buffered items gives the buffer back once drained.
  Channel<int> channel(engine, 64);
  before = heap_bytes();
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(channel.try_send(i));
  EXPECT_GT(heap_bytes(), before);
  for (int i = 0; i < 40; ++i) EXPECT_EQ(channel.try_recv(), i);
  EXPECT_EQ(heap_bytes() - before, 0);

  // Park/unpark cycles on Event and Resource allocate nothing once the
  // frames exist and the event queue has reached its working size.
  Event event(engine);
  Resource resource(engine, 1, "slot");
  int woken = 0;
  engine.spawn([](Engine& e, Event& ev) -> Task<> {
    for (int i = 0; i < 100; ++i) {
      co_await e.delay(1.0);
      ev.set();
      ev.reset();
    }
  }(engine, event));
  engine.spawn([](Event& ev, int& woken) -> Task<> {
    for (int i = 0; i < 100; ++i) {
      co_await ev.wait();
      ++woken;
    }
  }(event, woken));
  for (int i = 0; i < 2; ++i) {
    engine.spawn([](Engine& e, Resource& r) -> Task<> {
      for (int j = 0; j < 100; ++j) {
        co_await r.acquire();
        co_await e.delay(1.0);
        r.release();
      }
    }(engine, resource));
  }
  engine.run_until(2.5);
  before = heap_allocs();
  const std::int64_t bytes = heap_bytes();
  engine.run_until(50.5);
  EXPECT_EQ(heap_allocs() - before, 0);
  EXPECT_EQ(heap_bytes() - bytes, 0);
  EXPECT_EQ(woken, 50);
  engine.run();
  EXPECT_EQ(woken, 100);
  EXPECT_EQ(engine.live_processes(), 0);
}

}  // namespace
}  // namespace hmr::sim
