// Tests for the allocation-free event core: FIFO determinism, O(1)
// cancellation via generation tags, the Timer rearm fast path, the
// equal-time batch drain (via the loop.batch_size histogram), the
// steady-state zero-allocation guarantee (via a counting operator-new
// hook), and a golden-value regression pinning simulation output to the
// seed implementation bit for bit.
#include <atomic>
#include <cstdlib>
#include <functional>
#include <map>
#include <new>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "cc/const_window.h"
#include "exp/scenario.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "util/rng.h"

// --- counting operator-new hook (whole test binary) ---------------------

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// The hooks are noinline on purpose: when gcc 12 inlines these bodies it
// pairs the malloc in operator new with the free in operator delete across
// call sites and raises a spurious -Wmismatched-new-delete under -Werror
// (and an inlined counter could be elided outright).
__attribute__((noinline)) void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace nimbus {
namespace {

using sim::EventCallback;
using sim::EventId;
using sim::EventLoop;
using sim::Timer;

std::uint64_t alloc_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

// --- EventCallback ------------------------------------------------------

TEST(EventCallbackTest, InvokesSmallCaptures) {
  int x = 0;
  EventCallback cb([&x]() { ++x; });
  cb();
  EXPECT_EQ(x, 1);
}

// A callable that would need a heap cell does not compile: oversized and
// non-trivially-copyable captures are rejected at the call site.
TEST(EventCallbackTest, RejectsOversizedOrNonTriviallyCopyableCallables) {
  struct Fits {
    int* counter;
    double pad[6];
    void operator()() const { ++*counter; }
  };
  struct Oversized {
    double payload[8];
    void operator()() const {}
  };
  struct NotTriviallyCopyable {
    std::vector<int> v;
    void operator()() const {}
  };
  static_assert(sizeof(Fits) == EventCallback::kInlineBytes);
  static_assert(std::is_constructible_v<EventCallback, Fits>);
  static_assert(!std::is_constructible_v<EventCallback, Oversized>);
  static_assert(!std::is_constructible_v<EventCallback, NotTriviallyCopyable>);
  static_assert(!std::is_constructible_v<EventCallback, std::function<void()>>);

  int count = 0;
  EventCallback cb(Fits{&count, {}});
  cb();
  EXPECT_EQ(count, 1);
}

// Copying is a plain 64-byte copy; both copies hold the same callable.
TEST(EventCallbackTest, TriviallyCopyable) {
  static_assert(std::is_trivially_copyable_v<EventCallback>);
  static_assert(sizeof(EventCallback) == 64);
  int calls = 0;
  EventCallback a([&calls]() { ++calls; });
  EventCallback b = a;
  a();
  b();
  EXPECT_EQ(calls, 2);
}

// --- ordering & cancellation -------------------------------------------

TEST(EventCoreTest, SameTimeFiresInSchedulingOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    loop.schedule(from_ms(5), [&order, i]() { order.push_back(i); });
  }
  loop.run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

// A phase start wakes every flow at one deadline.  The loop must drain an
// equal-time run as one sorted batch (detect the run, unlink it in one
// pass, sort by seq) rather than re-scanning the bucket once per event,
// which is O(k^2) in the burst size.  loop.batch_size observes each batch
// once, counting the run's first event (fired before the run is detected),
// in log2 buckets: bucket k holds sizes [2^(k-1), 2^k).  So a lone event
// is no batch, a pair is one batch of 2 (bucket 2), and a 4096-event burst
// is exactly one batch of 4096 (bucket 13).
TEST(EventCoreTest, SameTimeBurstDrainsAsOneBatch) {
  obs::MetricsRegistry metrics;
  EventLoop loop;
  loop.attach_metrics(&metrics);
  constexpr int kBurst = 4096;
  std::vector<int> order;
  order.reserve(kBurst + 3);
  loop.schedule(from_ms(1), [&order]() { order.push_back(-3); });
  loop.schedule(from_ms(2), [&order]() { order.push_back(-2); });
  loop.schedule(from_ms(2), [&order]() { order.push_back(-1); });
  for (int i = 0; i < kBurst; ++i) {
    loop.schedule(from_ms(5), [&order, i]() { order.push_back(i); });
  }
  loop.run_until(from_sec(1));

  ASSERT_EQ(order.size(), static_cast<std::size_t>(kBurst) + 3);
  for (int i = 0; i < kBurst + 3; ++i) {
    ASSERT_EQ(order[static_cast<std::size_t>(i)], i - 3);
  }
  std::map<std::string, double> snap;
  for (const auto& [name, value] : metrics.snapshot()) snap[name] = value;
  EXPECT_EQ(snap["loop.events_fired"], kBurst + 3);
  std::map<std::string, double> batches;
  for (const auto& [name, value] : snap) {
    if (name.rfind("loop.batch_size.", 0) == 0) batches[name] = value;
  }
  const std::map<std::string, double> expected = {
      {"loop.batch_size.count", 2},
      {"loop.batch_size.p2_2", 1},    // the pair at 2 ms
      {"loop.batch_size.p2_13", 1}};  // the 4096-event burst at 5 ms
  EXPECT_EQ(batches, expected);
}

// Baseline for the lazy RTO re-arm: every ACK re-arms the flow's RTO, and
// the RTO (>= 200 ms) lies past the wheel's ~134 ms horizon, so today each
// ACK costs one far-heap insert.  A 40-packet window over 12 Mb/s for 5 s;
// a change to how the RTO is queued re-pins far_heap_inserts here.
TEST(EventCoreTest, RtoRearmFarHeapInsertsArePinned) {
  obs::Telemetry telemetry(obs::Mode::kCounters);
  sim::Network net(12e6, 1 << 20);
  net.attach_telemetry(&telemetry);
  sim::TransportFlow::Config cfg;
  cfg.id = 1;
  cfg.rtt_prop = from_ms(20);
  net.add_flow(cfg, std::make_unique<cc::ConstWindow>(40));
  net.run_until(from_sec(5));

  std::map<std::string, double> snap;
  for (const auto& [name, value] : telemetry.metrics.snapshot()) {
    snap[name] = value;
  }
  EXPECT_EQ(snap["transport.acks"], 4980);
  EXPECT_EQ(snap["loop.far_heap_inserts"], 4981);  // + the first arm
}

TEST(EventCoreTest, CallbackCanCancelLaterSameTimeEvent) {
  // The drain extracts the whole equal-time run before firing it; a
  // callback cancelling a later member of the same run must still win.
  EventLoop loop;
  std::vector<int> order;
  std::vector<EventId> ids(4, 0);
  ids[1] = loop.schedule(from_ms(5), [&]() {
    order.push_back(1);
    loop.cancel(ids[2]);
  });
  ids[2] = loop.schedule(from_ms(5), [&order]() { order.push_back(2); });
  ids[3] = loop.schedule(from_ms(5), [&order]() { order.push_back(3); });
  loop.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 3);
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(EventCoreTest, CallbackCanRescheduleLaterSameTimeEvent) {
  // Rescheduling a later same-time event from inside the run gives it a
  // fresh FIFO position after everything already queued at that time.
  EventLoop loop;
  std::vector<int> order;
  std::vector<EventId> ids(4, 0);
  ids[1] = loop.schedule(from_ms(5), [&]() {
    order.push_back(1);
    ids[2] = loop.reschedule(ids[2], from_ms(5));  // same time, new position
  });
  ids[2] = loop.schedule(from_ms(5), [&order]() { order.push_back(2); });
  ids[3] = loop.schedule(from_ms(5), [&order]() { order.push_back(3); });
  loop.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 3);
  EXPECT_EQ(order[2], 2);
}

TEST(EventCoreTest, SameTimeScheduleFromCallbackFiresAfterRun) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule(from_ms(5), [&]() {
    order.push_back(1);
    loop.schedule(from_ms(5), [&order]() { order.push_back(9); });
  });
  loop.schedule(from_ms(5), [&order]() { order.push_back(2); });
  loop.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 9);
}

TEST(EventCoreTest, StopMidBurstKeepsRemainderPending) {
  // stop() from inside an equal-time run: the unfired remainder must
  // survive (re-linked into the wheel) and fire on the next run_until.
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule(from_ms(5), [&loop, &order, i]() {
      order.push_back(i);
      if (i == 3) loop.stop();
    });
  }
  loop.run_until(from_sec(1));
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(loop.pending_events(), 6u);
  loop.run_until(from_sec(1));
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventCoreTest, CancelledSameTimeEventsAreSkipped) {
  EventLoop loop;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(
        loop.schedule(from_ms(5), [&order, i]() { order.push_back(i); }));
  }
  for (int i = 1; i < 10; i += 2) loop.cancel(ids[i]);
  EXPECT_EQ(loop.pending_events(), 5u);
  loop.run();
  ASSERT_EQ(order.size(), 5u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<int>(2 * i));
  }
}

TEST(EventCoreTest, StaleIdCannotCancelRecycledSlot) {
  EventLoop loop;
  bool a_ran = false, b_ran = false;
  const EventId a = loop.schedule(from_ms(1), [&a_ran]() { a_ran = true; });
  loop.cancel(a);
  // b reuses a's slot (single-slot free list).
  const EventId b = loop.schedule(from_ms(2), [&b_ran]() { b_ran = true; });
  loop.cancel(a);  // stale generation: must not touch b
  loop.cancel(a);  // double cancel: no-op
  loop.run();
  EXPECT_FALSE(a_ran);
  EXPECT_TRUE(b_ran);
  EXPECT_EQ(b & 0xfffffu, a & 0xfffffu);  // recycled the same slot
  EXPECT_NE(b, a);                        // under a fresh id
}

TEST(EventCoreTest, CancelAfterFireIsNoop) {
  EventLoop loop;
  int fired = 0;
  const EventId id = loop.schedule(from_ms(1), [&fired]() { ++fired; });
  loop.run_until(from_ms(1));
  EXPECT_EQ(fired, 1);
  loop.cancel(id);  // must not disturb anything
  int later = 0;
  loop.schedule(from_ms(2), [&later]() { ++later; });
  loop.run_until(from_ms(2));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(later, 1);
}

TEST(EventCoreTest, RescheduleTakesFreshFifoPosition) {
  EventLoop loop;
  std::vector<char> order;
  const EventId x = loop.schedule(from_ms(1), [&order]() { order.push_back('x'); });
  loop.schedule(from_ms(5), [&order]() { order.push_back('y'); });
  loop.reschedule(x, from_ms(5));  // same time as y, but scheduled later
  loop.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 'y');
  EXPECT_EQ(order[1], 'x');
}

TEST(EventCoreTest, SlotPoolIsRecycled) {
  EventLoop loop;
  int count = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 10; ++i) {
      loop.schedule_in(from_ms(1), [&count]() { ++count; });
    }
    loop.run_until(loop.now() + from_ms(2));
  }
  EXPECT_EQ(count, 500);
  // All rounds after the first reuse the same 10 slots.
  EXPECT_LE(loop.allocated_slots(), 10u);
}

// --- Timer --------------------------------------------------------------

void count_fire(void* counter) { ++*static_cast<int*>(counter); }

TEST(TimerTest, RearmWhileArmedMovesDeadline) {
  EventLoop loop;
  int fired = 0;
  Timer t(&loop, &fired, count_fire);
  t.arm(from_ms(10));
  t.arm(from_ms(30));  // fast path: rearm supersedes the 10 ms deadline
  EXPECT_TRUE(t.armed());
  loop.run_until(from_ms(20));
  EXPECT_EQ(fired, 0);  // first arm was superseded
  EXPECT_TRUE(t.armed());
  loop.run_until(from_ms(29));
  EXPECT_EQ(fired, 0);
  loop.run_until(from_ms(30));
  EXPECT_EQ(fired, 1);  // fires exactly at the re-armed deadline
  EXPECT_FALSE(t.armed());
  loop.run_until(from_ms(40));
  EXPECT_EQ(fired, 1);
}

TEST(TimerTest, RearmFromInsideCallback) {
  struct Ticker {
    Timer timer;
    int ticks = 0;
    explicit Ticker(EventLoop* loop)
        : timer(loop, this, &Timer::method<Ticker, &Ticker::tick>) {}
    void tick() {
      if (++ticks < 5) timer.arm_in(from_ms(10));
    }
  };
  EventLoop loop;
  Ticker ticker(&loop);
  ticker.timer.arm_in(from_ms(10));
  loop.run_until(from_sec(1));
  EXPECT_EQ(ticker.ticks, 5);
}

TEST(TimerTest, CancelRearmStress) {
  // Deterministic stress: per round, every timer gets a random sequence of
  // arm/rearm/cancel ops with deadlines inside the round; exactly the
  // timers whose last op was an arm fire, once each.
  constexpr int kTimers = 16;
  constexpr int kRounds = 200;
  EventLoop loop;
  util::Rng rng(1234);
  std::vector<std::unique_ptr<Timer>> timers;
  std::vector<int> fires(kTimers, 0);
  for (int i = 0; i < kTimers; ++i) {
    timers.push_back(std::make_unique<Timer>(
        &loop, &fires[static_cast<std::size_t>(i)], count_fire));
  }
  int expected_total = 0;
  for (int round = 0; round < kRounds; ++round) {
    const TimeNs round_end = loop.now() + from_ms(100);
    for (int i = 0; i < kTimers; ++i) {
      const int ops = 1 + static_cast<int>(rng.uniform() * 3);
      bool armed = false;
      for (int op = 0; op < ops; ++op) {
        if (rng.uniform() < 0.3) {
          timers[static_cast<std::size_t>(i)]->cancel();
          armed = false;
        } else {
          const TimeNs delay =
              1 + static_cast<TimeNs>(rng.uniform() * to_sec(from_ms(90)) *
                                      static_cast<double>(kNanosPerSec));
          timers[static_cast<std::size_t>(i)]->arm_in(delay);
          armed = true;
        }
      }
      if (armed) ++expected_total;
    }
    loop.run_until(round_end);
  }
  int total = 0;
  for (int f : fires) total += f;
  EXPECT_EQ(total, expected_total);
  EXPECT_EQ(loop.pending_events(), 0u);
}

// --- zero-allocation guarantee -----------------------------------------
//
// These two pin the mechanism behind the core's steady-state and timer-
// rearm throughput: no per-event allocator or hash-map traffic.

TEST(EventCoreTest, SteadyStateSchedulingDoesNotAllocate) {
  EventLoop loop;
  int count = 0;
  const auto pattern = [&]() {
    // Mixed steady-state load: plain schedule+fire, schedule+cancel, and
    // an SBO-sized capture (pointer + 40 payload bytes).
    struct Payload {
      int* counter;
      double pad[5];
      void operator()() const { ++*counter; }
    };
    for (int i = 0; i < 256; ++i) {
      loop.schedule_in(from_ms(1) + i, Payload{&count, {}});
      const EventId id = loop.schedule_in(from_ms(2) + i, Payload{&count, {}});
      loop.cancel(id);
    }
    loop.run_until(loop.now() + from_ms(10));
  };
  pattern();  // warm-up: grows heap/slot vectors to their high-water mark
  const std::uint64_t before = alloc_count();
  pattern();
  EXPECT_EQ(alloc_count(), before) << "steady-state schedule/cancel must "
                                      "perform no heap allocations";
}

TEST(EventCoreTest, TimerRearmDoesNotAllocate) {
  EventLoop loop;
  int fired = 0;
  Timer t(&loop, &fired, count_fire);
  const auto pattern = [&]() {
    for (int i = 0; i < 256; ++i) {
      // Typical RTO usage: rearm while armed on every ACK.
      t.arm_in(from_ms(200));
    }
    loop.run_until(loop.now() + from_sec(1));
  };
  pattern();
  const std::uint64_t before = alloc_count();
  pattern();
  EXPECT_EQ(alloc_count(), before) << "Timer::arm_in rearm must perform no "
                                      "heap allocations";
  EXPECT_EQ(fired, 2);  // one fire per pattern invocation
}

// --- golden regression ---------------------------------------------------

// Exact output of this scenario under the seed event core (captured from
// commit 80dcab9's build; see ISSUE 2).  Any event reordering, RNG drift,
// or floating-point change in the rewrite shows up here as a hard failure.
TEST(EventCoreTest, GoldenScenarioBitIdenticalToSeed) {
  exp::ScenarioSpec spec;
  spec.name = "golden";
  spec.mu_bps = 48e6;
  spec.rtt = from_ms(50);
  spec.buffer_bdp = 2.0;
  spec.duration = from_sec(20);
  spec.protagonist.use_nimbus_config = true;
  spec.cross.push_back(exp::CrossSpec::poisson(8e6, 2));
  spec.cross.push_back(exp::CrossSpec::flow("cubic", 3, from_sec(5)));

  exp::ScenarioRun run = exp::run_scenario(spec);
  auto& net = *run.built.net;
  EXPECT_EQ(net.loop().processed_events(), 191116u);
  EXPECT_EQ(net.recorder().delivered(1).total(), 40747500);
  EXPECT_EQ(net.recorder().delivered(2).total(), 19888500);
  EXPECT_EQ(net.recorder().delivered(3).total(), 58378500);
  EXPECT_EQ(net.link().dropped_packets(), 1339u);
  const auto& q = net.recorder().probed_queue_delay();
  EXPECT_EQ(q.size(), 2000u);
  EXPECT_EQ(q.mean_in(0, spec.duration).value(), 55.012256128064031);
  const auto buckets =
      net.recorder().rtt_samples(1).bucket_means(0, spec.duration,
                                                 from_sec(5));
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 62.040456583453654);
  EXPECT_EQ(buckets[1], 111.60520900085015);
  EXPECT_EQ(buckets[2], 106.46282495072045);
  EXPECT_EQ(buckets[3], 123.08527478603838);
  EXPECT_EQ(run.mode_log->series().size(), 2000u);
  // Per-ACK RTT series are recorded for the tracked protagonist only; the
  // untracked Cubic cross flow keeps byte counters but no RTT series.
  EXPECT_FALSE(net.recorder().rtt_samples(1).empty());
  EXPECT_TRUE(net.recorder().rtt_samples(3).empty());
}

// Multi-flow loss-heavy companion (ISSUE 3): random link loss plus three
// cross flows exercise the ring transport's SACK holes, retransmissions,
// and scoreboard growth under contention.  Values originally captured from
// the PR 2 build (std::map/std::set transport, deque rate sampler, map
// recorder); re-pinned in PR 6 when the detector switched from symmetric
// to periodic Hann (the eta shift flips a few Nimbus mode decisions, which
// changes the protagonist's trajectory in this contended scenario).
TEST(EventCoreTest, GoldenLossHeavyScenarioBitIdenticalToPr2) {
  exp::ScenarioSpec spec;
  spec.name = "golden-lossy";
  spec.mu_bps = 48e6;
  spec.rtt = from_ms(40);
  spec.buffer_bdp = 0.8;
  spec.random_loss = 0.003;
  spec.duration = from_sec(20);
  spec.protagonist.use_nimbus_config = true;
  spec.cross.push_back(exp::CrossSpec::flow("cubic", 2));
  spec.cross.push_back(exp::CrossSpec::flow("reno", 3, from_sec(4)));
  spec.cross.push_back(exp::CrossSpec::poisson(6e6, 4));

  exp::ScenarioRun run = exp::run_scenario(spec);
  auto& net = *run.built.net;
  EXPECT_EQ(net.loop().processed_events(), 186158u);
  EXPECT_EQ(net.recorder().delivered(1).total(), 55482000);
  EXPECT_EQ(net.recorder().delivered(2).total(), 23115000);
  EXPECT_EQ(net.recorder().delivered(3).total(), 12406500);
  EXPECT_EQ(net.recorder().delivered(4).total(), 15246000);
  EXPECT_EQ(net.link().dropped_packets(), 761u);
  EXPECT_EQ(
      net.recorder().probed_queue_delay().mean_in(0, spec.duration).value(),
      7.7336168084042018);
  const auto buckets = net.recorder().rtt_samples(1).bucket_means(
      0, spec.duration, from_sec(5));
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 53.134155924069844);
  EXPECT_EQ(buckets[1], 45.344368198615754);
  EXPECT_EQ(buckets[2], 47.060538747584118);
  EXPECT_EQ(buckets[3], 51.510750752522938);
  EXPECT_EQ(run.built.protagonist->lost_packets(), 247u);
  EXPECT_EQ(run.built.protagonist->rto_count(), 0u);
}

}  // namespace
}  // namespace nimbus
