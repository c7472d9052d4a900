// Tests for the PR 3 allocation-free ACK-path data structures: SeqRing /
// SeqScoreboard property tests, randomized ring-vs-deque RateSampler
// equivalence, golden transport regressions (loss, retransmit, RTO
// backoff, finite-flow completion, window growth past the initial ring
// capacity) pinned to values captured from the PR 2 std::map/std::set
// implementation, and the steady-state zero-allocation guarantee (via the
// same counting operator-new hook as event_loop_test.cc).
#include <atomic>
#include <cstdlib>
#include <new>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "cc/const_window.h"
#include "cc/cubic.h"
#include "cc/reno.h"
#include "oracles/reference_rate_sampler.h"
#include "sim/network.h"
#include "sim/rate_sampler.h"
#include "sim/seq_ring.h"
#include "traffic/flow_workload.h"
#include "util/ring_deque.h"
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

namespace nimbus::sim {
namespace {

std::uint64_t alloc_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

// FNV-1a over the per-ACK (time, rtt) stream: any divergence in ACK
// content, ordering, or timing from the seed behavior changes the hash.
struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
};

// --- SeqRing ------------------------------------------------------------

TEST(SeqRingTest, InsertFindErase) {
  SeqRing<int> ring(4);
  EXPECT_TRUE(ring.empty());
  ring.insert(10, 100);
  ring.insert(12, 120);
  ring.insert(11, 110);
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.lowest(), 10u);
  EXPECT_EQ(ring.upper(), 13u);
  ASSERT_NE(ring.find(11), nullptr);
  EXPECT_EQ(*ring.find(11), 110);
  EXPECT_EQ(ring.find(13), nullptr);
  EXPECT_TRUE(ring.erase(11));
  EXPECT_FALSE(ring.erase(11));
  EXPECT_EQ(ring.find(11), nullptr);
  EXPECT_EQ(ring.size(), 2u);
}

TEST(SeqRingTest, BoundsStayTightAndGrowthPreservesContents) {
  SeqRing<std::uint64_t> ring(4);
  // Fill a window far beyond the initial capacity.
  for (std::uint64_t s = 100; s < 400; ++s) ring.insert(s, s * 2);
  EXPECT_EQ(ring.size(), 300u);
  EXPECT_GE(ring.capacity(), 300u);
  for (std::uint64_t s = 100; s < 400; ++s) {
    ASSERT_NE(ring.find(s), nullptr) << s;
    EXPECT_EQ(*ring.find(s), s * 2);
  }
  // Erase the edges: bounds must tighten so the span stays the live window.
  for (std::uint64_t s = 100; s < 150; ++s) ring.erase(s);
  for (std::uint64_t s = 399; s >= 390; --s) ring.erase(s);
  EXPECT_EQ(ring.lowest(), 150u);
  EXPECT_EQ(ring.upper(), 390u);
  // Re-inserting below lowest (a retransmission of an old sequence) works.
  ring.insert(149, 999);
  EXPECT_EQ(ring.lowest(), 149u);
  EXPECT_EQ(*ring.find(149), 999u);
}

TEST(SeqRingTest, MatchesStdMapUnderRandomWindowChurn) {
  // The transport's access pattern, randomized: insert at the frontier,
  // erase the lowest (cumulative ACK), erase random members (SACK),
  // re-insert erased ones (retransmit), iterate ranges.
  SeqRing<int> ring(8);
  std::map<std::uint64_t, int> model;
  util::Rng rng(99);
  std::uint64_t frontier = 0;
  std::vector<std::uint64_t> holes;  // erased below the frontier
  for (int step = 0; step < 20000; ++step) {
    const double r = rng.uniform();
    if (r < 0.4 || model.empty()) {
      ring.insert(frontier, static_cast<int>(frontier));
      model.emplace(frontier, static_cast<int>(frontier));
      ++frontier;
    } else if (r < 0.6) {
      const auto lo = model.begin()->first;
      EXPECT_EQ(ring.lowest(), lo);
      ring.erase(lo);
      model.erase(model.begin());
    } else if (r < 0.8) {
      auto it = model.begin();
      std::advance(it, rng.uniform_int(
                           0, static_cast<int>(model.size()) - 1));
      holes.push_back(it->first);
      ring.erase(it->first);
      model.erase(it);
    } else if (!holes.empty()) {
      const std::uint64_t s = holes.back();
      holes.pop_back();
      if (model.count(s) == 0) {
        ring.insert(s, -static_cast<int>(s));
        model.emplace(s, -static_cast<int>(s));
      }
    }
    ASSERT_EQ(ring.size(), model.size());
    if (!model.empty()) {
      ASSERT_EQ(ring.lowest(), model.begin()->first);
      ASSERT_EQ(ring.upper(), model.rbegin()->first + 1);
    }
  }
  // Final sweep: identical contents in identical (ascending) order.
  std::vector<std::pair<std::uint64_t, int>> from_ring;
  if (!ring.empty()) {
    ring.for_each_in(ring.lowest(), ring.upper(),
                     [&](std::uint64_t s, int& v) {
                       from_ring.emplace_back(s, v);
                     });
  }
  std::vector<std::pair<std::uint64_t, int>> from_model(model.begin(),
                                                        model.end());
  EXPECT_EQ(from_ring, from_model);
}

// --- SeqScoreboard ------------------------------------------------------

TEST(SeqScoreboardTest, MatchesStdSetAcrossGrowth) {
  SeqScoreboard sb(64);
  std::set<std::uint64_t> model;
  util::Rng rng(7);
  std::uint64_t base = 0;  // the receiver's rcv_next
  for (int step = 0; step < 50000; ++step) {
    if (rng.uniform() < 0.5) {
      // Out-of-order arrival, sometimes far past the current capacity.
      const std::uint64_t seq =
          base + 1 +
          static_cast<std::uint64_t>(rng.uniform() * rng.uniform() * 4096);
      sb.ensure_span(base, seq);
      sb.set(seq);
      model.insert(seq);
    } else {
      // In-order arrival: advance the cumulative point over set bits.
      ++base;
      while (!model.empty() && sb.test(base)) {
        EXPECT_EQ(*model.begin(), base);
        sb.clear(base);
        model.erase(model.begin());
        ++base;
      }
    }
    ASSERT_EQ(sb.count(), model.size());
    if (!model.empty()) {
      ASSERT_TRUE(sb.test(*model.begin()));
    }
  }
}

// --- RateSampler ring vs deque reference --------------------------------

TEST(RateSamplerEquivalenceTest, RandomizedBitIdenticalToDeque) {
  RateSampler ring;
  oracles::ReferenceRateSampler deque;
  util::Rng rng(31);
  TimeNs sent = 0;
  TimeNs acked = from_ms(50);
  // 40000 acks: crosses every ring growth step and the 16384-sample
  // history cap (where the ring starts overwriting and the deque pops).
  for (int i = 0; i < 40000; ++i) {
    sent += static_cast<TimeNs>(rng.uniform() * 2e6);
    acked += static_cast<TimeNs>(rng.uniform() * 2e6);
    const auto bytes = static_cast<std::uint32_t>(rng.uniform_int(100, 3000));
    ring.on_ack(sent, acked, bytes);
    deque.on_ack(sent, acked, bytes);
    ASSERT_EQ(ring.history_size(), deque.history_size());
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 20000));
    const auto a = ring.rates(n);
    const auto b = deque.rates(n);
    ASSERT_EQ(a.valid, b.valid) << "ack " << i << " n " << n;
    ASSERT_EQ(a.send_bps, b.send_bps) << "ack " << i << " n " << n;
    ASSERT_EQ(a.recv_bps, b.recv_bps) << "ack " << i << " n " << n;
    const double cwnd = rng.uniform(0, 1e6);
    const auto aw = ring.rates_over_window(cwnd, 1500);
    const auto bw = deque.rates_over_window(cwnd, 1500);
    ASSERT_EQ(aw.valid, bw.valid);
    ASSERT_EQ(aw.send_bps, bw.send_bps);
  }
}

// --- golden transport regressions ---------------------------------------
//
// Values captured from the PR 2 build (std::map outstanding tracking,
// std::set scoreboard, deque rate sampler) on the same scenarios: the ring
// transport must reproduce the exact ACK stream, loss/RTO accounting, and
// completion times.

TEST(TransportRingGoldenTest, LossRetransmitSequenceMatchesSeed) {
  // Shallow buffer forces tail drops; fast retransmit recovers (no RTO).
  Network net(12e6, 20 * 1500);
  TransportFlow::Config cfg;
  cfg.id = 1;
  cfg.rtt_prop = from_ms(20);
  cfg.app_bytes = 2000 * 1500;
  auto* flow = net.add_flow(cfg, std::make_unique<cc::Reno>());
  Fnv fnv;
  flow->set_rtt_sample_handler([&fnv](FlowId, TimeNs t, TimeNs rtt) {
    fnv.mix(static_cast<std::uint64_t>(t));
    fnv.mix(static_cast<std::uint64_t>(rtt));
  });
  TimeNs fct = 0;
  flow->set_completion_handler([&fct](FlowId, TimeNs, TimeNs t) { fct = t; });
  net.run_until(from_sec(60));
  EXPECT_EQ(fnv.h, 7780397820737034334ULL);
  EXPECT_EQ(flow->acked_bytes(), 3000000);
  EXPECT_EQ(flow->lost_packets(), 127u);
  EXPECT_EQ(flow->rto_count(), 0u);
  EXPECT_EQ(flow->sent_packets(), 2127u);
  EXPECT_EQ(fct, 2124000000);
}

TEST(TransportRingGoldenTest, RtoBackoffSequenceMatchesSeed) {
  // 40% random loss: whole windows vanish, driving repeated RTO backoff.
  Network net(12e6, 1 << 20);
  net.link().set_random_loss(0.4, 17);
  TransportFlow::Config cfg;
  cfg.id = 1;
  cfg.rtt_prop = from_ms(20);
  cfg.app_bytes = 50 * 1500;
  auto* flow = net.add_flow(cfg, std::make_unique<cc::Reno>());
  TimeNs fct = 0;
  flow->set_completion_handler([&fct](FlowId, TimeNs, TimeNs t) { fct = t; });
  net.run_until(from_sec(120));
  EXPECT_EQ(fct, 852000000);
  EXPECT_EQ(flow->rto_count(), 2u);
  EXPECT_EQ(flow->lost_packets(), 50u);
  EXPECT_EQ(flow->sent_packets(), 100u);
}

TEST(TransportRingGoldenTest, WindowGrowthPastRingCapacityMatchesSeed) {
  // A 2000-packet window (far past the 64-slot initial ring) with 1%
  // random loss: the outstanding ring grows several times while holes and
  // retransmissions churn it, and the scoreboard window spans thousands of
  // sequences.
  Network net(1e9, 1 << 24);
  net.link().set_random_loss(0.01, 23);
  TransportFlow::Config cfg;
  cfg.id = 1;
  cfg.rtt_prop = from_ms(50);
  auto* flow = net.add_flow(cfg, std::make_unique<cc::ConstWindow>(2000));
  Fnv fnv;
  flow->set_rtt_sample_handler([&fnv](FlowId, TimeNs t, TimeNs rtt) {
    fnv.mix(static_cast<std::uint64_t>(t));
    fnv.mix(static_cast<std::uint64_t>(rtt));
  });
  net.run_until(from_sec(5));
  EXPECT_EQ(fnv.h, 10574145731213773768ULL);
  EXPECT_EQ(net.recorder().delivered(1).total(), 299892000);
  EXPECT_EQ(flow->sent_packets(), 201977u);
  EXPECT_EQ(flow->lost_packets(), 3990u);
  EXPECT_EQ(flow->rto_count(), 0u);
  EXPECT_EQ(flow->acked_bytes(), 293980500);
}

// --- zero-allocation guarantee ------------------------------------------

// The steady-state ACK path — handle_ack (outstanding ring, rate-sampler
// prefix sums, RTT estimation, cc, RTO rearm) plus the ACK-clocked send
// path (retx/outstanding rings, bottleneck FIFO ring, event scheduling) —
// must not touch the heap once every structure has reached its high-water
// mark.  The flow runs against a bare link (no Network) so the check pins
// the transport itself, not the recorder's amortized series appends.
TEST(TransportRingTest, SteadyStateAckPathDoesNotAllocate) {
  EventLoop loop;
  BottleneckLink link(&loop, 12e6,
                      std::make_unique<DropTailQueue>(1 << 20));
  TransportFlow::Config cfg;
  cfg.id = 1;
  cfg.rtt_prop = from_ms(20);
  TransportFlow flow(&loop, &link, cfg,
                     std::make_unique<cc::ConstWindow>(400));
  link.set_delivery_handler([&flow](const Packet& p, TimeNs t) {
    if (p.is_transport) flow.on_link_delivery(p, t);
  });
  link.set_drop_handler([](const Packet&) {});
  flow.start();
  // Warm-up past the rate sampler's 16384-sample history cap (~1000
  // ACKs/s on this link) so every ring is at its high-water mark.
  loop.run_until(from_sec(20));
  const std::uint64_t before = alloc_count();
  loop.run_until(loop.now() + from_sec(5));
  EXPECT_EQ(alloc_count(), before)
      << "steady-state ACK path must perform no heap allocations";
  EXPECT_GT(flow.acked_bytes(), 0);
}

TEST(TransportRingTest, SteadyStateLossRecoveryDoesNotAllocate) {
  // Same guarantee under sustained random loss: detect_losses, the
  // retransmit ring, and the scoreboard all cycle without heap traffic.
  EventLoop loop;
  BottleneckLink link(&loop, 12e6,
                      std::make_unique<DropTailQueue>(1 << 20));
  link.set_random_loss(0.02, 5);
  TransportFlow::Config cfg;
  cfg.id = 1;
  cfg.rtt_prop = from_ms(20);
  TransportFlow flow(&loop, &link, cfg,
                     std::make_unique<cc::ConstWindow>(400));
  link.set_delivery_handler([&flow](const Packet& p, TimeNs t) {
    if (p.is_transport) flow.on_link_delivery(p, t);
  });
  link.set_drop_handler([](const Packet&) {});
  flow.start();
  loop.run_until(from_sec(20));
  const std::uint64_t before = alloc_count();
  loop.run_until(loop.now() + from_sec(5));
  EXPECT_EQ(alloc_count(), before)
      << "loss recovery must perform no steady-state heap allocations";
  EXPECT_GT(flow.lost_packets(), 0u);
}

// --- completed-flow retirement ------------------------------------------

// release() frees without allocating; the rings that cannot regrow from
// nothing refuse use after release instead of looping or scribbling.
TEST(TransportRetireTest, ReleaseFreesWithoutAllocating) {
  SeqRing<int> ring(8);
  for (std::uint64_t s = 0; s < 100; ++s) ring.insert(s, 1);
  SeqScoreboard sb(64);
  sb.ensure_span(0, 500);
  sb.set(500);
  RateSampler sampler;
  for (int i = 0; i < 100; ++i) sampler.on_ack(i, i + 10, 1500);
  util::RingDeque<std::uint64_t> dq;
  for (std::uint64_t s = 0; s < 40; ++s) dq.push_back(s);

  const std::uint64_t before = alloc_count();
  ring.release();
  sb.release();
  sampler.release();
  dq.release();
  EXPECT_EQ(alloc_count(), before) << "release must not allocate";
  EXPECT_EQ(ring.heap_bytes() + sampler.heap_bytes(), 0u);
  EXPECT_EQ(sb.capacity_bits() + dq.capacity(), 0u);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(sb.count(), 0u);
  EXPECT_EQ(sampler.history_size(), 0u);
  EXPECT_TRUE(dq.empty());
  EXPECT_DEATH(ring.insert(7, 1), "SeqRing used after release");
  EXPECT_DEATH(sb.ensure_span(0, 7), "SeqScoreboard used after release");
}

// A finite flow that completes frees every per-packet buffer and its RTT
// handler; the object and its lifetime counters stay readable.  The flow
// is the LossRetransmitSequenceMatchesSeed one, so the outstanding ring,
// scoreboard, rate sampler and retransmit queue have all been grown.
TEST(TransportRetireTest, CompletedFiniteFlowHoldsNoBuffers) {
  Network net(12e6, 20 * 1500);
  TransportFlow::Config cfg;
  cfg.id = 1;
  cfg.rtt_prop = from_ms(20);
  cfg.app_bytes = 2000 * 1500;
  auto* flow = net.add_flow(cfg, std::make_unique<cc::Reno>());
  auto token = std::make_shared<int>(0);
  flow->set_rtt_sample_handler([token](FlowId, TimeNs, TimeNs) {});
  net.run_until(from_sec(1));
  ASSERT_FALSE(flow->completed());
  EXPECT_GT(flow->buffer_bytes(), 0u);
  EXPECT_EQ(token.use_count(), 2);

  net.run_until(from_sec(60));
  ASSERT_TRUE(flow->completed());
  EXPECT_EQ(flow->buffer_bytes(), 0u);
  EXPECT_EQ(token.use_count(), 1) << "RTT handler must be released";
  EXPECT_EQ(flow->bytes_in_flight(), 0);
  EXPECT_EQ(flow->acked_bytes(), 3000000);
  EXPECT_EQ(flow->lost_packets(), 127u);
  EXPECT_EQ(flow->sent_packets(), 2127u);
}

// The flow_churn shape on a quarter of its link, with a shallow 20-packet
// buffer: Cubic flows of bounded-Pareto size at 0.7 load.  Every completed
// flow retains its object and CC only (864 B); with its buffers it kept
// up to 6.7 KB here, and with a stored callback in each of its four timers
// 1264 B.  The link's delivery handler is wrapped to pin why
// releasing is safe: the queue-driven spurious retransmissions still
// reach completed flows, and each one carries a sequence the receiver
// already has and regrows nothing.
TEST(TransportRetireTest, WorkloadCellRetainsUnder1KBPerCompletedFlow) {
  Network net(24e6, 20 * 1500);
  traffic::FlowWorkload::Config wc;
  wc.offered_load_fraction = 0.7;
  wc.dist = traffic::FlowSizeDist::bounded_pareto(1.2, 1500, 200000);
  wc.seed = 11;
  traffic::FlowWorkload workload(&net, wc);

  std::set<std::pair<FlowId, std::uint64_t>> delivered;
  std::uint64_t after_completion = 0, fresh_after = 0, regrown_after = 0;
  net.link().set_delivery_handler([&](const Packet& p, TimeNs t) {
    TransportFlow* f = net.flow_by_id(p.flow_id);
    const bool fresh = delivered.insert({p.flow_id, p.seq}).second;
    if (f->completed()) {
      ++after_completion;
      if (fresh) ++fresh_after;
    }
    f->on_link_delivery(p, t);
    if (f->completed() && f->buffer_bytes() > 0) ++regrown_after;
  });
  net.run_until(from_sec(4));

  std::size_t completed = 0, max_retained = 0;
  for (const auto& f : net.flows()) {
    if (!f->completed()) continue;
    ++completed;
    const std::size_t retained =
        sizeof(TransportFlow) + sizeof(cc::Cubic) + f->buffer_bytes();
    max_retained = std::max(max_retained, retained);
  }
  EXPECT_GT(completed, 1000u);
  EXPECT_GT(after_completion, 0u) << "no delivery reached a completed flow";
  EXPECT_EQ(fresh_after, 0u) << "a completed flow received a new sequence";
  EXPECT_EQ(regrown_after, 0u) << "a delivery regrew a released buffer";
  EXPECT_LE(max_retained, 1024u);
}

}  // namespace
}  // namespace nimbus::sim
