// Reliable transport endpoint pair over the simulated bottleneck.
//
// One TransportFlow object models both the sender and the receiver of a
// flow: data packets traverse the bottleneck queue, the receiver ACKs every
// packet (per-packet SACK + cumulative ACK), and ACKs return after the
// flow's propagation RTT on an uncongested reverse path.
//
// Loss recovery: per-packet SACK with a duplicate threshold of 3 (a packet
// is declared lost once three higher sequences have been SACKed and it has
// been outstanding for at least ~1 RTT, RACK-style), real retransmissions,
// and an RFC 6298 RTO with exponential backoff.  The single-FIFO topology
// never reorders on its own, so dupack-based detection is exact there; a
// forward-path ImpairmentStage with reorder enabled (sim/impairment.h) can
// reorder, in which case the dup threshold causes realistic spurious
// retransmissions.
//
// Window flows (pacing disabled) transmit on ACK arrival — the ACK-clocking
// property the paper's elasticity detector keys on.  Rate-based flows use a
// pacing timer.
//
// Data-path design (PR 3): sequences are dense and monotonic, so all
// per-packet state is index-addressable instead of node-based.  The
// sender's outstanding window is a SeqRing (power-of-two ring addressed by
// seq & mask), the receiver's out-of-order set is a SeqScoreboard bit
// ring, the retransmit queue is a RingDeque, and the rate sampler keeps
// running prefix sums — every per-ACK operation is O(1) amortized and the
// steady-state ACK path performs no heap allocation (tests pin this with
// an operator-new hook).  All structures grow by doubling and re-placing
// the live window, so behavior is bit-identical to the PR 2 map/set
// implementation at any window size.  A finite flow that completes
// releases all of them (and its RTT-sample handler): only the object, its
// CC and its lifetime counters outlive the transfer, so a long flow
// workload keeps ~1.35 KB per finished flow instead of ~5.5 KB (perfbench
// flow_churn mem.bytes_per_flow, 1346 B).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "sim/cc_interface.h"
#include "sim/event_loop.h"
#include "sim/link.h"
#include "sim/packet.h"
#include "sim/rate_sampler.h"
#include "sim/seq_ring.h"
#include "util/ring_deque.h"
#include "util/rng.h"

namespace nimbus::sim {

/// Transport telemetry handles, shared by every flow in a Network (the
/// registry slots are per-scenario aggregates; the trace ring tags events
/// with the flow id).  Copy-by-value: four pointers and a trace handle.
struct TransportObs {
  obs::Counter acks;           // ACKs processed by senders
  obs::Counter retransmits;    // retransmitted data packets sent
  obs::Counter rto_backoffs;   // RTO firings (backoff escalations)
  obs::Counter spurious_rx;    // receiver-side duplicate data arrivals
                               // (reorder-triggered spurious retx signal)
  obs::Trace trace;

  static TransportObs registered(obs::MetricsRegistry* m, obs::Trace trace);
};

class TransportFlow : public CcContext {
 public:
  struct Config {
    FlowId id = 0;                    // 0 = assigned by Network
    std::uint32_t mss = 1500;
    TimeNs rtt_prop = from_ms(50);    // two-way propagation delay
    TimeNs start_time = 0;
    /// Total application bytes; -1 = backlogged (infinite).
    std::int64_t app_bytes = -1;
    /// After this time the app offers no new data (flow drains and idles).
    TimeNs stop_time = std::numeric_limits<TimeNs>::max();
    std::uint64_t seed = 1;           // per-flow RNG stream
  };

  /// (flow, completion_time, fct) when a finite flow is fully acknowledged.
  using CompletionHandler = std::function<void(FlowId, TimeNs, TimeNs)>;
  /// (flow, now, rtt_sample) on every ACK, for experiment recording.
  using RttSampleHandler = std::function<void(FlowId, TimeNs, TimeNs)>;

  TransportFlow(EventLoop* loop, BottleneckLink* link, Config config,
                std::unique_ptr<CcAlgorithm> cc);
  ~TransportFlow() override;

  TransportFlow(const TransportFlow&) = delete;
  TransportFlow& operator=(const TransportFlow&) = delete;

  /// Schedules the flow start (call once after construction).
  void start();

  /// Link callback: the flow's data packet finished serialization.
  void on_link_delivery(const Packet& p, TimeNs dequeue_done);

  /// Adds application data (used by app-limited sources such as video).
  /// Only meaningful for flows created with app_bytes == 0 initially.
  void add_app_bytes(std::int64_t bytes);

  void set_completion_handler(CompletionHandler h) { on_complete_ = std::move(h); }
  void set_rtt_sample_handler(RttSampleHandler h) { on_rtt_sample_ = std::move(h); }

  /// Installs the reverse-path (ACK) impairment stage.  Not owned: the
  /// Network owns one stage shared by all its flows, modeling a common
  /// impaired return path.  ACKs it drops simply never arrive (the sender
  /// recovers via later cumulative ACKs or RTO); duplicated/jittered
  /// copies arrive at rtt_prop + the stage's per-copy delay.
  void set_ack_impairment(ImpairmentStage* stage) { ack_impairment_ = stage; }

  /// Installs telemetry handles (registered once by the Network and shared
  /// by all its flows).  Call at setup time; default handles are no-ops.
  void set_obs(const TransportObs& o) { obs_ = o; }

  FlowId id() const { return cfg_.id; }
  const Config& config() const { return cfg_; }
  CcAlgorithm& cc() { return *cc_; }
  bool completed() const { return completed_; }
  bool started() const { return started_; }
  std::int64_t acked_bytes() const { return acked_bytes_total_; }
  std::uint64_t lost_packets() const { return lost_packets_total_; }
  std::uint64_t sent_packets() const { return sent_packets_total_; }
  std::uint64_t rto_count() const { return rto_count_; }
  /// Packets the receiver holds in order (its cumulative ACK frontier).
  std::uint64_t received_packets() const { return rcv_next_; }
  std::int64_t app_bytes_remaining() const { return app_bytes_remaining_; }
  /// Heap bytes held by the per-packet buffers (outstanding ring, SACK
  /// scoreboard, rate-sampler ring, retransmit queue and its scratch).
  /// 0 once the flow has completed: completion releases them.
  std::size_t buffer_bytes() const;

  // --- CcContext ---
  TimeNs now() const override;
  std::uint32_t mss() const override { return cfg_.mss; }
  double cwnd_bytes() const override { return cwnd_bytes_; }
  void set_cwnd_bytes(double bytes) override;
  double pacing_rate_bps() const override { return pacing_rate_bps_; }
  void set_pacing_rate_bps(double bps) override;
  TimeNs srtt() const override { return srtt_; }
  TimeNs latest_rtt() const override { return latest_rtt_; }
  TimeNs min_rtt() const override { return min_rtt_; }
  std::int64_t bytes_in_flight() const override;
  bool is_app_limited() const override;
  double send_rate_bps() const override { return cached_rates_.send_bps; }
  double recv_rate_bps() const override { return cached_rates_.recv_bps; }
  bool rates_valid() const override { return cached_rates_.valid; }
  void set_rate_window_bytes(double bytes) override {
    rate_window_bytes_ = bytes;
  }
  util::Rng& rng() override { return rng_; }

 private:
  struct SentRecord {
    TimeNs sent_at;
    bool retransmit;
  };

  // ACK-arrival event: this + the 48-byte Ack fill the event loop's 56-byte
  // inline callback buffer exactly, so per-packet ACK delivery (the hottest
  // schedule site in every scenario) never allocates.
  struct AckArrival {
    TransportFlow* flow;
    Ack ack;
    void operator()() const { flow->handle_ack(ack); }
  };

  void begin();
  void maybe_send();
  bool can_send() const;
  void send_one();
  void handle_ack(const Ack& ack);
  void detect_losses();
  void declare_lost(std::uint64_t seq);
  void update_rtt(TimeNs sample);
  TimeNs current_rto() const;
  void arm_or_cancel_rto();
  void on_rto_fired();
  void on_stop_time();
  void report_tick();
  void check_completion();
  void release_buffers();
  std::uint64_t total_packets() const;  // finite flows only

  EventLoop* loop_;
  BottleneckLink* link_;
  ImpairmentStage* ack_impairment_ = nullptr;  // owned by the Network
  Config cfg_;
  std::unique_ptr<CcAlgorithm> cc_;
  util::Rng rng_;

  bool started_ = false;
  bool completed_ = false;

  // Sender state.
  std::uint64_t snd_nxt_ = 0;    // next new sequence to send
  std::uint64_t snd_una_ = 0;    // lowest unacknowledged sequence
  std::uint64_t highest_acked_ = 0;
  bool any_acked_ = false;
  SeqRing<SentRecord> outstanding_;
  util::RingDeque<std::uint64_t> retx_queue_;
  std::vector<std::uint64_t> retx_scratch_;  // on_rto sort/dedup staging
  std::uint64_t loss_event_end_ = 0;  // congestion-event dedup boundary
  std::int64_t app_bytes_remaining_ = 0;
  bool backlogged_ = false;

  // Receiver state.
  std::uint64_t rcv_next_ = 0;
  SeqScoreboard out_of_order_;

  // Congestion state surface.
  double cwnd_bytes_ = 0;
  double pacing_rate_bps_ = 0;
  TimeNs next_send_time_ = 0;

  // RTT estimation (RFC 6298).
  TimeNs srtt_ = 0;
  TimeNs rttvar_ = 0;
  TimeNs latest_rtt_ = 0;
  TimeNs min_rtt_ = std::numeric_limits<TimeNs>::max();
  bool have_rtt_ = false;

  Timer rto_timer_;
  Timer pacing_timer_;
  Timer report_timer_;
  Timer stop_timer_;
  int rto_backoff_ = 0;

  RateSampler sampler_;
  RateSampler::Rates cached_rates_;
  double rate_window_bytes_ = 0;  // 0: use cwnd

  // Report-interval counters.
  std::uint32_t acked_since_report_ = 0;
  std::uint32_t lost_since_report_ = 0;

  // Lifetime stats.
  std::int64_t acked_bytes_total_ = 0;
  std::uint64_t lost_packets_total_ = 0;
  std::uint64_t sent_packets_total_ = 0;
  std::uint64_t rto_count_ = 0;

  CompletionHandler on_complete_;
  RttSampleHandler on_rtt_sample_;

  TransportObs obs_;
};

}  // namespace nimbus::sim
