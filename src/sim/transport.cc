#include "sim/transport.h"

#include <algorithm>

#include "util/check.h"

namespace nimbus::sim {

namespace {
constexpr std::uint64_t kDupThreshold = 3;
constexpr TimeNs kMinRto = from_ms(200);
constexpr TimeNs kMaxRto = from_sec(60);
constexpr double kInitialCwndPkts = 10;         // Linux IW10
constexpr TimeNs kReportInterval = from_ms(10);  // CCP report cadence
constexpr std::int64_t kBackloggedBytes =
    std::numeric_limits<std::int64_t>::max() / 2;

// The handler a flow timer binds: calls the given TransportFlow member.
template <void (TransportFlow::*F)()>
constexpr Timer::Handler on_fire = &Timer::method<TransportFlow, F>;
}  // namespace

TransportObs TransportObs::registered(obs::MetricsRegistry* m,
                                      obs::Trace trace) {
  TransportObs o;
  o.trace = trace;
  if (m != nullptr) {
    o.acks = m->counter("transport.acks");
    o.retransmits = m->counter("transport.retransmits");
    o.rto_backoffs = m->counter("transport.rto_backoffs");
    o.spurious_rx = m->counter("transport.spurious_rx");
  }
  return o;
}

TransportFlow::TransportFlow(EventLoop* loop, BottleneckLink* link,
                             Config config, std::unique_ptr<CcAlgorithm> cc)
    : loop_(loop),
      link_(link),
      cfg_(config),
      cc_(std::move(cc)),
      rng_(config.seed),
      rto_timer_(loop, this, on_fire<&TransportFlow::on_rto_fired>),
      pacing_timer_(loop, this, on_fire<&TransportFlow::maybe_send>),
      report_timer_(loop, this, on_fire<&TransportFlow::report_tick>),
      stop_timer_(loop, this, on_fire<&TransportFlow::on_stop_time>) {
  static_assert(sizeof(AckArrival) <= EventCallback::kInlineBytes,
                "ACK delivery must fit the inline callback buffer");
  NIMBUS_CHECK(cc_ != nullptr);
  NIMBUS_CHECK(cfg_.mss > 0);
  backlogged_ = cfg_.app_bytes < 0;
  app_bytes_remaining_ = backlogged_ ? kBackloggedBytes : cfg_.app_bytes;
  cwnd_bytes_ = kInitialCwndPkts * cfg_.mss;
}

TransportFlow::~TransportFlow() = default;

void TransportFlow::start() {
  loop_->schedule(std::max(cfg_.start_time, loop_->now()),
                  [this]() { begin(); });
}

void TransportFlow::begin() {
  started_ = true;
  cc_->init(*this);
  if (cfg_.stop_time != std::numeric_limits<TimeNs>::max()) {
    stop_timer_.arm(cfg_.stop_time);
  }
  report_timer_.arm_in(kReportInterval);
  maybe_send();
}

void TransportFlow::on_stop_time() { app_bytes_remaining_ = 0; }

TimeNs TransportFlow::now() const { return loop_->now(); }

void TransportFlow::set_cwnd_bytes(double bytes) {
  const double old = cwnd_bytes_;
  cwnd_bytes_ = std::max<double>(bytes, cfg_.mss);
  // A halving-or-worse in one set is a collapse worth a timeline mark.
  if (obs_.trace.active() && started_ && cwnd_bytes_ <= old * 0.5) {
    obs::TraceEvent e;
    e.t = loop_->now();
    e.kind = static_cast<std::uint16_t>(obs::TraceKind::kCwndCollapse);
    e.flow = cfg_.id;
    e.v0 = cwnd_bytes_;
    e.v1 = old;
    obs_.trace.emit(e);
  }
}

void TransportFlow::set_pacing_rate_bps(double bps) {
  NIMBUS_CHECK(bps >= 0);
  pacing_rate_bps_ = bps;
}

std::int64_t TransportFlow::bytes_in_flight() const {
  return static_cast<std::int64_t>(outstanding_.size()) * cfg_.mss;
}

bool TransportFlow::is_app_limited() const {
  return !backlogged_ && app_bytes_remaining_ <= 0 && !completed_;
}

std::uint64_t TransportFlow::total_packets() const {
  NIMBUS_CHECK(!backlogged_);
  return (static_cast<std::uint64_t>(cfg_.app_bytes) + cfg_.mss - 1) /
         cfg_.mss;
}

void TransportFlow::add_app_bytes(std::int64_t bytes) {
  NIMBUS_CHECK(bytes >= 0);
  if (backlogged_ || completed_) return;
  app_bytes_remaining_ += bytes;
  if (started_) maybe_send();
}

bool TransportFlow::can_send() const {
  if (!started_ || completed_) return false;
  const bool has_data = !retx_queue_.empty() || app_bytes_remaining_ > 0;
  if (!has_data) return false;
  return static_cast<double>(bytes_in_flight() + cfg_.mss) <=
         cwnd_bytes_ + 0.5;
}

void TransportFlow::maybe_send() {
  while (can_send()) {
    if (pacing_rate_bps_ > 0) {
      const TimeNs t = loop_->now();
      if (t < next_send_time_) {
        pacing_timer_.arm(next_send_time_);
        return;
      }
      send_one();
      next_send_time_ = std::max(next_send_time_, t) +
                        tx_time(cfg_.mss, pacing_rate_bps_);
    } else {
      send_one();
    }
  }
}

void TransportFlow::send_one() {
  std::uint64_t seq;
  bool retransmit = false;
  if (!retx_queue_.empty()) {
    seq = retx_queue_.front();
    retx_queue_.pop_front();
    retransmit = true;
  } else {
    seq = snd_nxt_++;
    if (!backlogged_) {
      app_bytes_remaining_ =
          std::max<std::int64_t>(0, app_bytes_remaining_ - cfg_.mss);
    }
  }

  Packet p;
  p.flow_id = cfg_.id;
  p.seq = seq;
  p.size_bytes = cfg_.mss;
  p.sent_at = loop_->now();
  p.is_transport = true;
  p.is_retransmit = retransmit;

  outstanding_.insert(seq, {p.sent_at, retransmit});
  ++sent_packets_total_;
  if (retransmit) obs_.retransmits.inc();
  if (!rto_timer_.armed()) arm_or_cancel_rto();
  link_->enqueue(p);
}

void TransportFlow::on_link_delivery(const Packet& p, TimeNs /*dequeue_done*/) {
  // Receiver-side processing.  Conceptually this happens one-way-delay
  // later; since receiver state only influences ACK contents and every ACK
  // takes the same reverse path, evaluating it now preserves all orderings.
  if (p.seq == rcv_next_) {
    ++rcv_next_;
    while (out_of_order_.count() > 0 && out_of_order_.test(rcv_next_)) {
      out_of_order_.clear(rcv_next_);
      ++rcv_next_;
    }
  } else if (p.seq > rcv_next_) {
    out_of_order_.ensure_span(rcv_next_, p.seq);
    if (out_of_order_.test(p.seq)) obs_.spurious_rx.inc();
    out_of_order_.set(p.seq);
  } else {
    // p.seq < rcv_next_: duplicate (spurious retransmission), ignore.
    obs_.spurious_rx.inc();
  }

  Ack ack;
  ack.flow_id = cfg_.id;
  ack.seq = p.seq;
  ack.cum_valid = rcv_next_ > 0;
  ack.cum_ack = ack.cum_valid ? rcv_next_ - 1 : 0;
  ack.data_sent_at = p.sent_at;
  ack.bytes = p.size_bytes;

  if (ack_impairment_ != nullptr) {
    const ImpairmentStage::Decision d =
        ack_impairment_->on_packet(loop_->now());
    for (int i = 0; i < d.copies; ++i) {
      loop_->schedule_in(cfg_.rtt_prop + d.delay[i], AckArrival{this, ack});
    }
    return;
  }
  loop_->schedule_in(cfg_.rtt_prop, AckArrival{this, ack});
}

void TransportFlow::handle_ack(const Ack& ack) {
  if (completed_) return;
  obs_.acks.inc();
  const TimeNs t = loop_->now();
  latest_rtt_ = t - ack.data_sent_at;
  update_rtt(latest_rtt_);
  rto_backoff_ = 0;

  std::uint32_t newly_acked = 0;
  if (outstanding_.erase(ack.seq)) newly_acked += cfg_.mss;
  if (ack.cum_valid) {
    while (!outstanding_.empty() && outstanding_.lowest() <= ack.cum_ack) {
      newly_acked += cfg_.mss;
      outstanding_.erase(outstanding_.lowest());
    }
    // Purge queued retransmissions the cumulative ACK has overtaken (can
    // only happen via spurious RTO; cheap safety either way).
    while (!retx_queue_.empty() && retx_queue_.front() <= ack.cum_ack) {
      retx_queue_.pop_front();
    }
    snd_una_ = std::max(snd_una_, ack.cum_ack + 1);
  }
  if (!any_acked_ || ack.seq > highest_acked_) {
    highest_acked_ = ack.seq;
    any_acked_ = true;
  }

  acked_bytes_total_ += newly_acked;
  ++acked_since_report_;
  sampler_.on_ack(ack.data_sent_at, t, ack.bytes);
  cached_rates_ = sampler_.rates_over_window(
      rate_window_bytes_ > 0 ? rate_window_bytes_ : cwnd_bytes_, cfg_.mss);
  if (on_rtt_sample_) on_rtt_sample_(cfg_.id, t, latest_rtt_);

  detect_losses();

  AckInfo info;
  info.now = t;
  info.seq = ack.seq;
  info.newly_acked_bytes = newly_acked;
  info.rtt = latest_rtt_;
  info.app_limited = is_app_limited();
  cc_->on_ack(*this, info);

  arm_or_cancel_rto();
  check_completion();
  if (!completed_) maybe_send();
}

void TransportFlow::detect_losses() {
  if (!any_acked_ || highest_acked_ < kDupThreshold) return;
  if (outstanding_.empty() || outstanding_.lowest() >= highest_acked_) return;
  const std::uint64_t lost_below = highest_acked_ - kDupThreshold + 1;
  const TimeNs t = loop_->now();
  // RACK-style time guard: never declare a packet lost within ~1 RTT of its
  // (re)transmission, so SACKs of pre-retransmission packets cannot kill a
  // fresh retransmission.
  const TimeNs min_age = latest_rtt_ - latest_rtt_ / 8;

  // Ascending ring scan over the hole region [lowest, lost_below); empty
  // in the no-loss steady state (the cumulative ACK keeps lowest() at the
  // frontier), and bounded by the window during recovery.  declare_lost
  // only erases the sequence it is called with, which for_each_in permits.
  outstanding_.for_each_in(
      outstanding_.lowest(), lost_below,
      [&](std::uint64_t seq, const SentRecord& rec) {
        if (t - rec.sent_at >= min_age) declare_lost(seq);
      });
}

void TransportFlow::declare_lost(std::uint64_t seq) {
  outstanding_.erase(seq);
  retx_queue_.push_back(seq);
  ++lost_packets_total_;
  ++lost_since_report_;

  LossInfo loss;
  loss.now = loop_->now();
  loss.seq = seq;
  loss.lost_bytes = cfg_.mss;
  loss.new_congestion_event = seq >= loss_event_end_;
  if (loss.new_congestion_event) loss_event_end_ = snd_nxt_;
  if (loss.new_congestion_event && obs_.trace.active()) {
    obs::TraceEvent e;
    e.t = loss.now;
    e.kind = static_cast<std::uint16_t>(obs::TraceKind::kLossEpisode);
    e.flow = cfg_.id;
    e.a = static_cast<std::uint32_t>(seq);
    e.v0 = cwnd_bytes_;
    obs_.trace.emit(e);
  }
  cc_->on_loss(*this, loss);
}

void TransportFlow::update_rtt(TimeNs sample) {
  min_rtt_ = std::min(min_rtt_, sample);
  if (!have_rtt_) {
    srtt_ = sample;
    rttvar_ = sample / 2;
    have_rtt_ = true;
    return;
  }
  const TimeNs err = sample > srtt_ ? sample - srtt_ : srtt_ - sample;
  rttvar_ = (3 * rttvar_ + err) / 4;
  srtt_ = (7 * srtt_ + sample) / 8;
}

TimeNs TransportFlow::current_rto() const {
  TimeNs rto = have_rtt_ ? srtt_ + 4 * rttvar_ : from_sec(1);
  rto = std::max(rto, kMinRto);
  rto <<= std::min(rto_backoff_, 6);
  return std::min(rto, kMaxRto);
}

void TransportFlow::arm_or_cancel_rto() {
  if (outstanding_.empty()) {
    rto_timer_.cancel();
    return;
  }
  rto_timer_.arm_in(current_rto());
}

void TransportFlow::on_rto_fired() {
  if (completed_ || outstanding_.empty()) return;
  ++rto_count_;
  rto_backoff_ = std::min(rto_backoff_ + 1, 6);
  obs_.rto_backoffs.inc();
  if (obs_.trace.active()) {
    obs::TraceEvent e;
    e.t = loop_->now();
    e.kind = static_cast<std::uint16_t>(obs::TraceKind::kRtoFired);
    e.flow = cfg_.id;
    e.a = static_cast<std::uint32_t>(rto_backoff_);
    obs_.trace.emit(e);
  }

  // The whole outstanding window is presumed lost; go-back-N style recovery
  // with the congestion controller reset to one packet by on_rto().
  retx_scratch_.clear();
  for (std::size_t i = 0; i < retx_queue_.size(); ++i) {
    retx_scratch_.push_back(retx_queue_[i]);
  }
  const std::size_t already_queued = retx_scratch_.size();
  outstanding_.for_each_in(outstanding_.lowest(), outstanding_.upper(),
                           [&](std::uint64_t seq, const SentRecord&) {
                             retx_scratch_.push_back(seq);
                           });
  outstanding_.clear();
  lost_packets_total_ += retx_scratch_.size() - already_queued;
  lost_since_report_ += retx_scratch_.size() - already_queued;
  std::sort(retx_scratch_.begin(), retx_scratch_.end());
  retx_scratch_.erase(
      std::unique(retx_scratch_.begin(), retx_scratch_.end()),
      retx_scratch_.end());
  retx_queue_.clear();
  for (std::uint64_t s : retx_scratch_) retx_queue_.push_back(s);
  loss_event_end_ = snd_nxt_;

  cc_->on_rto(*this);
  arm_or_cancel_rto();
  maybe_send();
}

void TransportFlow::report_tick() {
  if (completed_) return;
  CcReport r;
  r.now = loop_->now();
  r.send_rate_bps = cached_rates_.send_bps;
  r.recv_rate_bps = cached_rates_.recv_bps;
  r.rates_valid = cached_rates_.valid;
  r.srtt = srtt_;
  r.latest_rtt = latest_rtt_;
  r.min_rtt = have_rtt_ ? min_rtt_ : 0;
  r.acked_packets = acked_since_report_;
  r.lost_packets = lost_since_report_;
  r.bytes_in_flight = bytes_in_flight();
  acked_since_report_ = 0;
  lost_since_report_ = 0;

  cc_->on_report(*this, r);
  maybe_send();  // the report may have changed cwnd / pacing
  report_timer_.arm_in(kReportInterval);
}

void TransportFlow::check_completion() {
  if (backlogged_ || completed_) return;
  if (app_bytes_remaining_ > 0) return;
  // For fixed-size flows, everything offered must be acknowledged.
  if (cfg_.app_bytes >= 0 && snd_nxt_ < total_packets()) return;
  if (!outstanding_.empty() || !retx_queue_.empty()) return;
  if (cfg_.app_bytes == 0) return;  // app-driven flow with no data yet
  completed_ = true;
  rto_timer_.cancel();
  pacing_timer_.cancel();
  report_timer_.cancel();
  stop_timer_.cancel();
  release_buffers();
  if (on_complete_) {
    on_complete_(cfg_.id, loop_->now(), loop_->now() - cfg_.start_time);
  }
}

// Nothing reads these buffers once completed_ is set: handle_ack returns
// at once, report_tick and maybe_send are gated on completed_, and every
// sequence below snd_nxt_ reached the receiver before the last ACK, so a
// later on_link_delivery is a duplicate (p.seq < rcv_next_) that touches
// neither the scoreboard nor the outstanding ring.  Growth of a released
// ring or scoreboard CHECK-fails, so a breach of that argument cannot go
// unnoticed.
void TransportFlow::release_buffers() {
  outstanding_.release();
  out_of_order_.release();
  sampler_.release();
  retx_queue_.release();
  retx_scratch_ = std::vector<std::uint64_t>();
  on_rtt_sample_ = nullptr;
}

std::size_t TransportFlow::buffer_bytes() const {
  return outstanding_.heap_bytes() + sampler_.heap_bytes() +
         out_of_order_.capacity_bits() / 8 +
         (retx_queue_.capacity() + retx_scratch_.capacity()) *
             sizeof(std::uint64_t);
}

}  // namespace nimbus::sim
