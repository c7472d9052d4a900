#include "sim/network.h"

#include <limits>

#include "util/check.h"

namespace nimbus::sim {

Network::Network(double link_rate_bps, std::int64_t buffer_bytes)
    : Network(link_rate_bps, std::make_unique<DropTailQueue>(buffer_bytes)) {}

Network::Network(double link_rate_bps, std::unique_ptr<QueueDisc> qdisc) {
  link_ = std::make_unique<BottleneckLink>(&loop_, link_rate_bps,
                                           std::move(qdisc));
  init();
}

Network::~Network() = default;

void Network::init() {
  link_->set_delivery_handler([this](const Packet& p, TimeNs t) {
    recorder_.on_delivery(p, t);
    if (p.is_transport) {
      if (TransportFlow* f = flow_by_id(p.flow_id)) f->on_link_delivery(p, t);
    }
  });
  link_->set_drop_handler([this](const Packet& p) { recorder_.on_drop(p); });
}

TransportFlow* Network::add_flow(TransportFlow::Config cfg,
                                 std::unique_ptr<CcAlgorithm> cc) {
  if (cfg.id == 0) cfg.id = next_flow_id();
  NIMBUS_CHECK_MSG(flow_by_id(cfg.id) == nullptr, "duplicate flow id");
  next_id_ = std::max(next_id_, cfg.id + 1);
  auto flow =
      std::make_unique<TransportFlow>(&loop_, link_.get(), cfg, std::move(cc));
  TransportFlow* raw = flow.get();
  if (ack_impairment_ != nullptr) raw->set_ack_impairment(ack_impairment_.get());
  raw->set_obs(transport_obs_);  // FlowWorkload adds flows mid-run, too
  // Only tracked flows' RTTs are ever read.  Direct pointer into the
  // recorder's stable per-flow series: the per-ACK hot path records an RTT
  // sample without any id lookup.
  if (recorder_.is_tracked(cfg.id)) {
    util::TimeSeries* rtt_series = recorder_.rtt_series(cfg.id);
    raw->set_rtt_sample_handler([rtt_series](FlowId, TimeNs t, TimeNs rtt) {
      rtt_series->add(t, to_ms(rtt));
    });
  }
  raw->set_completion_handler([this, raw](FlowId id, TimeNs when, TimeNs fct) {
    recorder_.on_completion(id, when, fct, raw->config().app_bytes);
  });
  flows_.push_back(std::move(flow));
  if (cfg.id >= flow_index_.size()) flow_index_.resize(cfg.id + 1, nullptr);
  flow_index_[cfg.id] = raw;
  raw->start();
  return raw;
}

void Network::set_ack_impairment(std::unique_ptr<ImpairmentStage> stage) {
  NIMBUS_CHECK_MSG(ack_impairment_ == nullptr,
                   "ACK impairment already installed");
  NIMBUS_CHECK_MSG(flows_.empty(),
                   "install the ACK impairment before adding flows");
  NIMBUS_CHECK(stage != nullptr);
  ack_impairment_ = std::move(stage);
}

void Network::attach_telemetry(obs::Telemetry* t) {
  obs::MetricsRegistry* m = t != nullptr ? &t->metrics : nullptr;
  const obs::Trace trace = t != nullptr ? t->trace() : obs::Trace{};
  loop_.attach_metrics(m);
  link_->attach_telemetry(m, trace);
  if (link_->impairment() != nullptr) {
    link_->impairment()->set_trace(trace, /*tag=*/0);
  }
  if (ack_impairment_ != nullptr) ack_impairment_->set_trace(trace, /*tag=*/1);
  transport_obs_ = TransportObs::registered(m, trace);
  for (auto& f : flows_) f->set_obs(transport_obs_);
}

void Network::add_source(std::unique_ptr<TrafficSource> source) {
  source->start();
  sources_.push_back(std::move(source));
}

TransportFlow* Network::flow_by_id(FlowId id) {
  return id < flow_index_.size() ? flow_index_[id] : nullptr;
}

void Network::run_until(TimeNs t_end) {
  if (!recorder_attached_) {
    recorder_.attach(&loop_, link_.get());
    recorder_attached_ = true;
  }
  if (t_end != std::numeric_limits<TimeNs>::max()) {
    recorder_.expect_duration(t_end);
  }
  loop_.run_until(t_end);
}

}  // namespace nimbus::sim
