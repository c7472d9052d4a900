#include "traffic/flow_workload.h"

#include "cc/cubic.h"
#include "util/check.h"

namespace nimbus::traffic {

namespace {

// Propagation RTT of every workload flow.
constexpr TimeNs kFlowRtt = from_ms(50);
// Flows larger than this many packets are "elastic" for ground truth (the
// paper: flows larger than the initial window of 10 packets).
constexpr std::int64_t kElasticThresholdPkts = 10;

}  // namespace

FlowWorkload::FlowWorkload(sim::Network* net, Config cfg)
    : net_(net), cfg_(std::move(cfg)), rng_(cfg_.seed) {
  NIMBUS_CHECK(net_ != nullptr);
  NIMBUS_CHECK(cfg_.offered_load_fraction > 0);
  if (!cfg_.cc_factory) {
    cfg_.cc_factory = []() { return std::make_unique<cc::Cubic>(); };
  }
  const double load_Bps =
      cfg_.offered_load_fraction * net_->link_rate_bps() / 8.0;
  mean_interarrival_sec_ = cfg_.dist.mean_bytes() / load_Bps;

  net_->loop().schedule(net_->loop().now(),
                        [this]() { schedule_next_arrival(); });
}

void FlowWorkload::schedule_next_arrival() {
  spawn_flow(cfg_.dist.sample(rng_));
  const TimeNs gap = from_sec(rng_.exponential(mean_interarrival_sec_));
  net_->loop().schedule_in(gap, [this]() { schedule_next_arrival(); });
}

void FlowWorkload::spawn_flow(std::int64_t size_bytes) {
  sim::TransportFlow::Config fc;
  fc.id = net_->next_flow_id();
  fc.rtt_prop = kFlowRtt;
  fc.start_time = net_->loop().now();
  fc.app_bytes = size_bytes;
  fc.seed = rng_.next_u64();
  net_->add_flow(fc, cfg_.cc_factory());

  Arrival a;
  a.id = fc.id;
  a.start = fc.start_time;
  a.size_bytes = size_bytes;
  a.elastic = size_bytes > kElasticThresholdPkts * fc.mss;
  arrivals_.push_back(a);
}

std::vector<sim::FlowId> FlowWorkload::flow_ids() const {
  std::vector<sim::FlowId> ids;
  ids.reserve(arrivals_.size());
  for (const auto& a : arrivals_) ids.push_back(a.id);
  return ids;
}

double FlowWorkload::elastic_byte_fraction(const sim::Recorder& rec,
                                           TimeNs t0, TimeNs t1) const {
  std::int64_t elastic = 0, total = 0;
  for (const auto& a : arrivals_) {
    const std::int64_t bytes = rec.delivered(a.id).bytes_in(t0, t1);
    total += bytes;
    if (a.elastic) elastic += bytes;
  }
  return total > 0 ? static_cast<double>(elastic) /
                         static_cast<double>(total)
                   : 0.0;
}

}  // namespace nimbus::traffic
