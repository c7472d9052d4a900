// Single-bottleneck network assembly: event loop + link + flows + sources +
// recorder, with packet dispatch between them.
//
// This is the simulated equivalent of the paper's Mahimahi testbed (Fig. 2):
// a sender and cross-traffic senders share one bottleneck of rate µ; ACKs
// return over an uncongested reverse path.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/telemetry.h"
#include "sim/cc_interface.h"
#include "sim/event_loop.h"
#include "sim/link.h"
#include "sim/recorder.h"
#include "sim/transport.h"

namespace nimbus::sim {

/// Unreliable traffic source (CBR, Poisson, ...).  Sources schedule their
/// own transmissions on the loop and enqueue packets into the link; their
/// packets carry no ACK path.
class TrafficSource {
 public:
  virtual ~TrafficSource() = default;
  virtual void start() = 0;
  virtual FlowId id() const = 0;
};

class Network {
 public:
  /// Convenience: DropTail bottleneck with `buffer_bytes` of queueing.
  Network(double link_rate_bps, std::int64_t buffer_bytes);
  /// Full control over the queue discipline.
  Network(double link_rate_bps, std::unique_ptr<QueueDisc> qdisc);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  EventLoop& loop() { return loop_; }
  BottleneckLink& link() { return *link_; }
  Recorder& recorder() { return recorder_; }
  double link_rate_bps() const { return link_->rate_bps(); }

  /// Creates a transport flow (assigns an id if cfg.id == 0), wires it to
  /// the recorder (per-ACK RTTs only if the recorder already tracks the
  /// id), and schedules its start.
  TransportFlow* add_flow(TransportFlow::Config cfg,
                          std::unique_ptr<CcAlgorithm> cc);

  /// Registers an unreliable source (already wired to the link) so its
  /// lifetime is managed here and its start is scheduled.
  void add_source(std::unique_ptr<TrafficSource> source);

  /// Installs a reverse-path (ACK) impairment stage shared by all flows
  /// (one common impaired return path).  Must be called before any flow is
  /// added so every flow's ACK stream is filtered from the start.
  void set_ack_impairment(std::unique_ptr<ImpairmentStage> stage);
  const ImpairmentStage* ack_impairment() const {
    return ack_impairment_.get();
  }

  /// Wires telemetry through the assembly: event-loop counters, link
  /// counters + mu(t) trace, one shared TransportObs for every flow
  /// (including flows added later, mid-run), and blackout tracing on the
  /// impairment stages.  Call at setup time, after any impairment stages
  /// are installed; `t` must outlive the Network.  nullptr detaches.
  void attach_telemetry(obs::Telemetry* t);

  /// Allocates a fresh flow id (for sources constructed by the caller).
  FlowId next_flow_id() { return next_id_++; }

  /// Marks an explicitly-numbered id as taken so next_flow_id() skips it.
  /// add_flow does this automatically; sources registered with an explicit
  /// id (CBR/Poisson) must reserve theirs or later auto-allocated ids can
  /// collide and silently merge flows in the recorder.
  void reserve_flow_id(FlowId id) { next_id_ = std::max(next_id_, id + 1); }

  /// Runs the simulation until simulated time `t_end`.
  void run_until(TimeNs t_end);

  const std::vector<std::unique_ptr<TransportFlow>>& flows() const {
    return flows_;
  }
  TransportFlow* flow_by_id(FlowId id);

 private:
  void init();

  EventLoop loop_;
  std::unique_ptr<BottleneckLink> link_;
  std::unique_ptr<ImpairmentStage> ack_impairment_;
  Recorder recorder_;
  std::vector<std::unique_ptr<TransportFlow>> flows_;
  /// FlowId-indexed flat lookup (the Recorder idiom): flow ids are small
  /// and dense, and the per-delivery flow_by_id is on the data path.
  std::vector<TransportFlow*> flow_index_;
  std::vector<std::unique_ptr<TrafficSource>> sources_;
  FlowId next_id_ = 1;
  bool recorder_attached_ = false;
  // Shared handles copied into every flow; re-derived by attach_telemetry.
  TransportObs transport_obs_;
};

}  // namespace nimbus::sim
