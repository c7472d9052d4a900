// Experiment measurement: per-flow delivered bytes and drops, per-ACK RTT
// samples and per-packet queueing delay for tracked flows, sampled queue
// state, and flow completion times.
//
// Flow ids are small and dense (the Network allocates them sequentially),
// so all per-flow state is held in flat vectors indexed by FlowId instead
// of the PR 2-era std::map/std::set — the per-delivery and per-ACK hooks
// are branch + array-index instead of a tree walk.  RTT series live behind
// stable unique_ptr cells so Network can hand a tracked TransportFlow's
// ACK handler a direct TimeSeries pointer (rtt_series()) that survives
// later flow registrations.  Untracked flows (cross traffic, workload
// flows) record no RTT series at all: nothing reads one.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/packet.h"
#include "util/stats.h"
#include "util/time.h"
#include "util/timeseries.h"

namespace nimbus::sim {

class EventLoop;
class BottleneckLink;

class Recorder {
 public:
  /// Starts the periodic queue probe (default every 10 ms).
  void attach(EventLoop* loop, BottleneckLink* link,
              TimeNs probe_interval = from_ms(10));

  /// Pre-sizes the probe series for a run of the given length (called by
  /// Network::run_until with the scenario duration so steady-state probing
  /// never reallocates).
  void expect_duration(TimeNs duration);

  /// Tracked flows get per-packet queueing-delay and per-ACK RTT series
  /// (others only get byte and drop counters, which are cheap).  Track a
  /// flow before Network::add_flow, which wires the RTT recorder.
  void track_flow(FlowId id) {
    if (id >= tracked_.size()) tracked_.resize(id + 1, 0);
    tracked_[id] = 1;
  }
  bool is_tracked(FlowId id) const {
    return id < tracked_.size() && tracked_[id] != 0;
  }

  // --- hooks called by Network ---
  void on_delivery(const Packet& p, TimeNs dequeue_done);
  void on_drop(const Packet& p);
  void on_completion(FlowId id, TimeNs when, TimeNs fct,
                     std::int64_t flow_bytes);

  /// Stable per-flow RTT series cell (created on first use): Network wires
  /// each flow's ACK handler to this pointer, so the per-ACK hot path adds
  /// a sample with zero lookups.
  util::TimeSeries* rtt_series(FlowId id);

  // --- accessors ---
  /// Bytes delivered through the bottleneck, per flow.
  const util::ByteCounter& delivered(FlowId id) const;
  /// Per-packet queueing delay (tracked flows only).
  const util::TimeSeries& queue_delay(FlowId id) const;
  /// Per-ACK RTT samples (tracked flows only).
  const util::TimeSeries& rtt_samples(FlowId id) const;
  /// Queue delay sampled by the periodic probe (all traffic).
  const util::TimeSeries& probed_queue_delay() const { return probe_qdelay_; }
  std::uint64_t drops(FlowId id) const;

  struct Completion {
    FlowId id;
    TimeNs when;
    TimeNs fct;
    std::int64_t bytes;
  };
  const std::vector<Completion>& completions() const { return completions_; }

 private:
  void probe_tick();
  void ensure_flow(FlowId id);

  EventLoop* loop_ = nullptr;
  BottleneckLink* link_ = nullptr;
  TimeNs probe_interval_ = 0;

  std::vector<char> tracked_;                 // indexed by FlowId
  std::vector<util::ByteCounter> delivered_;
  std::vector<std::uint64_t> drops_;
  std::vector<std::unique_ptr<util::TimeSeries>> queue_delay_;
  std::vector<std::unique_ptr<util::TimeSeries>> rtt_;
  util::TimeSeries probe_qdelay_;
  std::vector<Completion> completions_;
};

}  // namespace nimbus::sim
