// Sim-time flight recorder: the trace layer of NIMBUS_OBS.
//
// A pre-sized ring of fixed-width, sim-time-stamped trace events capturing
// the decisions the scalar metrics can't explain: mode switches, detector
// evaluations, pulse phase transitions, loss/blackout episodes, cwnd
// collapses, mu(t) changes.  Appending is a bounds-check plus a struct
// store into preallocated storage — allocation-free and R5-clean, so hot
// paths can trace unconditionally through a null-guarded handle.
//
// When the ring fills it overwrites the oldest entry (post-mortem use
// favours the most recent history; `dropped()` reports how much was
// lost).  Exporters emit Chrome trace-event JSON (loadable in Perfetto /
// chrome://tracing) and CSV, always to a caller-chosen FILE* — never
// stdout, so bench goldens stay byte-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "util/time.h"

namespace nimbus::obs {

/// What a trace event records.  Values are stable across runs (they appear
/// in exported artifacts); append new kinds at the end.
enum class TraceKind : std::uint16_t {
  kModeSwitch = 1,       // a=to mode, b=from mode, v0=eta at switch
  kDetectorDecision = 2, // a=verdict mode, b=band-max bin,
                         // v0=eta, v1=raw eta, v2=effective threshold
  kPulsePhase = 3,       // a=new phase index (half-period), v0=pulse freq Hz
  kLossEpisode = 4,      // flow=flow id, a=lost seq, v0=cwnd bytes
  kBlackoutBegin = 5,    // a=stage tag (0=data, 1=ack)
  kBlackoutEnd = 6,      // a=stage tag
  kCwndCollapse = 7,     // flow=flow id, v0=new cwnd, v1=old cwnd
  kMuChange = 8,         // v0=new rate bps, v1=old rate bps
  kRtoFired = 9,         // flow=flow id, a=backoff exponent
};

const char* trace_kind_name(TraceKind k);

/// Fixed-width record.  48 bytes; `t` is sim time.  Unused fields are 0.
struct TraceEvent {
  TimeNs t = 0;
  std::uint16_t kind = 0;
  std::uint16_t pad = 0;
  std::uint32_t flow = 0;  // sim::FlowId
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  double v0 = 0;
  double v1 = 0;
  double v2 = 0;

  friend bool operator==(const TraceEvent& x, const TraceEvent& y) {
    return x.t == y.t && x.kind == y.kind && x.flow == y.flow && x.a == y.a &&
           x.b == y.b && x.v0 == y.v0 && x.v1 == y.v1 && x.v2 == y.v2;
  }
};
static_assert(sizeof(TraceEvent) == 48, "trace records stay 48 bytes");

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 16384;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  /// Hot-path append: overwrites the oldest event once full.
  void append(const TraceEvent& e) {
    ring_[head_] = e;
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    if (size_ < ring_.size()) {
      ++size_;
    } else {
      ++dropped_;
    }
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return ring_.size(); }
  std::uint64_t dropped() const { return dropped_; }

  /// Events oldest-first (allocates; not for hot paths).
  std::vector<TraceEvent> snapshot() const;

  /// Chrome trace-event JSON ({"traceEvents":[...]}): instant events per
  /// record plus an "eta" counter track from detector decisions, so
  /// Perfetto renders the decision timeline directly.
  void write_chrome_trace(std::FILE* f) const;

  /// One row per event: t_ns,kind,flow,a,b,v0,v1,v2 (header included).
  void write_csv(std::FILE* f) const;

 private:
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  // next write position
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Null-guarded tracing handle for embedding in sim/core components.
struct Trace {
  FlightRecorder* rec = nullptr;
  void emit(const TraceEvent& e) const {
    if (rec != nullptr) rec->append(e);
  }
  bool active() const { return rec != nullptr; }
};

}  // namespace nimbus::obs
