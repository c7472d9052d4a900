// Fixed-slot metrics registry: the counters layer of NIMBUS_OBS.
//
// Deterministic, allocation-free telemetry for the simulator's hot paths.
// All instruments are *registered* at setup time (registration may
// allocate: it stores the instrument name) and *updated* from
// NIMBUS_HOT_PATH regions with plain array writes — an update is one
// predictable null test plus a store, so it is detlint R5-clean by
// construction and cheap enough to leave compiled into every hot loop.
//
// Handles are nullable: a component constructed without telemetry holds
// default (null) handles whose updates are no-ops.  That single branch is
// the entire telemetry-off cost, and the BM_EventLoopSteadyStateCountersOn
// pair in bench_micro gates the counters-on cost at within 10% of off.
//
// None of this ever touches stdout: snapshots go to the sweep manifest
// (exp/runner.cc) or to caller-chosen FILE*s, keeping bench goldens
// byte-identical under every NIMBUS_OBS mode.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace nimbus::obs {

/// Monotone event count.  Null handle = telemetry off (no-op update).
struct Counter {
  std::uint64_t* v = nullptr;
  void inc(std::uint64_t n = 1) const {
    if (v != nullptr) *v += n;
  }
  bool active() const { return v != nullptr; }
};

/// log2-bucketed histogram over unsigned values: bucket k counts samples
/// with bit_width(x) == k (bucket 0 is exactly x == 0), so bucket k >= 1
/// spans [2^(k-1), 2^k).  64 fixed buckets cover the whole uint64 range.
struct Histogram {
  static constexpr std::size_t kBuckets = 64;

  std::uint64_t* b = nullptr;  // kBuckets slots owned by the registry
  static std::size_t bucket_of(std::uint64_t x) {
    std::size_t w = 0;
    while (x != 0) {
      x >>= 1;
      ++w;
    }
    return w < kBuckets ? w : kBuckets - 1;
  }
  void observe(std::uint64_t x) const {
    if (b != nullptr) ++b[bucket_of(x)];
  }
  bool active() const { return b != nullptr; }
};

/// Fixed-slot registry: one per scenario (never shared across the
/// ParallelRunner's workers, so updates need no synchronization).  Slot
/// arrays are flat members — a handle is a raw pointer into them, stable
/// for the registry's lifetime.  CHECK-fails on slot exhaustion rather
/// than growing: growth would invalidate outstanding handles.
class MetricsRegistry {
 public:
  static constexpr std::size_t kMaxCounters = 64;
  static constexpr std::size_t kMaxHistograms = 8;

  MetricsRegistry();

  /// Registration (setup time only; names are copied).  Registering the
  /// same name twice returns the same slot, so e.g. every TransportFlow
  /// in a scenario shares one "transport.acks" counter.
  Counter counter(const std::string& name);
  Histogram histogram(const std::string& name);

  /// Flat (name, value) snapshot for roll-ups and the sweep manifest:
  /// counters by name, histograms flattened to
  /// "<name>.p2_<k>" entries for non-empty buckets plus "<name>.count".
  /// Deterministic order: registration order, buckets ascending.
  std::vector<std::pair<std::string, double>> snapshot() const;

 private:
  std::vector<std::string> counter_names_;
  std::vector<std::string> histogram_names_;
  std::uint64_t counters_[kMaxCounters];
  std::uint64_t hist_buckets_[kMaxHistograms * Histogram::kBuckets];
};

}  // namespace nimbus::obs
