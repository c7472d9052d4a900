// Canonical serialization + content hash of ScenarioSpec.
//
// PR 4 made every bench a declarative ScenarioSpec grid, and each
// (spec, seed) cell is a pure deterministic function of the spec (parallel
// == serial and fixed-seed bit-identity are test-enforced).  That makes
// the whole suite one addressable computation — *if* a spec can be named
// by content.  This header provides that name:
//
//   * canonical_spec(spec) — a total, stable text serialization.  Every
//     field of ScenarioSpec and every nested struct (CrossSpec, LinkSpec,
//     ProtagonistSpec, Nimbus::Config, FlowWorkload::Config, FlowSizeDist,
//     PolicerConfig, RateStep, ImpairmentSpec, ImpairmentConfig, Outage) is
//     emitted in a fixed order with defaults made explicit; doubles are
//     serialized as their exact IEEE-754 bit patterns (no rounding, no
//     locale); trace-file link specs embed a hash of the trace *content*,
//     so editing a trace invalidates specs that reference it.
//   * spec_hash(spec) — a 128-bit FNV-1a hash of the canonical text, the
//     key the disk result cache (exp/result_cache.h) and the NIMBUS_SHARD
//     cell partition are built on.
//
// Field-coverage guard: spec_canon.cc static_asserts the sizeof of every
// serialized struct against the kCanonSizeof* constants below (on the
// x86-64/linux toolchain this repo builds and CI runs on).  Adding a field
// to any of these structs changes its size and breaks the build until the
// canonicalizer — and the constant — are updated, so no field can silently
// escape canonicalization.  tests/cache_test.cc exercises the same guard
// at runtime.
#pragma once

#include <cstdint>
#include <string>

#include "exp/scenario.h"

namespace nimbus::exp {

/// 128-bit content hash (two 64-bit halves, printed big-endian hi||lo).
struct Hash128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool operator==(const Hash128& o) const { return hi == o.hi && lo == o.lo; }
  bool operator!=(const Hash128& o) const { return !(*this == o); }

  /// 32 lowercase hex chars.
  std::string hex() const;
};

/// 128-bit FNV-1a over a byte string.
Hash128 fnv128(const void* data, std::size_t len);
inline Hash128 fnv128(const std::string& s) { return fnv128(s.data(), s.size()); }

/// The canonical serialization: total (every field, defaults explicit),
/// stable (fixed field order, exact float bits), and versioned (the first
/// line carries a format version; bump it when the serialization itself
/// changes meaning).  CHECK-fails on specs that cannot be canonicalized —
/// gate call sites with spec_cacheable().
std::string canonical_spec(const ScenarioSpec& spec);

/// Hash of canonical_spec(spec).
Hash128 spec_hash(const ScenarioSpec& spec);

/// True if the spec's behaviour is fully captured by canonical_spec.  The
/// one escape hatch today is FlowWorkload::Config::cc_factory: a
/// std::function cannot be serialized, so specs installing a custom cross
/// CC factory are not content-addressable (they run uncached).  A kTrace
/// link whose trace file is unreadable is also uncacheable (the content
/// hash cannot be computed; build_network would fail on it anyway).
bool spec_cacheable(const ScenarioSpec& spec);

// ---------------------------------------------------------------------------
// Field-coverage guard sizes (x86-64 linux, libstdc++).  spec_canon.cc
// static_asserts sizeof(T) == kCanonSizeof<T> for every struct the
// canonicalizer walks; update the serializer *and* the constant together.
// ---------------------------------------------------------------------------
inline constexpr std::size_t kCanonSizeofRateStep = 16;
inline constexpr std::size_t kCanonSizeofPolicerConfig = 24;
inline constexpr std::size_t kCanonSizeofOutage = 16;
inline constexpr std::size_t kCanonSizeofImpairmentConfig = 120;
inline constexpr std::size_t kCanonSizeofImpairmentSpec = 240;
inline constexpr std::size_t kCanonSizeofNimbusConfig = 64;
inline constexpr std::size_t kCanonSizeofFlowSizeBand = 24;
inline constexpr std::size_t kCanonSizeofFlowSizeDist = 56;
inline constexpr std::size_t kCanonSizeofWorkloadConfig = 104;
inline constexpr std::size_t kCanonSizeofLinkSpec = 104;
inline constexpr std::size_t kCanonSizeofCrossSpec = 160;
inline constexpr std::size_t kCanonSizeofProtagonistSpec = 144;
inline constexpr std::size_t kCanonSizeofScenarioSpec = 768;

}  // namespace nimbus::exp
