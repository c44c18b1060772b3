// Versioned binary serialization for plan-cache artifacts — the persistence
// layer behind the on-disk plan-cache tier and the `gpupipe_compile` AOT
// bundles.
//
// The in-memory PlanCache (core/plan_cache.hpp) dies with the process, so a
// serve fleet of N replicas re-tunes and re-plans every job template N times
// on every restart. This module defines a corruption-tolerant wire format
// for the cache's memoized results so they can be written once and shared
// across processes and machines:
//
//   * PlanArtifact — one cache entry (a compiled ExecutionPlan + OptReport,
//     a predicted footprint, a dry-run makespan) or one TuneResult, tagged
//     with the canonical cache key it was computed under. The key doubles as
//     the integrity echo: a reader that looks an artifact up by key rejects
//     any record whose embedded key disagrees (hash-collision and
//     wrong-file safety).
//   * PlanBundle — an ordered collection of artifacts in one file, the unit
//     `gpupipe_compile` ships and `gpupipe_serve --bundle` loads at startup.
//
// Wire format (all integers little-endian, floats as IEEE-754 bit patterns):
//
//   artifact := magic u32 | version u32 | kind u32 | flags u32
//             | key_len u64 | key bytes            (fingerprint echo)
//             | payload_len u64 | payload bytes    (kind-specific)
//             | checksum u64                       (FNV-1a of all prior bytes)
//   bundle   := magic u32 | version u32 | count u64
//             | count x (record_len u64 | artifact bytes)
//             | checksum u64                       (FNV-1a of all prior bytes)
//
// Readers never trust a length: every read is bounds-checked against the
// remaining bytes, element counts are validated against the space they
// would occupy, enums are range-checked, and the trailing checksum is
// verified before any payload is decoded. Any violation — short read, bit
// flip, version skew, truncation, garbage — makes deserialization return
// false with a diagnostic; it never throws and never crashes. Callers (the
// PlanCache disk tier) treat a false return as a cache miss and recompute.
// klee-mc's persistent solver caches are the model: content-hash keys,
// corruption-tolerant reads, and hit/corrupt counters on every path.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/autotune.hpp"
#include "core/plan.hpp"
#include "core/plan_opt.hpp"

namespace gpupipe::core {

/// First bytes of every serialized artifact ("GPCE") and bundle ("GPBN").
inline constexpr std::uint32_t kPlanArtifactMagic = 0x45435047u;
inline constexpr std::uint32_t kPlanBundleMagic = 0x4e425047u;
/// Bumped on any wire-format change; readers reject other versions (skew is
/// a miss, not an error — a new binary simply recomputes and rewrites).
/// v2: PlanNode grew the `peer` shard field (P2pSend/P2pRecv halo nodes).
/// v3: DeviceHandoff stitching — PlanArrayInfo grew handoff_link/handoff_out,
///     PassStats grew elapsed_s, OptReport grew stitched_bytes/fused_kernels.
/// v4: PassStats::elapsed_s (wall clock) is no longer persisted, so two
///     compiles of the same input write byte-identical records.
inline constexpr std::uint32_t kPlanFormatVersion = 4;

/// What one artifact carries. Values are part of the wire format.
enum class ArtifactKind : std::uint32_t {
  Plan = 1,       ///< ExecutionPlan + OptReport (a `plan|` cache entry)
  Footprint = 2,  ///< predicted ring footprint (a `fp|` cache entry)
  Estimate = 3,   ///< dry-run makespan (an `est|` cache entry)
  Tune = 4,       ///< TuneResult of one job template (bundle-only)
};

/// One serializable plan-cache result. Only the fields of the active `kind`
/// are meaningful; the others stay default-initialized.
struct PlanArtifact {
  ArtifactKind kind = ArtifactKind::Plan;
  /// The canonical PlanCache key (including its `plan|`/`fp|`/`est|`
  /// prefix), or tune_artifact_key() for Tune records. Echoed on disk and
  /// verified on read.
  std::string key;
  ExecutionPlan plan;      ///< Plan
  OptReport report;        ///< Plan
  Bytes footprint = 0;     ///< Footprint
  SimTime estimate = 0.0;  ///< Estimate
  TuneResult tune;         ///< Tune
};

/// An ordered set of artifacts shipped as one file.
struct PlanBundle {
  std::vector<PlanArtifact> artifacts;
};

/// The canonical bundle key of a TuneResult: device-profile fingerprint plus
/// the job-template name (e.g. "stencil/large"), so a bundle tuned for one
/// device is never applied to another.
std::string tune_artifact_key(const gpu::DeviceProfile& profile,
                              const std::string& job_template);

/// Serializes one artifact (header, key echo, payload, trailing checksum).
std::string serialize_artifact(const PlanArtifact& a);

/// Parses `bytes` into `out`. Returns false — with a diagnostic in `error`
/// if non-null — on any corruption: bad magic, version skew, short read,
/// checksum mismatch, invalid enum, or trailing garbage. Never throws.
bool deserialize_artifact(std::string_view bytes, PlanArtifact& out,
                          std::string* error = nullptr);

/// Serializes a bundle (each artifact record length-prefixed, file-level
/// trailing checksum over everything).
std::string serialize_bundle(const PlanBundle& b);

/// Parses a serialized bundle. All-or-nothing: any corrupt record (or the
/// file-level checksum) fails the whole read. Never throws.
bool deserialize_bundle(std::string_view bytes, PlanBundle& out,
                        std::string* error = nullptr);

/// Writes `b` to `path` atomically: serialized into a temp file in the same
/// directory, then renamed over the destination, so concurrent readers see
/// either the old bundle or the new one — never a torn write. Returns false
/// (with `error`) on IO failure.
bool write_bundle_file(const std::string& path, const PlanBundle& b,
                       std::string* error = nullptr);

/// Reads and parses a bundle file. Returns false (with `error`) when the
/// file is missing, unreadable, or fails deserialize_bundle.
bool read_bundle_file(const std::string& path, PlanBundle& out,
                      std::string* error = nullptr);

}  // namespace gpupipe::core
