// Plan compilation cache — memoized planning for the serve hot path.
//
// The scheduler's admission loop and the serving front end call the same
// planning pipeline over and over: predicted_pipeline_footprint on every
// admission attempt (including each backoff retry), a full
// build-plus-optimize in estimate_pipeline_runtime per arriving job, and a
// plan lookup in Pipeline's constructor once the job starts. For repeated
// tenants every one of those calls recomputes a pure function of (device
// profile, spec shape). This module memoizes the three expensive results —
// the predicted ring footprint at a shape, the built+optimized full-loop
// ExecutionPlan (shared and immutable, so concurrent pipelines and dry runs
// replay one object), and the dry-run makespan — behind one bounded LRU
// keyed by a canonical fingerprint of everything the result depends on.
//
// Soundness: a fingerprint covers the device profile (name plus every
// numeric field), the loop bounds, opt level, per-array geometry (map,
// element size, dims, affine split, window), the host pinned-ness the plan
// bakes into transfer costs, and — for dry-run memos — the DryRunCost
// terms. Host pointers and mem_limit are deliberately excluded: plans are
// pointer-free (transfers go through ring-buffer bindings) and the memory
// limit only enters planning through the solved shape, which is part of the
// key. Specs with a window_fn split cannot be fingerprinted (arbitrary
// std::function) and bypass the cache entirely, as does everything when the
// capacity is 0 — a cached call and a computed call return identical
// values, so behaviour with the cache on is bit-identical to off.
//
// Thread safety: the LRU is mutex-guarded; misses compute outside the lock
// (plan building is pure), so the autotuner's dry-run workers share hits
// without serializing their simulations. hits/misses/evictions/bytes are
// atomics, exported as the plan_cache.* metric namespace.
//
// Persistence: an optional on-disk tier (set_disk_dir /
// GPUPIPE_PLAN_CACHE_DIR) makes entries outlive the process. Memory misses
// fall through to disk before computing; computed entries are written back
// atomically. The wire format, its corruption tolerance, and the AOT
// bundle path (`gpupipe_compile` → load_bundle) live in
// core/plan_serialize.hpp; disk traffic is counted in the
// plan_cache.disk.* metric namespace.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/flight_recorder.hpp"
#include "common/metrics.hpp"
#include "core/plan.hpp"
#include "core/plan_opt.hpp"

namespace gpupipe::core {

struct PlanBundle;

/// Point-in-time counters of one PlanCache.
struct PlanCacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t evictions = 0;
  Bytes bytes = 0;  ///< approximate resident bytes of the cached entries
  std::int64_t entries = 0;
  /// Disk-tier counters (all zero when no disk directory is configured).
  /// A memory miss that a disk entry satisfies counts as both a `miss` (the
  /// memory tier missed) and a `disk_hit` — the combined effective hit rate
  /// is (hits + disk_hits) / (hits + misses).
  std::int64_t disk_hits = 0;
  std::int64_t disk_misses = 0;
  std::int64_t disk_corrupt = 0;  ///< entries rejected and quarantined
  std::int64_t disk_writes = 0;
  std::int64_t disk_compacted = 0;  ///< files removed by compact_disk()
  Bytes disk_bytes_read = 0;
  Bytes disk_bytes_written = 0;

  double hit_rate() const {
    const std::int64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
  }
};

/// Bounded, thread-safe LRU over the three planning memos. One process-wide
/// instance() serves Pipeline, the solver/estimator entry points, the
/// admission controller, and the autotuner; tests may construct private
/// instances.
class PlanCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;

  /// Capacity 0 disables the cache: every call computes directly and no
  /// entry is stored. The GPUPIPE_PLAN_CACHE environment variable overrides
  /// the global instance's initial capacity.
  explicit PlanCache(std::size_t capacity = kDefaultCapacity) : capacity_(capacity) {}

  /// The process-global cache the planning entry points consult.
  static PlanCache& instance();

  /// A compiled full-loop plan plus the artifacts Pipeline needs alongside
  /// it. The plan is immutable and shared between every consumer.
  struct Compiled {
    std::shared_ptr<const ExecutionPlan> plan;
    OptReport report;
  };

  /// Predicted ring footprint of `spec` at shape (chunk_size, num_streams)
  /// — memoized predicted_pipeline_footprint.
  Bytes footprint(const gpu::Gpu& g, const PipelineSpec& spec, std::int64_t chunk_size,
                  int num_streams);

  /// The built+optimized full-loop plan of `spec` at its own shape, with
  /// ring lengths from the layout formulas (clamped to the array extents,
  /// exactly like RingBuffer) and pinned-ness read from `g` — node-identical
  /// to the plan Pipeline compiles at that shape.
  Compiled compile(const gpu::Gpu& g, const PipelineSpec& spec);

  /// Dry-run makespan of compile(g, spec)'s plan under `cost`. The caller
  /// resolves cost.live_streams before keying (estimate_pipeline_runtime
  /// defaults it to the solved stream count).
  SimTime estimate(const gpu::Gpu& g, const PipelineSpec& spec, const DryRunCost& cost);

  /// Whether `spec` can be keyed at all: static schedule and affine splits
  /// only (a window_fn is an arbitrary std::function). Non-fingerprintable
  /// specs compute directly on every call.
  static bool fingerprintable(const PipelineSpec& spec);

  /// The canonical key of `spec` at a shape on `g`'s device — exposed so
  /// tests can assert which field changes miss. Requires fingerprintable().
  static std::string fingerprint(const gpu::Gpu& g, const PipelineSpec& spec,
                                 std::int64_t chunk_size, int num_streams);

  /// The device-profile prefix every fingerprint starts with (name plus
  /// every numeric field, locale-independent). Bundle tune records key on
  /// this so plans tuned for one device never apply to another.
  static std::string profile_fingerprint(const gpu::DeviceProfile& profile);

  /// Enables (non-empty) or disables (empty) the on-disk tier: memory
  /// misses fall through to `dir`, and computed entries are written back
  /// with an atomic temp-file + rename. The directory is created if needed;
  /// creation failure leaves the tier disabled. Corrupt files — short
  /// reads, checksum mismatches, version skew, key mismatches — are counted
  /// in disk_corrupt, quarantined (renamed `*.quarantined`), and treated as
  /// misses; they never crash and never produce a wrong plan. The
  /// GPUPIPE_PLAN_CACHE_DIR environment variable seeds the global
  /// instance's directory.
  void set_disk_dir(const std::string& dir);
  std::string disk_dir() const;

  /// Optional flight-recorder hook: disk-tier hits and corruptions are
  /// recorded as DiskHit / DiskCorrupt events (stamped with the recorder's
  /// clock — the serve tool binds it to virtual time). Caller-owned; must
  /// outlive the cache's disk traffic. Null (the default) disables it.
  void set_recorder(telemetry::FlightRecorder* rec) {
    recorder_.store(rec, std::memory_order_relaxed);
  }

  /// What one compact_disk() pass did to the disk directory.
  struct CompactionReport {
    std::int64_t scanned = 0;              ///< regular files examined
    std::int64_t removed_quarantined = 0;  ///< `*.quarantined` corpses
    std::int64_t removed_stale = 0;  ///< `.plan` files with version/magic skew
    std::int64_t removed_temp = 0;   ///< leftover `*.tmp.*` write debris
    std::int64_t kept = 0;           ///< current-format `.plan` files retained
    Bytes bytes_reclaimed = 0;       ///< total size of everything removed
    std::int64_t removed() const {
      return removed_quarantined + removed_stale + removed_temp;
    }
  };

  /// Garbage-collects the disk tier: deletes quarantined corpses, `.plan`
  /// files whose header magic/version no longer matches this binary (a new
  /// format version would otherwise strand the old records forever), and
  /// temp files orphaned by a crashed writer. Current-format records are
  /// untouched — compaction never invalidates a servable entry. Removals
  /// are counted in the disk_compacted stat. No-op without a disk dir.
  CompactionReport compact_disk();

  /// Admits every compatible artifact of `bundle` into the memory tier
  /// (Tune records are skipped — the caller applies those to job specs).
  /// Counts toward neither hits nor misses. Returns the number admitted.
  std::size_t load_bundle(const PlanBundle& bundle);

  /// Snapshots the resident entries into `bundle` (appended,
  /// least-recently-used first, so re-loading reproduces the recency
  /// order). Tune records are never resident and are not exported.
  void export_bundle(PlanBundle& bundle) const;

  void set_capacity(std::size_t n);
  std::size_t capacity() const;
  bool enabled() const { return capacity() > 0; }
  /// Drops every memory-tier entry (stats are kept — see reset_stats —
  /// and on-disk entries persist: the next miss re-reads them).
  void clear();
  void reset_stats();
  PlanCacheStats stats() const;

  /// Exports the plan_cache.{hits,misses,evictions,bytes,entries,capacity}
  /// namespace — plus plan_cache.disk.{hits,misses,corrupt,writes,
  /// compacted,bytes_read,bytes_written} when a disk tier is configured —
  /// into `reg`
  /// (prefix prepended, matching the other collectors).
  void collect_metrics(telemetry::Registry& reg, const std::string& prefix = {}) const;

 private:
  struct Entry {
    std::shared_ptr<const ExecutionPlan> plan;  ///< compile entries
    OptReport report;
    Bytes footprint = 0;     ///< footprint entries
    SimTime makespan = 0.0;  ///< estimate entries
    Bytes cost = 0;          ///< approximate bytes charged to the bytes stat
  };

  std::shared_ptr<const Entry> find(const std::string& key);
  void insert(const std::string& key, std::shared_ptr<const Entry> entry);
  bool usable(const PipelineSpec& spec) const {
    return enabled() && fingerprintable(spec);
  }

  /// Memory miss fall-through: reads the key's disk entry (if a disk dir is
  /// set), validates it, admits it to the memory tier, and returns it.
  /// Returns nullptr on miss or corruption. IO runs outside the LRU lock.
  std::shared_ptr<const Entry> disk_load(const std::string& key);
  /// Write-back after a computed miss (atomic temp + rename; best effort).
  void disk_store(const std::string& key, const Entry& entry);
  std::string disk_path(const std::string& key) const;

  mutable std::mutex mu_;
  std::size_t capacity_;
  /// MRU-first key order; the map holds list iterators for O(1) touch.
  std::list<std::string> lru_;
  struct Slot {
    std::shared_ptr<const Entry> entry;
    std::list<std::string>::iterator pos;
  };
  std::unordered_map<std::string, Slot> map_;
  Bytes bytes_ = 0;
  std::string disk_dir_;  ///< empty = disk tier off (guarded by mu_)
  std::atomic<std::int64_t> hits_{0};
  std::atomic<std::int64_t> misses_{0};
  std::atomic<std::int64_t> evictions_{0};
  std::atomic<std::int64_t> disk_hits_{0};
  std::atomic<std::int64_t> disk_misses_{0};
  std::atomic<std::int64_t> disk_corrupt_{0};
  std::atomic<std::int64_t> disk_writes_{0};
  std::atomic<std::int64_t> disk_compacted_{0};
  std::atomic<std::int64_t> disk_bytes_read_{0};
  std::atomic<std::int64_t> disk_bytes_written_{0};
  std::atomic<telemetry::FlightRecorder*> recorder_{nullptr};
};

}  // namespace gpupipe::core
