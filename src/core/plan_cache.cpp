#include "core/plan_cache.hpp"

#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <utility>

#include "common/checksum.hpp"
#include "common/error.hpp"
#include "core/buffer.hpp"
#include "core/layout.hpp"
#include "core/plan_serialize.hpp"

namespace gpupipe::core {

namespace {

void append_i64(std::string& out, std::int64_t v) {
  out += std::to_string(v);
  out += '|';
}

// Hexfloat: exact round-trip, so two cost hints differing in the last ulp
// key differently (bit-identical results require bit-identical inputs).
// std::to_chars, not snprintf("%a"): printf's hexfloat spells the radix
// point with the LC_NUMERIC decimal character, so the same spec would hash
// differently under e.g. a comma-decimal locale — fatal once keys persist
// on disk and travel between machines. to_chars is locale-independent by
// specification.
void append_f64(std::string& out, double v) {
  char buf[40];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::hex);
  require(ec == std::errc{}, "plan cache: hexfloat encoding failed");
  out.append(buf, end);
  out += '|';
}

/// Every numeric field of the device profile, name first. Keying on the
/// profile's content (not the Gpu instance) lets separate devices — and the
/// serve tool's solo-baseline machines — share one compiled plan.
void append_profile(std::string& out, const gpu::DeviceProfile& p) {
  out += p.name;
  out += '|';
  append_i64(out, static_cast<std::int64_t>(p.total_memory));
  append_i64(out, static_cast<std::int64_t>(p.reserved_memory));
  append_i64(out, static_cast<std::int64_t>(p.context_memory));
  append_i64(out, static_cast<std::int64_t>(p.per_stream_memory));
  append_f64(out, p.peak_flops);
  append_f64(out, p.mem_bandwidth);
  append_f64(out, p.pcie_bandwidth);
  append_i64(out, static_cast<std::int64_t>(p.pcie_half_saturation));
  append_i64(out, static_cast<std::int64_t>(p.pcie_row_half_saturation));
  append_f64(out, p.pageable_penalty);
  append_f64(out, p.copy_setup_latency);
  append_f64(out, p.copy_segment_latency);
  append_f64(out, p.kernel_launch_latency);
  append_f64(out, p.api_call_host_overhead);
  append_f64(out, p.sched_overhead_per_stream);
  append_i64(out, p.h2d_engines);
  append_i64(out, p.d2h_engines);
  append_i64(out, p.unified_copy_engine ? 1 : 0);
  append_i64(out, p.max_concurrent_kernels);
  append_i64(out, static_cast<std::int64_t>(p.pitch_alignment));
  append_i64(out, static_cast<std::int64_t>(p.alloc_alignment));
}

/// The uncached predicted footprint — the arithmetic
/// predicted_pipeline_footprint (core/plan.cpp) delegates here through the
/// cache, so this is the single definition.
Bytes raw_footprint(const gpu::Gpu& g, const PipelineSpec& spec, std::int64_t chunk_size,
                    int num_streams) {
  Bytes total = 0;
  for (const auto& a : spec.arrays)
    total += RingBuffer::predict_footprint(
        g, a,
        layout::ring_len_for_spec(a, spec.loop_begin, spec.loop_end, chunk_size,
                                  num_streams));
  return total;
}

/// The uncached full-loop compile: identical construction to the predicted
/// builder in core/plan.cpp and to Pipeline::build_plan at the same shape
/// (ring lengths clamped to the array extents exactly like RingBuffer, host
/// pinned-ness read from the device).
PlanCache::Compiled raw_compile(const gpu::Gpu& g, const PipelineSpec& spec) {
  spec.validate();
  PipelineBuildState state;
  state.ring_lens.reserve(spec.arrays.size());
  state.pinned.reserve(spec.arrays.size());
  for (const auto& a : spec.arrays) {
    state.ring_lens.push_back(
        std::min(layout::ring_len_for_spec(a, spec.loop_begin, spec.loop_end,
                                           spec.chunk_size, spec.num_streams),
                 a.dims[static_cast<std::size_t>(a.split.dim)]));
    state.pinned.push_back(g.is_pinned(a.host));
  }
  ExecutionPlan plan = PlanBuilder::pipeline(spec, spec.chunk_size, spec.num_streams,
                                             spec.loop_begin, spec.loop_end, state);
  PlanCache::Compiled out;
  out.report = optimize_plan(plan, spec.opt_level, &g.profile());
  out.plan = std::make_shared<const ExecutionPlan>(std::move(plan));
  return out;
}

Bytes approx_plan_bytes(const ExecutionPlan& p) {
  Bytes b = sizeof(ExecutionPlan);
  for (const PlanNode& n : p.nodes) {
    b += sizeof(PlanNode);
    b += static_cast<Bytes>(n.deps.capacity()) * sizeof(int);
    b += static_cast<Bytes>(n.segments.capacity()) * sizeof(PlanSegment);
    b += static_cast<Bytes>(n.accesses.capacity()) * sizeof(PlanAccess);
    b += n.label.size();
  }
  for (const PlanArrayInfo& a : p.arrays) b += sizeof(PlanArrayInfo) + a.name.size();
  return b;
}

std::size_t initial_capacity() {
  if (const char* e = std::getenv("GPUPIPE_PLAN_CACHE")) {
    char* end = nullptr;
    const long long v = std::strtoll(e, &end, 10);
    if (end != e && *end == '\0' && v >= 0) return static_cast<std::size_t>(v);
  }
  return PlanCache::kDefaultCapacity;
}

/// GPUPIPE_PLAN_CACHE_TRACE=1 prints every memory-tier miss and insert with
/// its full fingerprint key to stderr — the tool for diagnosing why a warmed
/// cache or an AOT bundle fails to hit (diff the keys the producer inserted
/// against the keys the consumer missed).
bool trace_enabled() {
  static const bool on = std::getenv("GPUPIPE_PLAN_CACHE_TRACE") != nullptr;
  return on;
}

/// 16-hex-digit content hash used as the on-disk file name (the full key is
/// echoed inside the file and verified on read, so a hash collision or a
/// renamed file is detected as a mismatch, not served).
std::string key_hash_hex(const std::string& key) {
  const std::uint64_t h = fnv1a(std::span<const char>(key.data(), key.size()));
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// The cache-key prefix each artifact kind persists under (Tune records
/// only ever live in bundles, never in the entry store).
const char* kind_prefix(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::Plan: return "plan|";
    case ArtifactKind::Footprint: return "fp|";
    case ArtifactKind::Estimate: return "est|";
    case ArtifactKind::Tune: return nullptr;
  }
  return nullptr;
}

ArtifactKind kind_of_key(const std::string& key) {
  if (key.rfind("plan|", 0) == 0) return ArtifactKind::Plan;
  if (key.rfind("fp|", 0) == 0) return ArtifactKind::Footprint;
  return ArtifactKind::Estimate;  // "est|..." — the only other entry prefix
}

}  // namespace

PlanCache& PlanCache::instance() {
  static PlanCache cache(initial_capacity());
  static const bool seeded = [] {
    if (const char* e = std::getenv("GPUPIPE_PLAN_CACHE_DIR"); e && *e)
      cache.set_disk_dir(e);
    return true;
  }();
  (void)seeded;
  return cache;
}

std::string PlanCache::profile_fingerprint(const gpu::DeviceProfile& profile) {
  std::string out;
  out.reserve(192);
  append_profile(out, profile);
  return out;
}

bool PlanCache::fingerprintable(const PipelineSpec& spec) {
  if (spec.schedule != ScheduleKind::Static) return false;
  for (const auto& a : spec.arrays)
    if (a.split.window_fn) return false;
  return true;
}

std::string PlanCache::fingerprint(const gpu::Gpu& g, const PipelineSpec& spec,
                                   std::int64_t chunk_size, int num_streams) {
  require(fingerprintable(spec),
          "plan cache: spec is not fingerprintable (window_fn or non-static schedule)");
  std::string key;
  key.reserve(256);
  append_profile(key, g.profile());
  append_i64(key, spec.opt_level);
  append_i64(key, spec.loop_begin);
  append_i64(key, spec.loop_end);
  append_i64(key, chunk_size);
  append_i64(key, num_streams);
  for (const auto& a : spec.arrays) {
    key += a.name;
    key += '|';
    append_i64(key, static_cast<std::int64_t>(a.map));
    append_i64(key, static_cast<std::int64_t>(a.elem_size));
    for (auto d : a.dims) append_i64(key, d);
    key += ';';
    append_i64(key, a.split.dim);
    append_i64(key, a.split.start.scale);
    append_i64(key, a.split.start.offset);
    append_i64(key, a.split.window);
    append_i64(key, g.is_pinned(a.host) ? 1 : 0);
  }
  // Shard halo wiring changes the emitted nodes (P2pSend/P2pRecv replace
  // host uploads), so each shard of a decomposition gets its own honest
  // fingerprint — and never collides with the solo plan of the same range.
  for (const auto& h : spec.halos) {
    key += "halo|";
    append_i64(key, h.array);
    append_i64(key, h.recv_lo);
    append_i64(key, h.recv_peer);
    append_i64(key, h.send_hi);
    append_i64(key, h.send_peer);
  }
  // Handoff wiring likewise reshapes the plan (DeviceHandoff replaces the
  // host transfers), so a stitched lineage job never aliases its unstitched
  // twin in the cache.
  for (const auto& h : spec.handoffs) {
    key += "handoff|";
    append_i64(key, h.array);
    append_i64(key, h.link);
    append_i64(key, h.produce ? 1 : 0);
  }
  return key;
}

std::shared_ptr<const PlanCache::Entry> PlanCache::find(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    if (trace_enabled()) std::fprintf(stderr, "plan_cache: miss %s\n", key.c_str());
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  lru_.splice(lru_.begin(), lru_, it->second.pos);  // touch: move to MRU
  return it->second.entry;
}

void PlanCache::insert(const std::string& key, std::shared_ptr<const Entry> entry) {
  std::lock_guard<std::mutex> lock(mu_);
  if (trace_enabled()) std::fprintf(stderr, "plan_cache: insert %s\n", key.c_str());
  if (capacity_ == 0) return;
  if (map_.find(key) != map_.end()) return;  // a racing miss filled it first
  lru_.push_front(key);
  bytes_ += entry->cost;
  map_.emplace(key, Slot{std::move(entry), lru_.begin()});
  while (map_.size() > capacity_) {
    auto victim = map_.find(lru_.back());
    bytes_ -= victim->second.entry->cost;
    map_.erase(victim);
    lru_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

Bytes PlanCache::footprint(const gpu::Gpu& g, const PipelineSpec& spec,
                           std::int64_t chunk_size, int num_streams) {
  if (!usable(spec)) return raw_footprint(g, spec, chunk_size, num_streams);
  const std::string key = "fp|" + fingerprint(g, spec, chunk_size, num_streams);
  if (auto e = find(key)) return e->footprint;
  if (auto e = disk_load(key)) return e->footprint;
  auto e = std::make_shared<Entry>();
  e->footprint = raw_footprint(g, spec, chunk_size, num_streams);
  e->cost = static_cast<Bytes>(key.size()) + sizeof(Entry);
  const Bytes fp = e->footprint;
  disk_store(key, *e);
  insert(key, std::move(e));
  return fp;
}

PlanCache::Compiled PlanCache::compile(const gpu::Gpu& g, const PipelineSpec& spec) {
  if (!usable(spec)) return raw_compile(g, spec);
  const std::string key = "plan|" + fingerprint(g, spec, spec.chunk_size, spec.num_streams);
  if (auto e = find(key)) return Compiled{e->plan, e->report};
  if (auto e = disk_load(key)) return Compiled{e->plan, e->report};
  Compiled built = raw_compile(g, spec);
  auto e = std::make_shared<Entry>();
  e->plan = built.plan;
  e->report = built.report;
  e->cost = static_cast<Bytes>(key.size()) + sizeof(Entry) + approx_plan_bytes(*built.plan);
  disk_store(key, *e);
  insert(key, std::move(e));
  return built;
}

SimTime PlanCache::estimate(const gpu::Gpu& g, const PipelineSpec& spec,
                            const DryRunCost& cost) {
  if (!usable(spec)) {
    const Compiled built = raw_compile(g, spec);
    return dry_run(*built.plan, g.profile(), cost, DryRunTrace::MakespanOnly).makespan;
  }
  std::string key = "est|" + fingerprint(g, spec, spec.chunk_size, spec.num_streams);
  append_f64(key, cost.flops_per_iter);
  append_f64(key, cost.bytes_per_iter);
  append_f64(key, cost.seconds_per_iter);
  append_i64(key, cost.live_streams);
  if (auto e = find(key)) return e->makespan;
  if (auto e = disk_load(key)) return e->makespan;
  const Compiled built = compile(g, spec);
  auto e = std::make_shared<Entry>();
  e->makespan =
      dry_run(*built.plan, g.profile(), cost, DryRunTrace::MakespanOnly).makespan;
  e->cost = static_cast<Bytes>(key.size()) + sizeof(Entry);
  const SimTime makespan = e->makespan;
  disk_store(key, *e);
  insert(key, std::move(e));
  return makespan;
}

void PlanCache::set_disk_dir(const std::string& dir) {
  std::string resolved = dir;
  if (!resolved.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(resolved, ec);
    if (ec) resolved.clear();  // unusable directory: leave the tier off
  }
  std::lock_guard<std::mutex> lock(mu_);
  disk_dir_ = std::move(resolved);
}

std::string PlanCache::disk_dir() const {
  std::lock_guard<std::mutex> lock(mu_);
  return disk_dir_;
}

std::string PlanCache::disk_path(const std::string& key) const {
  const std::string dir = disk_dir();
  if (dir.empty()) return {};
  return dir + "/" + key_hash_hex(key) + ".plan";
}

std::shared_ptr<const PlanCache::Entry> PlanCache::disk_load(const std::string& key) {
  const std::string path = disk_path(key);
  if (path.empty()) return nullptr;
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    if (!is) {
      disk_misses_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    bytes.assign(std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>());
    if (is.bad()) bytes.clear();
  }
  PlanArtifact a;
  bool ok = deserialize_artifact(bytes, a);
  // The embedded key must be exactly the one asked for: a filename-hash
  // collision, a renamed/copied file, or fingerprint-format drift between
  // builds all land here as a mismatch instead of being served.
  ok = ok && a.key == key && kind_prefix(a.kind) != nullptr &&
       key.rfind(kind_prefix(a.kind), 0) == 0;
  std::shared_ptr<Entry> e;
  if (ok) {
    e = std::make_shared<Entry>();
    switch (a.kind) {
      case ArtifactKind::Plan: {
        auto plan = std::make_shared<ExecutionPlan>(std::move(a.plan));
        // A checksum-valid but hazardous graph (FNV is not cryptographic)
        // must never reach an executor; re-prove it race-free like the
        // builder did.
        try {
          plan->validate_once();
        } catch (...) {
          ok = false;
        }
        e->plan = std::move(plan);
        e->report = std::move(a.report);
        e->cost = static_cast<Bytes>(key.size()) + sizeof(Entry) + approx_plan_bytes(*e->plan);
        break;
      }
      case ArtifactKind::Footprint:
        e->footprint = a.footprint;
        e->cost = static_cast<Bytes>(key.size()) + sizeof(Entry);
        break;
      case ArtifactKind::Estimate:
        e->makespan = a.estimate;
        e->cost = static_cast<Bytes>(key.size()) + sizeof(Entry);
        break;
      case ArtifactKind::Tune:
        ok = false;  // tune results are bundle-only, never entry files
        break;
    }
  }
  if (!ok) {
    disk_corrupt_.fetch_add(1, std::memory_order_relaxed);
    if (auto* rec = recorder_.load(std::memory_order_relaxed))
      rec->record_now(telemetry::FlightEventKind::DiskCorrupt);
    // Quarantine the bad file so the next lookup recomputes without
    // re-parsing it and the operator can inspect what went wrong.
    std::error_code ec;
    std::filesystem::rename(path, path + ".quarantined", ec);
    if (ec) std::filesystem::remove(path, ec);
    return nullptr;
  }
  disk_hits_.fetch_add(1, std::memory_order_relaxed);
  disk_bytes_read_.fetch_add(static_cast<std::int64_t>(bytes.size()),
                             std::memory_order_relaxed);
  if (auto* rec = recorder_.load(std::memory_order_relaxed))
    rec->record_now(telemetry::FlightEventKind::DiskHit, -1, -1, -1,
                    static_cast<std::int64_t>(bytes.size()));
  insert(key, e);
  return e;
}

void PlanCache::disk_store(const std::string& key, const Entry& entry) {
  const std::string path = disk_path(key);
  if (path.empty()) return;
  PlanArtifact a;
  a.kind = kind_of_key(key);
  a.key = key;
  switch (a.kind) {
    case ArtifactKind::Plan:
      if (!entry.plan) return;
      a.plan = *entry.plan;
      a.report = entry.report;
      break;
    case ArtifactKind::Footprint:
      a.footprint = entry.footprint;
      break;
    case ArtifactKind::Estimate:
      a.estimate = entry.makespan;
      break;
    case ArtifactKind::Tune:
      return;
  }
  const std::string bytes = serialize_artifact(a);
  // Unique-enough temp name (per-process ASLR address + sequence) in the
  // destination directory, so the final rename is same-filesystem atomic.
  // Two replicas racing on one temp name at worst produce a torn file that
  // the next read quarantines and recomputes — degraded, never wrong.
  static std::atomic<std::uint64_t> seq{0};
  char suffix[48];
  std::snprintf(suffix, sizeof(suffix), ".tmp.%llx.%llu",
                static_cast<unsigned long long>(reinterpret_cast<std::uintptr_t>(&seq)),
                static_cast<unsigned long long>(seq.fetch_add(1)));
  const std::string temp = path + suffix;
  std::error_code ec;
  {
    std::ofstream os(temp, std::ios::binary | std::ios::trunc);
    if (!os || !os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()))) {
      std::filesystem::remove(temp, ec);
      return;
    }
  }
  std::filesystem::rename(temp, path, ec);
  if (ec) {
    std::filesystem::remove(temp, ec);
    return;
  }
  disk_writes_.fetch_add(1, std::memory_order_relaxed);
  disk_bytes_written_.fetch_add(static_cast<std::int64_t>(bytes.size()),
                                std::memory_order_relaxed);
}

PlanCache::CompactionReport PlanCache::compact_disk() {
  CompactionReport rep;
  const std::string dir = disk_dir();
  if (dir.empty()) return rep;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::error_code fec;
    if (!entry.is_regular_file(fec) || fec) continue;
    const std::string name = entry.path().filename().string();
    ++rep.scanned;
    enum class Fate { Keep, Quarantined, Temp, Stale };
    Fate fate = Fate::Keep;
    if (name.size() > 12 && name.ends_with(".quarantined")) {
      fate = Fate::Quarantined;
    } else if (name.find(".tmp.") != std::string::npos) {
      // Debris from a writer that died between temp-write and rename.
      fate = Fate::Temp;
    } else if (name.ends_with(".plan")) {
      // Header probe only (magic + version, both little-endian u32): a
      // full-format record from another version will never be served, so
      // it is dead weight; a current-version record is kept even if its
      // body is damaged — the read path quarantines those with a precise
      // corruption count, which compaction must not preempt.
      std::uint8_t header[8] = {};
      std::ifstream is(entry.path(), std::ios::binary);
      const bool got =
          is && is.read(reinterpret_cast<char*>(header), sizeof(header)).gcount() ==
                    static_cast<std::streamsize>(sizeof(header));
      auto le32 = [&](int off) {
        std::uint32_t v = 0;
        for (int i = 3; i >= 0; --i) v = (v << 8) | header[off + i];
        return v;
      };
      if (!got || le32(0) != kPlanArtifactMagic || le32(4) != kPlanFormatVersion)
        fate = Fate::Stale;
    }
    if (fate == Fate::Keep) {
      ++rep.kept;
      continue;
    }
    const auto size = entry.file_size(fec);
    std::error_code rec_ec;
    if (!std::filesystem::remove(entry.path(), rec_ec) || rec_ec) {
      ++rep.kept;  // undeletable: count it as surviving, not reclaimed
      continue;
    }
    if (!fec) rep.bytes_reclaimed += static_cast<Bytes>(size);
    switch (fate) {
      case Fate::Quarantined: ++rep.removed_quarantined; break;
      case Fate::Temp: ++rep.removed_temp; break;
      case Fate::Stale: ++rep.removed_stale; break;
      case Fate::Keep: break;
    }
  }
  disk_compacted_.fetch_add(rep.removed(), std::memory_order_relaxed);
  return rep;
}

std::size_t PlanCache::load_bundle(const PlanBundle& bundle) {
  if (!enabled()) return 0;
  std::size_t admitted = 0;
  for (const PlanArtifact& a : bundle.artifacts) {
    const char* prefix = kind_prefix(a.kind);
    if (prefix == nullptr || a.key.rfind(prefix, 0) != 0) continue;
    auto e = std::make_shared<Entry>();
    switch (a.kind) {
      case ArtifactKind::Plan: {
        auto plan = std::make_shared<ExecutionPlan>(a.plan);
        try {
          plan->validate_once();
        } catch (...) {
          plan.reset();
        }
        if (!plan) continue;
        e->plan = std::move(plan);
        e->report = a.report;
        e->cost =
            static_cast<Bytes>(a.key.size()) + sizeof(Entry) + approx_plan_bytes(*e->plan);
        break;
      }
      case ArtifactKind::Footprint:
        e->footprint = a.footprint;
        e->cost = static_cast<Bytes>(a.key.size()) + sizeof(Entry);
        break;
      case ArtifactKind::Estimate:
        e->makespan = a.estimate;
        e->cost = static_cast<Bytes>(a.key.size()) + sizeof(Entry);
        break;
      case ArtifactKind::Tune:
        continue;
    }
    insert(a.key, std::move(e));
    ++admitted;
  }
  return admitted;
}

void PlanCache::export_bundle(PlanBundle& bundle) const {
  std::vector<std::pair<std::string, std::shared_ptr<const Entry>>> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot.reserve(map_.size());
    // Least-recent first, so load_bundle's front-inserts rebuild the same
    // recency order this cache had.
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      auto found = map_.find(*it);
      if (found != map_.end()) snapshot.emplace_back(*it, found->second.entry);
    }
  }
  for (auto& [key, e] : snapshot) {
    PlanArtifact a;
    a.kind = kind_of_key(key);
    a.key = key;
    switch (a.kind) {
      case ArtifactKind::Plan:
        if (!e->plan) continue;
        a.plan = *e->plan;
        a.report = e->report;
        break;
      case ArtifactKind::Footprint:
        a.footprint = e->footprint;
        break;
      case ArtifactKind::Estimate:
        a.estimate = e->makespan;
        break;
      case ArtifactKind::Tune:
        continue;
    }
    bundle.artifacts.push_back(std::move(a));
  }
}

void PlanCache::set_capacity(std::size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = n;
  while (map_.size() > capacity_) {
    auto victim = map_.find(lru_.back());
    bytes_ -= victim->second.entry->cost;
    map_.erase(victim);
    lru_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::size_t PlanCache::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  lru_.clear();
  bytes_ = 0;
}

void PlanCache::reset_stats() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  disk_hits_.store(0, std::memory_order_relaxed);
  disk_misses_.store(0, std::memory_order_relaxed);
  disk_corrupt_.store(0, std::memory_order_relaxed);
  disk_writes_.store(0, std::memory_order_relaxed);
  disk_compacted_.store(0, std::memory_order_relaxed);
  disk_bytes_read_.store(0, std::memory_order_relaxed);
  disk_bytes_written_.store(0, std::memory_order_relaxed);
}

PlanCacheStats PlanCache::stats() const {
  PlanCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.disk_hits = disk_hits_.load(std::memory_order_relaxed);
  s.disk_misses = disk_misses_.load(std::memory_order_relaxed);
  s.disk_corrupt = disk_corrupt_.load(std::memory_order_relaxed);
  s.disk_writes = disk_writes_.load(std::memory_order_relaxed);
  s.disk_compacted = disk_compacted_.load(std::memory_order_relaxed);
  s.disk_bytes_read = static_cast<Bytes>(disk_bytes_read_.load(std::memory_order_relaxed));
  s.disk_bytes_written =
      static_cast<Bytes>(disk_bytes_written_.load(std::memory_order_relaxed));
  std::lock_guard<std::mutex> lock(mu_);
  s.bytes = bytes_;
  s.entries = static_cast<std::int64_t>(map_.size());
  return s;
}

void PlanCache::collect_metrics(telemetry::Registry& reg, const std::string& prefix) const {
  const PlanCacheStats s = stats();
  const std::string p = prefix + "plan_cache.";
  reg.counter(p + "hits").add(s.hits);
  reg.counter(p + "misses").add(s.misses);
  reg.counter(p + "evictions").add(s.evictions);
  reg.gauge(p + "bytes").set(static_cast<double>(s.bytes));
  reg.gauge(p + "entries").set(static_cast<double>(s.entries));
  reg.gauge(p + "capacity").set(static_cast<double>(capacity()));
  reg.gauge(p + "hit_rate").set(s.hit_rate());
  reg.counter(p + "disk.hits").add(s.disk_hits);
  reg.counter(p + "disk.misses").add(s.disk_misses);
  reg.counter(p + "disk.corrupt").add(s.disk_corrupt);
  reg.counter(p + "disk.writes").add(s.disk_writes);
  reg.counter(p + "disk.compacted").add(s.disk_compacted);
  reg.counter(p + "disk.bytes_read").add(static_cast<std::int64_t>(s.disk_bytes_read));
  reg.counter(p + "disk.bytes_written")
      .add(static_cast<std::int64_t>(s.disk_bytes_written));
}

}  // namespace gpupipe::core
