#include "core/plan_serialize.hpp"

#include <atomic>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>

#include "common/checksum.hpp"

namespace gpupipe::core {

namespace {

// ---------------------------------------------------------------------------
// Byte-level encoding. Integers are written little-endian byte by byte (the
// format is defined by these functions, not by host endianness or struct
// layout), doubles as their IEEE-754 bit patterns.

class ByteWriter {
 public:
  explicit ByteWriter(std::string& out) : out_(out) {}

  void u8(std::uint8_t v) { out_ += static_cast<char>(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    out_ += s;
  }

 private:
  std::string& out_;
};

/// Bounds-checked reader: the first failed read latches `ok() == false` with
/// a message, and every subsequent read returns a zero value, so decoders
/// can read straight through and check once. Never reads past the buffer.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool at_end() const { return pos_ == bytes_.size(); }

  void fail(const std::string& why) {
    if (ok_) {
      ok_ = false;
      error_ = why;
    }
  }

  std::uint8_t u8() {
    if (!need(1)) return 0;
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(bytes_[pos_++])) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(bytes_[pos_++])) << (8 * i);
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str() {
    const std::uint64_t n = u64();
    if (!ok_ || n > remaining()) {
      fail("string length exceeds remaining bytes");
      return {};
    }
    std::string s(bytes_.substr(pos_, static_cast<std::size_t>(n)));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }
  /// An element count for a sequence whose elements occupy at least
  /// `min_elem_bytes` each — rejected when the buffer cannot possibly hold
  /// that many, so a corrupt count fails fast instead of looping.
  std::uint64_t count(std::size_t min_elem_bytes) {
    const std::uint64_t n = u64();
    if (ok_ && min_elem_bytes > 0 && n > remaining() / min_elem_bytes)
      fail("element count exceeds remaining bytes");
    return ok_ ? n : 0;
  }

 private:
  bool need(std::size_t n) {
    if (!ok_) return false;
    if (remaining() < n) {
      fail("short read");
      return false;
    }
    return true;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
};

std::uint64_t checksum_of(std::string_view bytes) {
  return fnv1a(std::span<const char>(bytes.data(), bytes.size()));
}

// ---------------------------------------------------------------------------
// Payload codecs, one write/read pair per struct. Readers validate every
// enum against its legal range; any violation is corruption.

void write_plan(ByteWriter& w, const ExecutionPlan& p) {
  w.i64(p.num_streams);
  w.i64(p.chunk_size);
  w.str(p.origin);
  w.u64(p.arrays.size());
  for (const PlanArrayInfo& a : p.arrays) {
    w.str(a.name);
    w.u32(static_cast<std::uint32_t>(a.map));
    w.i64(a.ring_len);
    w.i64(a.ring_rows);
    w.u64(a.unit_bytes);
    w.u8(a.pinned ? 1 : 0);
    w.i64(a.handoff_link);
    w.u8(a.handoff_out ? 1 : 0);
  }
  w.u64(p.nodes.size());
  for (const PlanNode& n : p.nodes) {
    w.i64(n.id);
    w.u32(static_cast<std::uint32_t>(n.op));
    w.i64(n.stream);
    w.i64(n.array);
    w.i64(n.chunk);
    w.i64(n.begin);
    w.i64(n.end);
    w.i64(n.row_begin);
    w.i64(n.row_end);
    w.i64(n.tile_i);
    w.i64(n.tile_j);
    w.u64(n.deps.size());
    for (int d : n.deps) w.i64(d);
    w.u64(n.segments.size());
    for (const PlanSegment& s : n.segments) {
      w.i64(s.slot);
      w.i64(s.index);
      w.i64(s.count);
      w.i64(s.row_slot);
      w.i64(s.row);
      w.i64(s.rows);
      w.u64(s.width);
      w.u64(s.height);
    }
    w.u64(n.accesses.size());
    for (const PlanAccess& a : n.accesses) {
      w.i64(a.array);
      w.i64(a.lo);
      w.i64(a.hi);
      w.i64(a.row_lo);
      w.i64(a.row_hi);
      w.u8(a.write ? 1 : 0);
    }
    w.f64(n.flops);
    w.u64(n.bytes);
    w.u8(n.records_event ? 1 : 0);
    w.i64(n.event_node);
    w.i64(n.peer);
    w.str(n.label);
  }
}

void read_plan(ByteReader& r, ExecutionPlan& p) {
  p.num_streams = static_cast<int>(r.i64());
  p.chunk_size = r.i64();
  p.origin = r.str();
  const std::uint64_t num_arrays = r.count(8 + 4 + 8 + 8 + 8 + 1 + 8 + 1);
  p.arrays.resize(static_cast<std::size_t>(num_arrays));
  for (PlanArrayInfo& a : p.arrays) {
    a.name = r.str();
    const std::uint32_t map = r.u32();
    if (map > static_cast<std::uint32_t>(MapType::ToFrom)) r.fail("invalid MapType");
    a.map = static_cast<MapType>(map);
    a.ring_len = r.i64();
    a.ring_rows = r.i64();
    a.unit_bytes = r.u64();
    a.pinned = r.u8() != 0;
    a.handoff_link = static_cast<int>(r.i64());
    a.handoff_out = r.u8() != 0;
    if (!r.ok()) return;
  }
  const std::uint64_t num_nodes = r.count(8 * 10 + 4);
  p.nodes.resize(static_cast<std::size_t>(num_nodes));
  for (PlanNode& n : p.nodes) {
    n.id = static_cast<int>(r.i64());
    const std::uint32_t op = r.u32();
    if (op > static_cast<std::uint32_t>(PlanOp::DeviceHandoff)) r.fail("invalid PlanOp");
    n.op = static_cast<PlanOp>(op);
    n.stream = static_cast<int>(r.i64());
    n.array = static_cast<int>(r.i64());
    n.chunk = r.i64();
    n.begin = r.i64();
    n.end = r.i64();
    n.row_begin = r.i64();
    n.row_end = r.i64();
    n.tile_i = r.i64();
    n.tile_j = r.i64();
    const std::uint64_t num_deps = r.count(8);
    n.deps.resize(static_cast<std::size_t>(num_deps));
    for (int& d : n.deps) d = static_cast<int>(r.i64());
    const std::uint64_t num_segments = r.count(8 * 8);
    n.segments.resize(static_cast<std::size_t>(num_segments));
    for (PlanSegment& s : n.segments) {
      s.slot = r.i64();
      s.index = r.i64();
      s.count = r.i64();
      s.row_slot = r.i64();
      s.row = r.i64();
      s.rows = r.i64();
      s.width = r.u64();
      s.height = r.u64();
    }
    const std::uint64_t num_accesses = r.count(8 * 5 + 1);
    n.accesses.resize(static_cast<std::size_t>(num_accesses));
    for (PlanAccess& a : n.accesses) {
      a.array = static_cast<int>(r.i64());
      a.lo = r.i64();
      a.hi = r.i64();
      a.row_lo = r.i64();
      a.row_hi = r.i64();
      a.write = r.u8() != 0;
    }
    n.flops = r.f64();
    n.bytes = r.u64();
    n.records_event = r.u8() != 0;
    n.event_node = static_cast<int>(r.i64());
    n.peer = static_cast<int>(r.i64());
    n.label = r.str();
    if (!r.ok()) return;
  }
}

void write_report(ByteWriter& w, const OptReport& rep) {
  w.u64(rep.passes.size());
  for (const PassStats& ps : rep.passes) {
    w.str(ps.pass);
    w.i64(ps.nodes_removed);
    w.i64(ps.nodes_changed);
    w.u64(ps.bytes_saved);
    w.u64(ps.bytes_saved_by_array.size());
    for (const auto& [name, bytes] : ps.bytes_saved_by_array) {
      w.str(name);
      w.u64(bytes);
    }
  }
  w.u64(rep.h2d_bytes_before);
  w.u64(rep.h2d_bytes_after);
  w.u64(rep.d2h_bytes_before);
  w.u64(rep.d2h_bytes_after);
  w.i64(rep.nodes_before);
  w.i64(rep.nodes_after);
  w.u64(rep.stitched_bytes);
  w.i64(rep.fused_kernels);
}

void read_report(ByteReader& r, OptReport& rep) {
  const std::uint64_t num_passes = r.count(8 * 5);
  rep.passes.resize(static_cast<std::size_t>(num_passes));
  for (PassStats& ps : rep.passes) {
    ps.pass = r.str();
    ps.nodes_removed = r.i64();
    ps.nodes_changed = r.i64();
    ps.bytes_saved = r.u64();
    const std::uint64_t num_arrays = r.count(8 + 8);
    ps.bytes_saved_by_array.resize(static_cast<std::size_t>(num_arrays));
    for (auto& [name, bytes] : ps.bytes_saved_by_array) {
      name = r.str();
      bytes = r.u64();
    }
    if (!r.ok()) return;
  }
  rep.h2d_bytes_before = r.u64();
  rep.h2d_bytes_after = r.u64();
  rep.d2h_bytes_before = r.u64();
  rep.d2h_bytes_after = r.u64();
  rep.nodes_before = r.i64();
  rep.nodes_after = r.i64();
  rep.stitched_bytes = r.u64();
  rep.fused_kernels = r.i64();
}

void write_tune(ByteWriter& w, const TuneResult& t) {
  w.i64(t.chunk_size);
  w.i64(t.num_streams);
  w.f64(t.best_time);
  w.u64(t.explored.size());
  for (const TuneCandidate& c : t.explored) {
    w.i64(c.chunk_size);
    w.i64(c.num_streams);
    w.f64(c.measured);
    w.u8(c.feasible ? 1 : 0);
  }
}

void read_tune(ByteReader& r, TuneResult& t) {
  t.chunk_size = r.i64();
  t.num_streams = static_cast<int>(r.i64());
  t.best_time = r.f64();
  const std::uint64_t num_explored = r.count(8 * 3 + 1);
  t.explored.resize(static_cast<std::size_t>(num_explored));
  for (TuneCandidate& c : t.explored) {
    c.chunk_size = r.i64();
    c.num_streams = static_cast<int>(r.i64());
    c.measured = r.f64();
    c.feasible = r.u8() != 0;
  }
}

void write_payload(ByteWriter& w, const PlanArtifact& a) {
  switch (a.kind) {
    case ArtifactKind::Plan:
      write_plan(w, a.plan);
      write_report(w, a.report);
      break;
    case ArtifactKind::Estimate:
      w.f64(a.estimate);
      break;
    case ArtifactKind::Tune:
      write_tune(w, a.tune);
      break;
  }
}

bool read_payload(ByteReader& r, PlanArtifact& a) {
  switch (a.kind) {
    case ArtifactKind::Plan:
      read_plan(r, a.plan);
      read_report(r, a.report);
      break;
    case ArtifactKind::Estimate:
      a.estimate = r.f64();
      break;
    case ArtifactKind::Tune:
      read_tune(r, a.tune);
      break;
  }
  if (r.ok() && !r.at_end()) r.fail("trailing garbage after payload");
  return r.ok();
}

bool set_error(std::string* error, const std::string& why) {
  if (error) *error = why;
  return false;
}

}  // namespace

std::string tune_artifact_key(const gpu::DeviceProfile& profile,
                              const std::string& job_template) {
  return "tune|" + gpu::profile_key(profile) + job_template;
}

std::string serialize_artifact(const PlanArtifact& a) {
  std::string payload;
  {
    ByteWriter pw(payload);
    write_payload(pw, a);
  }
  std::string out;
  out.reserve(4 * 4 + 16 + a.key.size() + payload.size() + 8);
  ByteWriter w(out);
  w.u32(kPlanArtifactMagic);
  w.u32(kPlanFormatVersion);
  w.u32(static_cast<std::uint32_t>(a.kind));
  w.u32(0);  // flags
  w.str(a.key);
  w.str(payload);
  w.u64(checksum_of(out));
  return out;
}

bool deserialize_artifact(std::string_view bytes, PlanArtifact& out, std::string* error) {
  if (bytes.size() < 4 * 4 + 8 + 8 + 8) return set_error(error, "artifact too short");
  // Verify the trailing checksum before decoding anything: a bit flip
  // anywhere in the record is caught here, not by a payload validator.
  const std::string_view body = bytes.substr(0, bytes.size() - 8);
  ByteReader tail(bytes.substr(bytes.size() - 8));
  if (tail.u64() != checksum_of(body)) return set_error(error, "checksum mismatch");

  ByteReader r(body);
  if (r.u32() != kPlanArtifactMagic) return set_error(error, "bad artifact magic");
  const std::uint32_t version = r.u32();
  if (version != kPlanFormatVersion)
    return set_error(error, "format version skew (" + std::to_string(version) + ")");
  const std::uint32_t kind = r.u32();
  if (kind != static_cast<std::uint32_t>(ArtifactKind::Plan) &&
      kind != static_cast<std::uint32_t>(ArtifactKind::Estimate) &&
      kind != static_cast<std::uint32_t>(ArtifactKind::Tune))
    return set_error(error, "invalid artifact kind");
  r.u32();  // flags (reserved)
  PlanArtifact a;
  a.kind = static_cast<ArtifactKind>(kind);
  a.key = r.str();
  const std::string payload = r.str();
  if (r.ok() && !r.at_end()) r.fail("trailing garbage after artifact");
  if (!r.ok()) return set_error(error, r.error());

  ByteReader pr(payload);
  if (!read_payload(pr, a)) return set_error(error, pr.error());
  out = std::move(a);
  return true;
}

std::string serialize_bundle(const PlanBundle& b) {
  std::string out;
  ByteWriter w(out);
  w.u32(kPlanBundleMagic);
  w.u32(kPlanFormatVersion);
  w.u64(b.artifacts.size());
  for (const PlanArtifact& a : b.artifacts) w.str(serialize_artifact(a));
  w.u64(checksum_of(out));
  return out;
}

bool deserialize_bundle(std::string_view bytes, PlanBundle& out, std::string* error) {
  if (bytes.size() < 4 + 4 + 8 + 8) return set_error(error, "bundle too short");
  const std::string_view body = bytes.substr(0, bytes.size() - 8);
  ByteReader tail(bytes.substr(bytes.size() - 8));
  if (tail.u64() != checksum_of(body)) return set_error(error, "bundle checksum mismatch");

  ByteReader r(body);
  if (r.u32() != kPlanBundleMagic) return set_error(error, "bad bundle magic");
  const std::uint32_t version = r.u32();
  if (version != kPlanFormatVersion)
    return set_error(error, "bundle version skew (" + std::to_string(version) + ")");
  const std::uint64_t count = r.count(8);
  PlanBundle b;
  b.artifacts.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::string record = r.str();
    if (!r.ok()) return set_error(error, r.error());
    PlanArtifact a;
    std::string record_error;
    if (!deserialize_artifact(record, a, &record_error))
      return set_error(error,
                       "record " + std::to_string(i) + " corrupt: " + record_error);
    b.artifacts.push_back(std::move(a));
  }
  if (!r.at_end()) return set_error(error, "trailing garbage after bundle records");
  out = std::move(b);
  return true;
}

bool write_bundle_file(const std::string& path, const PlanBundle& b, std::string* error) {
  namespace fs = std::filesystem;
  const std::string bytes = serialize_bundle(b);
  std::error_code ec;
  const fs::path dest(path);
  if (dest.has_parent_path()) {
    fs::create_directories(dest.parent_path(), ec);  // best effort; open reports
  }
  // Unique-per-process temp name in the destination directory, so the final
  // rename is same-filesystem and atomic.
  static std::atomic<std::uint64_t> temp_seq{0};
  char suffix[64];
  std::snprintf(suffix, sizeof(suffix), ".tmp.%llx.%llu",
                static_cast<unsigned long long>(checksum_of(path)),
                static_cast<unsigned long long>(temp_seq.fetch_add(1)));
  const fs::path temp = dest.string() + suffix;
  {
    std::ofstream os(temp, std::ios::binary | std::ios::trunc);
    if (!os || !os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()))) {
      fs::remove(temp, ec);
      return set_error(error, "cannot write " + temp.string());
    }
  }
  fs::rename(temp, dest, ec);
  if (ec) {
    fs::remove(temp, ec);
    return set_error(error, "cannot rename bundle into place: " + dest.string());
  }
  return true;
}

bool read_bundle_file(const std::string& path, PlanBundle& out, std::string* error) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return set_error(error, "cannot open " + path);
  std::string bytes((std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  if (is.bad()) return set_error(error, "read error on " + path);
  return deserialize_bundle(bytes, out, error);
}

}  // namespace gpupipe::core
