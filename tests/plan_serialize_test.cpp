// Plan-artifact serialization and the on-disk plan-cache tier: byte-exact
// round trips on the paper's Fig. 4 / Fig. 7 pipeline shapes, and corruption
// tolerance — truncation, bit flips, zero-length files, version skew, and
// swapped entries must all degrade to a silent recompute (counted in
// plan_cache.disk.corrupt), never a crash and never a wrong result.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "common/checksum.hpp"
#include "core/plan_cache.hpp"
#include "core/plan_serialize.hpp"
#include "gpu/device_profile.hpp"

namespace gpupipe::core {
namespace {

namespace fs = std::filesystem;

// Fig. 7: one halo'd input grid feeding one output grid (stencil).
PipelineSpec fig7_spec(gpu::Gpu& g, std::int64_t nz, std::int64_t plane) {
  std::byte* in = g.host_alloc(static_cast<Bytes>(nz * plane) * 8, true);
  std::byte* out = g.host_alloc(static_cast<Bytes>(nz * plane) * 8, true);
  PipelineSpec spec;
  spec.loop_begin = 1;
  spec.loop_end = nz - 1;
  spec.arrays = {
      ArraySpec{"in", MapType::To, in, 8, {nz, plane}, SplitSpec{0, Affine{1, -1}, 3}},
      ArraySpec{"out", MapType::From, out, 8, {nz, plane}, SplitSpec{0, Affine{1, 0}, 1}},
  };
  return spec;
}

// Fig. 4: a haloless streaming update of one resident array (tofrom).
PipelineSpec fig4_spec(gpu::Gpu& g, std::int64_t rows, std::int64_t cols) {
  std::byte* data = g.host_alloc(static_cast<Bytes>(rows * cols) * 8, true);
  PipelineSpec spec;
  spec.loop_begin = 0;
  spec.loop_end = rows;
  spec.arrays = {
      ArraySpec{"data", MapType::ToFrom, data, 8, {rows, cols},
                SplitSpec{0, Affine{1, 0}, 1}},
  };
  return spec;
}

/// A per-test scratch directory under the system temp dir, wiped on entry.
fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("gpupipe_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<fs::path> plan_files(const fs::path& dir) {
  std::vector<fs::path> out;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.path().extension() == ".plan") out.push_back(e.path());
  return out;
}

std::string slurp(const fs::path& p) {
  std::ifstream f(p, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f), {});
}

void spill(const fs::path& p, const std::string& bytes) {
  std::ofstream f(p, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Patches the u32 at `offset` and rewrites the trailing checksum so only
/// the patched field — not the checksum — differs from a valid record.
std::string patch_u32(std::string bytes, std::size_t offset, std::uint32_t value) {
  for (int i = 0; i < 4; ++i)
    bytes[offset + static_cast<std::size_t>(i)] =
        static_cast<char>((value >> (8 * i)) & 0xffu);
  const std::uint64_t sum =
      fnv1a(std::span<const char>(bytes.data(), bytes.size() - 8));
  for (int i = 0; i < 8; ++i)
    bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<char>((sum >> (8 * i)) & 0xffu);
  return bytes;
}

PlanArtifact make_plan_artifact(gpu::Gpu& g, PlanCache& cache,
                                const PipelineSpec& spec) {
  PlanArtifact a;
  a.kind = ArtifactKind::Plan;
  a.key = "plan|" + PlanCache::fingerprint(g, spec, spec.chunk_size, spec.num_streams);
  const PlanCache::Compiled built = cache.compile(g, spec);
  a.plan = *built.plan;
  a.report = built.report;
  return a;
}

TEST(PlanSerialize, PlanArtifactRoundTripIsByteExact) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  g.hazards().set_enabled(false);
  PlanCache cache(8);

  PipelineSpec spec = fig7_spec(g, 32, 256);
  spec.chunk_size = 4;
  spec.num_streams = 3;
  spec.opt_level = 2;
  const PlanArtifact a = make_plan_artifact(g, cache, spec);
  ASSERT_FALSE(a.plan.nodes.empty());

  const std::string bytes = serialize_artifact(a);
  PlanArtifact out;
  std::string error;
  ASSERT_TRUE(deserialize_artifact(bytes, out, &error)) << error;
  EXPECT_EQ(out.kind, ArtifactKind::Plan);
  EXPECT_EQ(out.key, a.key);
  EXPECT_EQ(out.plan.nodes.size(), a.plan.nodes.size());
  EXPECT_EQ(out.plan.arrays.size(), a.plan.arrays.size());
  EXPECT_EQ(out.plan.chunk_size, a.plan.chunk_size);
  EXPECT_EQ(out.plan.num_streams, a.plan.num_streams);
  EXPECT_EQ(out.report.nodes_after, a.report.nodes_after);
  EXPECT_NO_THROW(out.plan.validate());
  // Re-serializing the decoded artifact reproduces the input byte for byte:
  // nothing is lost, reordered, or re-encoded differently.
  EXPECT_EQ(serialize_artifact(out), bytes);
  // Records are reproducible: pass wall times stay out of the wire format
  // (v4), so an independent compile of the same spec writes the same bytes.
  for (const PassStats& ps : out.report.passes) EXPECT_EQ(ps.elapsed_s, 0.0) << ps.pass;
  PlanCache other(8);
  EXPECT_EQ(serialize_artifact(make_plan_artifact(g, other, spec)), bytes);
}

TEST(PlanSerialize, TuneAndScalarArtifactsRoundTrip) {
  TuneResult tune;
  tune.chunk_size = 48;
  tune.num_streams = 5;
  tune.best_time = 3.25e-3;
  tune.explored = {{16, 2, 4.5e-3, true}, {48, 5, 3.25e-3, true}, {64, 8, 0.0, false}};

  PlanArtifact t;
  t.kind = ArtifactKind::Tune;
  t.key = tune_artifact_key(gpu::nvidia_k40m(), "stencil/large");
  t.tune = tune;

  PlanArtifact fp;
  fp.kind = ArtifactKind::Footprint;
  fp.key = "fp|test";
  fp.footprint = 123456789;

  PlanArtifact est;
  est.kind = ArtifactKind::Estimate;
  est.key = "est|test";
  est.estimate = 7.5e-4;

  for (const PlanArtifact* a : {&t, &fp, &est}) {
    const std::string bytes = serialize_artifact(*a);
    PlanArtifact out;
    std::string error;
    ASSERT_TRUE(deserialize_artifact(bytes, out, &error)) << error;
    EXPECT_EQ(out.kind, a->kind);
    EXPECT_EQ(out.key, a->key);
    EXPECT_EQ(serialize_artifact(out), bytes);
  }
}

TEST(PlanSerialize, BundleFileRoundTripsAtomically) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  g.hazards().set_enabled(false);
  PlanCache cache(8);
  const fs::path dir = fresh_dir("plan_serialize_bundle");

  PipelineSpec s7 = fig7_spec(g, 24, 128);
  PipelineSpec s4 = fig4_spec(g, 64, 64);
  s4.chunk_size = 8;
  s4.num_streams = 2;
  PlanBundle bundle;
  bundle.artifacts.push_back(make_plan_artifact(g, cache, s7));
  bundle.artifacts.push_back(make_plan_artifact(g, cache, s4));
  PlanArtifact tune;
  tune.kind = ArtifactKind::Tune;
  tune.key = tune_artifact_key(g.profile(), "stream/small");
  tune.tune.chunk_size = 8;
  tune.tune.num_streams = 2;
  bundle.artifacts.push_back(tune);

  const fs::path path = dir / "mix.gpb";
  std::string error;
  ASSERT_TRUE(write_bundle_file(path.string(), bundle, &error)) << error;
  // Atomic write: no temp file left behind next to the destination.
  EXPECT_EQ(plan_files(dir).size(), 0u);
  ASSERT_EQ(std::distance(fs::directory_iterator(dir), fs::directory_iterator{}), 1);

  PlanBundle out;
  ASSERT_TRUE(read_bundle_file(path.string(), out, &error)) << error;
  ASSERT_EQ(out.artifacts.size(), bundle.artifacts.size());
  EXPECT_EQ(serialize_bundle(out), serialize_bundle(bundle));
  EXPECT_EQ(out.artifacts[2].tune.chunk_size, 8);

  // All-or-nothing: one flipped byte anywhere fails the whole bundle read.
  std::string bytes = slurp(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  spill(path, bytes);
  EXPECT_FALSE(read_bundle_file(path.string(), out, &error));
  EXPECT_FALSE(error.empty());
  fs::remove_all(dir);
}

TEST(PlanSerialize, DeserializeRejectsEveryMutation) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  g.hazards().set_enabled(false);
  PlanCache cache(8);
  PipelineSpec spec = fig7_spec(g, 16, 64);
  spec.chunk_size = 2;
  spec.num_streams = 2;
  const std::string bytes = serialize_artifact(make_plan_artifact(g, cache, spec));

  PlanArtifact out;
  EXPECT_FALSE(deserialize_artifact({}, out));  // zero-length
  for (std::size_t len = 0; len < bytes.size(); len += 7)
    EXPECT_FALSE(deserialize_artifact(std::string_view(bytes.data(), len), out))
        << "truncation to " << len << " bytes must not parse";
  for (std::size_t i = 0; i < bytes.size(); i += 11) {
    std::string flipped = bytes;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x01);
    EXPECT_FALSE(deserialize_artifact(flipped, out))
        << "bit flip at byte " << i << " must not parse";
  }
  std::string error;
  // Version skew with a *valid* checksum is still rejected (offset 4 is the
  // format-version u32), as is a foreign magic (offset 0).
  EXPECT_FALSE(
      deserialize_artifact(patch_u32(bytes, 4, kPlanFormatVersion + 1), out, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
  // So is the previous version: v3 records carried pass wall times.
  EXPECT_FALSE(
      deserialize_artifact(patch_u32(bytes, 4, kPlanFormatVersion - 1), out, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
  EXPECT_FALSE(deserialize_artifact(patch_u32(bytes, 0, 0xdeadbeefu), out, &error));
  // Unknown artifact kind (offset 8) with a valid checksum.
  EXPECT_FALSE(deserialize_artifact(patch_u32(bytes, 8, 99), out, &error));
  // The untouched original still parses — the harness above is not vacuous.
  EXPECT_TRUE(deserialize_artifact(bytes, out, &error)) << error;
}

TEST(PlanSerialize, DiskTierSurvivesCorruptEntries) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  g.hazards().set_enabled(false);
  const fs::path dir = fresh_dir("plan_serialize_disk");
  PlanCache cache(32);
  cache.set_disk_dir(dir.string());

  PipelineSpec spec = fig7_spec(g, 32, 128);
  spec.chunk_size = 4;
  spec.num_streams = 2;
  DryRunCost cost;
  cost.flops_per_iter = 100.0;
  cost.bytes_per_iter = 64.0;

  const Bytes fp = cache.footprint(g, spec, 4, 2);
  const SimTime est = cache.estimate(g, spec, cost);
  ASSERT_GT(cache.stats().disk_writes, 0u);
  const auto files = plan_files(dir);
  ASSERT_GE(files.size(), 3u);  // fp + plan + est at minimum

  // Warm disk, cold memory: every lookup is a memory miss served from disk.
  cache.clear();
  cache.reset_stats();
  EXPECT_EQ(cache.footprint(g, spec, 4, 2), fp);
  EXPECT_EQ(cache.estimate(g, spec, cost), est);
  EXPECT_EQ(cache.stats().disk_corrupt, 0u);
  EXPECT_GE(cache.stats().disk_hits, 2u);
  EXPECT_EQ(cache.stats().misses, cache.stats().disk_hits);

  // Truncate every entry: lookups silently recompute the same results,
  // count the corruption, and quarantine the files.
  for (const auto& f : files) fs::resize_file(f, fs::file_size(f) / 2);
  cache.clear();
  cache.reset_stats();
  EXPECT_EQ(cache.footprint(g, spec, 4, 2), fp);
  EXPECT_EQ(cache.estimate(g, spec, cost), est);
  EXPECT_GE(cache.stats().disk_corrupt, 2u);
  EXPECT_EQ(cache.stats().disk_hits, 0u);
  bool quarantined = false;
  for (const auto& e : fs::directory_iterator(dir))
    quarantined |= e.path().extension() == ".quarantined";
  EXPECT_TRUE(quarantined);

  // The recomputes rewrote fresh entries; flip one bit in each.
  for (const auto& f : plan_files(dir)) {
    std::string bytes = slurp(f);
    ASSERT_FALSE(bytes.empty());
    bytes[bytes.size() / 3] = static_cast<char>(bytes[bytes.size() / 3] ^ 0x40);
    spill(f, bytes);
  }
  cache.clear();
  cache.reset_stats();
  EXPECT_EQ(cache.footprint(g, spec, 4, 2), fp);
  EXPECT_EQ(cache.estimate(g, spec, cost), est);
  EXPECT_GE(cache.stats().disk_corrupt, 2u);

  // Zero-length and version-bumped entries are likewise just misses. Every
  // file is corrupted: a lookup that hit a healthy entry could otherwise
  // short-circuit the chain (an estimate hit never touches the plan file).
  auto fresh = plan_files(dir);
  ASSERT_GE(fresh.size(), 2u);
  spill(fresh[0], "");
  for (std::size_t i = 1; i < fresh.size(); ++i)
    spill(fresh[i], patch_u32(slurp(fresh[i]), 4, kPlanFormatVersion + 1));
  cache.clear();
  cache.reset_stats();
  EXPECT_EQ(cache.footprint(g, spec, 4, 2), fp);
  EXPECT_EQ(cache.estimate(g, spec, cost), est);
  EXPECT_GE(cache.stats().disk_corrupt, 2u);
  fs::remove_all(dir);
}

TEST(PlanSerialize, SwappedDiskEntriesAreNeverServed) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  g.hazards().set_enabled(false);
  const fs::path dir = fresh_dir("plan_serialize_swap");
  PlanCache cache(32);
  cache.set_disk_dir(dir.string());

  PipelineSpec a = fig7_spec(g, 32, 128);
  PipelineSpec b = fig7_spec(g, 32, 512);  // wider planes: a larger footprint
  const Bytes fpa = cache.footprint(g, a, 4, 2);
  const Bytes fpb = cache.footprint(g, b, 4, 2);
  ASSERT_NE(fpa, fpb);

  // Swap the two files on disk: each now holds a record whose embedded key
  // disagrees with the key it is looked up under. The echo check must treat
  // both as corrupt and recompute — a hash collision or a renamed file can
  // never serve the wrong artifact.
  auto files = plan_files(dir);
  ASSERT_EQ(files.size(), 2u);
  const fs::path tmp = dir / "swap.tmp";
  fs::rename(files[0], tmp);
  fs::rename(files[1], files[0]);
  fs::rename(tmp, files[1]);

  cache.clear();
  cache.reset_stats();
  EXPECT_EQ(cache.footprint(g, a, 4, 2), fpa);
  EXPECT_EQ(cache.footprint(g, b, 4, 2), fpb);
  EXPECT_EQ(cache.stats().disk_hits, 0u);
  EXPECT_EQ(cache.stats().disk_corrupt, 2u);
  fs::remove_all(dir);
}

TEST(PlanSerialize, BundleLoadSkipsForeignAndTuneRecords) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  g.hazards().set_enabled(false);
  PlanCache scratch(8);
  PipelineSpec spec = fig4_spec(g, 32, 32);
  spec.chunk_size = 4;
  spec.num_streams = 2;

  PlanBundle bundle;
  bundle.artifacts.push_back(make_plan_artifact(g, scratch, spec));
  PlanArtifact tune;
  tune.kind = ArtifactKind::Tune;
  tune.key = tune_artifact_key(g.profile(), "stream/small");
  bundle.artifacts.push_back(tune);
  PlanArtifact foreign;
  foreign.kind = ArtifactKind::Footprint;
  foreign.key = "not-a-cache-key";
  foreign.footprint = 7;
  bundle.artifacts.push_back(foreign);

  PlanCache cache(8);
  // Only the plan entry is admissible: Tune records carry no cache entry
  // and the foreign key has no recognised prefix.
  EXPECT_EQ(cache.load_bundle(bundle), 1u);
  cache.reset_stats();
  const PlanCache::Compiled built = cache.compile(g, spec);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_NO_THROW(built.plan->validate());
}

}  // namespace
}  // namespace gpupipe::core
