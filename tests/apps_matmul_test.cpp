// Correctness tests for matrix multiplication, including the 2-D
// non-contiguous streaming path and the out-of-memory behaviour of the
// full-allocation versions.
#include <gtest/gtest.h>

#include "apps/matmul.hpp"
#include "common/checksum.hpp"
#include "gpu/device_profile.hpp"

namespace gpupipe::apps {
namespace {

MatmulConfig small_cfg() {
  MatmulConfig cfg;
  cfg.n = 24;
  cfg.chunk_cols = 5;
  cfg.num_streams = 2;
  return cfg;
}

TEST(MatmulApp, BaselineMatchesReference) {
  gpu::Gpu g(gpu::nvidia_k40m());
  std::vector<double> out;
  matmul_baseline(g, small_cfg(), &out);
  const auto ref = matmul_reference(small_cfg());
  ASSERT_EQ(out.size(), ref.size());
  EXPECT_TRUE(approx_equal(out, ref, 1e-12));
}

TEST(MatmulApp, BlockSharedMatchesReference) {
  gpu::Gpu g(gpu::nvidia_k40m());
  std::vector<double> out;
  matmul_block_shared(g, small_cfg(), &out);
  EXPECT_TRUE(approx_equal(out, matmul_reference(small_cfg()), 1e-12));
}

TEST(MatmulApp, PipelineBufferMatchesReference) {
  gpu::Gpu g(gpu::nvidia_k40m());
  std::vector<double> out;
  matmul_pipeline_buffer(g, small_cfg(), &out);
  EXPECT_TRUE(approx_equal(out, matmul_reference(small_cfg()), 1e-12));
}

class MatmulSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MatmulSweep, PipelineCorrectForAllChunkStreamCombos) {
  auto cfg = small_cfg();
  cfg.chunk_cols = std::get<0>(GetParam());
  cfg.num_streams = std::get<1>(GetParam());
  gpu::Gpu g(gpu::nvidia_k40m());
  std::vector<double> out;
  matmul_pipeline_buffer(g, cfg, &out);
  EXPECT_TRUE(approx_equal(out, matmul_reference(cfg), 1e-12));
}

INSTANTIATE_TEST_SUITE_P(ChunkStream, MatmulSweep,
                         ::testing::Combine(::testing::Values(1, 3, 8, 24),
                                            ::testing::Values(1, 2, 4)));

TEST(MatmulApp, FullVersionsThrowOomWhenMatricesExceedDeviceMemory) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  MatmulConfig cfg;
  cfg.n = 24576;  // 3 x 4.5 GiB > usable memory (the paper's rightmost size)
  EXPECT_THROW(matmul_baseline(g, cfg), gpu::OomError);
}

TEST(MatmulApp, PipelineBufferRunsSizesThatOomTheOthers) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  MatmulConfig cfg;
  cfg.n = 24576;
  cfg.chunk_cols = 512;
  const auto m = matmul_pipeline_buffer(g, cfg);
  EXPECT_GT(m.seconds, 0.0);
  // Only C plus two small rings live on the device.
  EXPECT_LT(m.peak_device_mem, 2 * cfg.matrix_bytes());
}

TEST(MatmulApp, PipelineBufferSavesAboutTwoThirdsMemory) {
  MatmulConfig cfg;
  cfg.n = 2048;
  cfg.chunk_cols = 64;
  gpu::Gpu g1(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  gpu::Gpu g2(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  const auto full = matmul_block_shared(g1, cfg);
  const auto piped = matmul_pipeline_buffer(g2, cfg);
  const double ratio = static_cast<double>(piped.peak_device_mem) /
                       static_cast<double>(full.peak_device_mem);
  EXPECT_LT(ratio, 0.55);   // well below half
  EXPECT_GT(ratio, 0.30);   // but C (one third) must remain resident
}

TEST(MatmulApp, TiledKernelApproachesThreeTimesFasterAtScale) {
  // The paper: block-shared achieves *up to* 3x over the baseline; the
  // advantage grows with size as the (version-independent) transfer time
  // becomes negligible relative to kernel time.
  auto speedup_at = [](std::int64_t n) {
    MatmulConfig cfg;
    cfg.n = n;
    gpu::Gpu g1(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
    gpu::Gpu g2(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
    return matmul_baseline(g1, cfg).seconds / matmul_block_shared(g2, cfg).seconds;
  };
  const double s4k = speedup_at(4096);
  const double s16k = speedup_at(16384);
  EXPECT_GT(s4k, 1.8);
  EXPECT_GT(s16k, s4k);
  EXPECT_GT(s16k, 2.5);
  EXPECT_LT(s16k, 3.5);
}

TEST(MatmulApp, NonContiguousTransfersAreSlowerThanContiguous) {
  // The 2-D pitched column-block copies of A must take longer on the bus
  // than B's contiguous row blocks of the same volume (the §V-E premise).
  MatmulConfig cfg;
  cfg.n = 1024;
  cfg.chunk_cols = 64;
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  g.trace().set_enabled(true);
  matmul_pipeline_buffer(g, cfg);
  SimTime t2d = 0.0, t1d = 0.0;
  for (const auto& s : g.trace().spans()) {
    if (s.kind != sim::SpanKind::H2D) continue;
    const std::string& label = g.trace().label(s);
    if (label.rfind("h2d2D", 0) == 0) t2d += s.duration();
    if (label.rfind("h2d[", 0) == 0) t1d += s.duration();
  }
  EXPECT_GT(t2d, t1d * 1.5);
}

}  // namespace
}  // namespace gpupipe::apps
