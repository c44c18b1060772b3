// Cross-layer integration tests: directive text -> parser -> binder ->
// pipeline -> simulated device, exercised as a user would, plus schedule
// introspection and timeline invariants.
#include <gtest/gtest.h>

#include <numeric>
#include <span>
#include <sstream>
#include <vector>

#include "common/checksum.hpp"
#include "core/pipeline.hpp"
#include "dsl/bind.hpp"
#include "gpu/device_profile.hpp"

namespace gpupipe {
namespace {

TEST(Integration, Fig2DirectiveEndToEnd) {
  // The paper's exact Fig. 2 directive text drives a functional run that is
  // validated against a straightforward host loop.
  gpu::Gpu g(gpu::nvidia_k40m());
  const std::int64_t nz = 20, ny = 6, nx = 5;
  std::vector<double> a0(nz * ny * nx), anext(nz * ny * nx, 0.0);
  std::iota(a0.begin(), a0.end(), 0.0);
  const double c0 = 0.5, c1 = 0.1;

  core::PipelineSpec spec = dsl::compile(
      "#pragma omp target \\\n"
      "pipeline(static[1,3]) \\\n"
      "pipeline_map(to:A0[k-1:3][0:ny][0:nx]) \\\n"
      "pipeline_map(from:Anext[k:1][0:ny][0:nx]) \\\n"
      "pipeline_mem_limit(MB_256)",
      "k", 1, nz - 1,
      {{"A0", dsl::HostArray::of(a0.data(), {nz, ny, nx})},
       {"Anext", dsl::HostArray::of(anext.data(), {nz, ny, nx})}},
      {{"ny", ny}, {"nx", nx}});

  core::Pipeline pipe(g, spec);
  pipe.run([&](const core::ChunkContext& ctx) {
    gpu::KernelDesc kd;
    const core::BufferView in = ctx.view("A0");
    const core::BufferView out = ctx.view("Anext");
    const std::int64_t lo = ctx.begin(), hi = ctx.end();
    kd.body = [in, out, lo, hi, ny, nx, c0, c1] {
      for (std::int64_t k = lo; k < hi; ++k) {
        const double* am = in.slab_ptr(k - 1);
        const double* az = in.slab_ptr(k);
        const double* ap = in.slab_ptr(k + 1);
        double* b = out.slab_ptr(k);
        for (std::int64_t j = 0; j < ny; ++j) {
          for (std::int64_t i = 0; i < nx; ++i) {
            const std::int64_t p = j * nx + i;
            const bool interior = j > 0 && j < ny - 1 && i > 0 && i < nx - 1;
            b[p] = interior
                       ? (az[p + 1] + az[p - 1] + az[p + nx] + az[p - nx] + ap[p] + am[p]) *
                                 c1 -
                             az[p] * c0
                       : az[p];
          }
        }
      }
    };
    return kd;
  });

  for (std::int64_t k = 1; k < nz - 1; ++k) {
    for (std::int64_t j = 0; j < ny; ++j) {
      for (std::int64_t i = 0; i < nx; ++i) {
        const auto idx = [&](std::int64_t ii, std::int64_t jj, std::int64_t kk) {
          return (kk * ny + jj) * nx + ii;
        };
        const bool interior = j > 0 && j < ny - 1 && i > 0 && i < nx - 1;
        const double expect =
            interior ? (a0[idx(i + 1, j, k)] + a0[idx(i - 1, j, k)] + a0[idx(i, j + 1, k)] +
                        a0[idx(i, j - 1, k)] + a0[idx(i, j, k + 1)] + a0[idx(i, j, k - 1)]) *
                               c1 -
                           a0[idx(i, j, k)] * c0
                     : a0[idx(i, j, k)];
        ASSERT_DOUBLE_EQ(anext[idx(i, j, k)], expect) << i << "," << j << "," << k;
      }
    }
  }
}

TEST(Integration, PlanMatchesExecution) {
  gpu::Gpu g(gpu::nvidia_k40m());
  const std::int64_t n = 24, m = 4;
  std::vector<double> in(n * m, 1.0), out(n * m);
  core::PipelineSpec spec = dsl::compile(
      "pipeline(static[2,2]) pipeline_map(to: A[k-1:3][0:m]) "
      "pipeline_map(from: B[k:1][0:m])",
      "k", 1, n - 1,
      {{"A", dsl::HostArray::of(in.data(), {n, m})},
       {"B", dsl::HostArray::of(out.data(), {n, m})}},
      {{"m", m}});
  core::Pipeline pipe(g, spec);

  const auto plan = pipe.plan();
  // 22 iterations in chunks of 2 => 11 chunks, round-robin over 2 streams.
  ASSERT_EQ(plan.size(), 11u);
  EXPECT_EQ(plan[0].stream, 0);
  EXPECT_EQ(plan[1].stream, 1);
  EXPECT_EQ(plan[2].stream, 0);
  // First chunk brings the full window [0,4); later chunks slide by 2.
  ASSERT_EQ(plan[0].copies_in.size(), 1u);
  EXPECT_EQ(plan[0].copies_in[0].lo, 0);
  EXPECT_EQ(plan[0].copies_in[0].hi, 4);
  ASSERT_EQ(plan[1].copies_in.size(), 1u);
  EXPECT_EQ(plan[1].copies_in[0].lo, 4);
  EXPECT_EQ(plan[1].copies_in[0].hi, 6);
  // Outputs cover exactly the chunk's iterations.
  EXPECT_EQ(plan[0].copies_out[0].lo, 1);
  EXPECT_EQ(plan[0].copies_out[0].hi, 3);

  // The plan's input volume equals what execution actually transfers.
  Bytes planned = 0;
  for (const auto& cp : plan)
    for (const auto& mv : cp.copies_in)
      planned += static_cast<Bytes>(mv.hi - mv.lo) * m * sizeof(double);
  pipe.run([&](const core::ChunkContext& ctx) {
    gpu::KernelDesc kd;
    const core::BufferView vout = ctx.view("B");
    const std::int64_t lo = ctx.begin(), hi = ctx.end();
    kd.body = [vout, lo, hi, m] {
      for (std::int64_t r = lo; r < hi; ++r)
        for (std::int64_t j = 0; j < m; ++j) vout.slab_ptr(r)[j] = 1.0;
    };
    return kd;
  });
  EXPECT_EQ(pipe.stats().h2d_bytes, planned);

  std::ostringstream os;
  pipe.print_plan(os);
  EXPECT_NE(os.str().find("chunk 0 [1,3) on stream 0"), std::string::npos);
}

TEST(Integration, TimelineShowsTransferComputeOverlap) {
  // The trace must show H2D spans overlapping kernel spans in time — the
  // paper's whole point — and events measure a sensible region length.
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  g.hazards().set_enabled(false);
  g.trace().set_enabled(true);
  const std::int64_t n = 64, m = 65536;  // 512 KiB rows
  std::byte* in = g.host_alloc(static_cast<Bytes>(n * m) * 8);
  std::byte* out = g.host_alloc(static_cast<Bytes>(n * m) * 8);
  core::PipelineSpec spec;
  spec.chunk_size = 4;
  spec.num_streams = 2;
  spec.loop_begin = 0;
  spec.loop_end = n;
  spec.arrays = {
      core::ArraySpec{"in", core::MapType::To, in, 8, {n, m},
                      core::SplitSpec{0, core::Affine{1, 0}, 1}},
      core::ArraySpec{"out", core::MapType::From, out, 8, {n, m},
                      core::SplitSpec{0, core::Affine{1, 0}, 1}},
  };
  core::Pipeline pipe(g, spec);
  g.trace().clear();
  pipe.run([m](const core::ChunkContext& ctx) {
    gpu::KernelDesc k;
    k.bytes = static_cast<Bytes>(ctx.iterations() * m) * 8 * 24;
    return k;
  });

  bool overlap = false;
  for (const auto& h : g.trace().spans()) {
    if (h.kind != sim::SpanKind::H2D) continue;
    for (const auto& kk : g.trace().spans()) {
      if (kk.kind != sim::SpanKind::Kernel) continue;
      if (std::max(h.start, kk.start) < std::min(h.end, kk.end)) overlap = true;
    }
  }
  EXPECT_TRUE(overlap);

  // Chrome export of the same trace stays consistent, byte for byte: the
  // digest pins the labels, lanes, times and args of every span.
  std::ostringstream os;
  g.trace().dump_chrome_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("HtoD"), std::string::npos);
  EXPECT_EQ(json.size(), 11444u);
  EXPECT_EQ(fnv1a(std::span<const char>(json)), 0xd4b9a7b370dac805ULL);
}

TEST(Integration, EventElapsedBracketsARegion) {
  gpu::Gpu g(gpu::nvidia_k40m());
  std::byte* host = g.host_alloc(8 * MiB);
  std::byte* dev = g.device_malloc(8 * MiB);
  gpu::Stream& s = g.create_stream();
  gpu::EventPtr before = g.record_event(s);
  g.memcpy_h2d_async(dev, host, 8 * MiB, s);
  gpu::EventPtr after = g.record_event(s);
  g.synchronize(after);
  const SimTime dt = g.elapsed(before, after);
  // 8 MiB at ~6 GB/s is on the order of 1.4 ms.
  EXPECT_GT(dt, msec(1.0));
  EXPECT_LT(dt, msec(2.0));
  EXPECT_THROW(g.elapsed(nullptr, after), Error);
}

TEST(Integration, ManyPipelinesShareOneDeviceCleanly) {
  // Several pipelined regions on the same device, interleaved with raw API
  // use, must not interfere.
  gpu::Gpu g(gpu::nvidia_k40m());
  const std::int64_t n = 16, m = 8;
  std::vector<double> a(n * m, 1.0), b(n * m), c(n * m), d(n * m);

  auto make = [&](std::vector<double>& in, std::vector<double>& out) {
    core::PipelineSpec spec;
    spec.chunk_size = 2;
    spec.num_streams = 2;
    spec.loop_begin = 0;
    spec.loop_end = n;
    spec.arrays = {
        core::ArraySpec{"in", core::MapType::To, reinterpret_cast<std::byte*>(in.data()),
                        sizeof(double), {n, m}, core::SplitSpec{0, core::Affine{1, 0}, 1}},
        core::ArraySpec{"out", core::MapType::From,
                        reinterpret_cast<std::byte*>(out.data()), sizeof(double), {n, m},
                        core::SplitSpec{0, core::Affine{1, 0}, 1}},
    };
    return spec;
  };
  auto doubling = [m](const core::ChunkContext& ctx) {
    gpu::KernelDesc k;
    const core::BufferView vin = ctx.view("in");
    const core::BufferView vout = ctx.view("out");
    const std::int64_t lo = ctx.begin(), hi = ctx.end();
    k.body = [vin, vout, lo, hi, m] {
      for (std::int64_t r = lo; r < hi; ++r)
        for (std::int64_t j = 0; j < m; ++j) vout.slab_ptr(r)[j] = 2.0 * vin.slab_ptr(r)[j];
    };
    return k;
  };

  core::Pipeline p1(g, make(a, b));
  core::Pipeline p2(g, make(b, c));
  p1.run(doubling);  // b = 2a
  p2.run(doubling);  // c = 2b
  core::Pipeline p3(g, make(c, d));
  p3.run(doubling);  // d = 2c
  for (std::int64_t x = 0; x < n * m; ++x) ASSERT_DOUBLE_EQ(d[x], 8.0);
  EXPECT_EQ(g.live_streams(), 6);  // three live pipelines x two streams
}

TEST(Integration, SameDirectiveAdaptsToSmallerDevices) {
  // The paper's portability claim (SSVI): the extension makes code
  // "resilient to changes in device memory sizes" — the same region spec
  // must run unchanged on a device with far less memory, with the runtime
  // shrinking the chunk size instead of failing.
  const std::int64_t n = 512, m = 4096;  // 16 MiB arrays
  auto run_on_device = [&](gpu::DeviceProfile profile) -> std::int64_t {
    gpu::Gpu g(profile);
    std::vector<double> in(n * m, 1.5), out(n * m, 0.0);
    core::PipelineSpec spec;
    spec.chunk_size = 128;
    spec.num_streams = 2;
    spec.loop_begin = 0;
    spec.loop_end = n;
    spec.arrays = {
        core::ArraySpec{"in", core::MapType::To, reinterpret_cast<std::byte*>(in.data()),
                        sizeof(double), {n, m}, core::SplitSpec{0, core::Affine{1, 0}, 1}},
        core::ArraySpec{"out", core::MapType::From,
                        reinterpret_cast<std::byte*>(out.data()), sizeof(double), {n, m},
                        core::SplitSpec{0, core::Affine{1, 0}, 1}},
    };
    core::Pipeline p(g, spec);
    p.run([&](const core::ChunkContext& ctx) {
      gpu::KernelDesc k;
      const core::BufferView vin = ctx.view("in");
      const core::BufferView vout = ctx.view("out");
      const std::int64_t lo = ctx.begin(), hi = ctx.end();
      k.body = [vin, vout, lo, hi, m] {
        for (std::int64_t r = lo; r < hi; ++r)
          for (std::int64_t j = 0; j < m; ++j) vout.slab_ptr(r)[j] = 2.0 * vin.slab_ptr(r)[j];
      };
      return k;
    });
    for (double v : out) EXPECT_DOUBLE_EQ(v, 3.0);
    return p.effective_chunk_size();
  };

  // Full-size device: the requested chunk survives.
  EXPECT_EQ(run_on_device(gpu::nvidia_k40m()), 128);
  // A device with only 8 MiB usable: the same spec still completes, with
  // the runtime shrinking the chunk automatically.
  gpu::DeviceProfile tiny = gpu::nvidia_k40m();
  tiny.total_memory = 10 * MiB;
  tiny.reserved_memory = 2 * MiB;
  EXPECT_LT(run_on_device(tiny), 128);
}

}  // namespace
}  // namespace gpupipe

