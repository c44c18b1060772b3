// Out-of-core matrix multiplication: computing a problem that does not fit
// in device memory (the paper's Fig. 9/10 rightmost sizes).
//
// A 24576^2 double matmul needs ~14.5 GB for the three matrices — more than
// the simulated K40m offers. The full-allocation versions fail with an
// out-of-memory error; the pipelined runtime streams the K dimension
// through small ring buffers (only C stays resident) and completes the
// computation. Runs in Modeled mode (timing only) at this scale, after the
// same column-split pipeline computes a 96^2 product in Functional mode and
// checks it against the host reference (exit 1 on a mismatch).
//
// Build & run:  ./build/examples/out_of_core_matmul
#include <cstdio>
#include <vector>

#include "apps/matmul.hpp"
#include "common/checksum.hpp"
#include "gpu/device_profile.hpp"

using namespace gpupipe;

int main() {
  {
    apps::MatmulConfig small;
    small.n = 96;
    small.chunk_cols = 16;
    small.num_streams = 2;
    gpu::Gpu g(gpu::nvidia_k40m());  // Functional mode: C is computed
    std::vector<double> c;
    apps::matmul_pipeline_buffer(g, small, &c);
    const std::vector<double> ref = apps::matmul_reference(small);
    if (!approx_equal(c, ref, 1e-12)) {
      printf("FAILED: pipeline-buffer C differs from the host reference at n = %lld "
             "(max |diff| %g)\n",
             static_cast<long long>(small.n), max_abs_diff(c, ref));
      return 1;
    }
    printf("n = %lld: pipeline-buffer C verified against the host reference\n\n",
           static_cast<long long>(small.n));
  }

  apps::MatmulConfig cfg;
  cfg.n = 24576;
  cfg.chunk_cols = 512;
  cfg.num_streams = 2;

  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  g.hazards().set_enabled(false);

  const double need = 3.0 * static_cast<double>(cfg.matrix_bytes());
  printf("C = A x B at n = %lld: 3 matrices need %.1f GB; device offers %.1f GB\n",
         static_cast<long long>(cfg.n), need / 1e9,
         static_cast<double>(g.profile().usable_memory()) / 1e9);

  printf("\n[1] block-shared (full allocation): ");
  try {
    apps::matmul_block_shared(g, cfg);
    printf("unexpectedly succeeded?!\n");
    return 1;
  } catch (const gpu::OomError& e) {
    printf("failed as expected\n    %s\n", e.what());
  }

  printf("\n[2] pipeline-buffer (K split into %lld-column chunks): ",
         static_cast<long long>(cfg.chunk_cols));
  const auto m = apps::matmul_pipeline_buffer(g, cfg);
  printf("completed\n");
  printf("    simulated time   : %.2f s\n", m.seconds);
  printf("    peak device mem  : %.2f GB (%.0f%% of the full working set)\n",
         static_cast<double>(m.peak_device_mem) / 1e9,
         100.0 * static_cast<double>(m.peak_device_mem) / need);
  printf("    transfers hidden : H2D busy %.2f s fully under %.2f s of kernels\n",
         m.h2d_time, m.kernel_time);
  return 0;
}
