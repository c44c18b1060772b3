#include "core/model.hpp"

#include <array>
#include <limits>

#include "core/buffer.hpp"
#include "core/layout.hpp"

namespace gpupipe::core {

namespace {

bool is_input(MapType m) { return m == MapType::To || m == MapType::ToFrom; }
bool is_output(MapType m) { return m == MapType::From || m == MapType::ToFrom; }

}  // namespace

CostModel::CostModel(const gpu::DeviceProfile& profile, const PipelineSpec& spec,
                     SimTime per_iter_kernel)
    : profile_(profile), spec_(spec), per_iter_kernel_(per_iter_kernel) {
  require(supports(spec), "the cost model supports affine splits only");
}

bool CostModel::supports(const PipelineSpec& spec) {
  return std::none_of(spec.arrays.begin(), spec.arrays.end(),
                      [](const ArraySpec& a) { return static_cast<bool>(a.split.window_fn); });
}

ChunkCost CostModel::chunk_cost(std::int64_t c) const {
  ChunkCost cost;
  for (const auto& a : spec_.arrays) {
    const bool in = a.map == MapType::To || a.map == MapType::ToFrom;
    const bool out = a.map == MapType::From || a.map == MapType::ToFrom;
    // Steady state with halo reuse on: each chunk brings scale*c
    // new split indices (the halo stays resident from earlier chunks).
    // Unoptimized plans re-upload the halo with every chunk.
    std::int64_t steady = a.split.start.scale * c;
    if (spec_.opt_level < 1) steady += layout::halo(a.split.window, a.split.start.scale);
    const Bytes bytes = static_cast<Bytes>(steady) * layout::unit_bytes(a);
    Bytes row_width = bytes;  // contiguous slab transfers
    if (a.split.dim != 0) row_width = static_cast<Bytes>(steady) * a.elem_size;
    const SimTime t =
        profile_.copy_setup_latency +
        static_cast<double>(bytes) / profile_.transfer_bandwidth(bytes, row_width, true);
    if (in) cost.copy_in += t;
    if (out) cost.copy_out += t;
  }
  cost.kernel = profile_.kernel_launch_latency + per_iter_kernel_ * static_cast<double>(c);
  // Copies + kernel + ~3 events + ~2 waits per chunk.
  cost.host = 8.0 * profile_.api_call_host_overhead;
  return cost;
}

SimTime CostModel::region_time(std::int64_t c) const {
  const ChunkCost cost = chunk_cost(c);
  const std::int64_t n = ceil_div(spec_.iterations(), c);
  const SimTime bottleneck = profile_.unified_copy_engine ? cost.bottleneck_unified()
                                                          : cost.bottleneck_split();
  // First chunk's copy-in and last chunk's copy-out cannot overlap anything;
  // the interior runs at the bottleneck rate.
  return cost.copy_in + cost.kernel + cost.copy_out +
         static_cast<double>(n - 1) * bottleneck;
}

std::int64_t CostModel::best_chunk(const gpu::Gpu& g, Bytes mem_limit, int streams) const {
  std::int64_t best_c = 1;
  SimTime best_t = region_time(1);
  for (std::int64_t c = 2; c <= spec_.iterations(); c *= 2) {
    Bytes fp = 0;
    for (const auto& a : spec_.arrays)
      fp += RingBuffer::predict_footprint(
          g, a, layout::ring_len_affine(a.split.start.scale, a.split.window, c, streams));
    if (fp > mem_limit) break;
    const SimTime t = region_time(c);
    if (t < best_t) {
      best_t = t;
      best_c = c;
    }
  }
  return best_c;
}

SimTime dry_run_lower_bound(const gpu::Gpu& g, const PipelineSpec& spec,
                            const DryRunCost& cost) {
  if (!CostModel::supports(spec) || !spec.halos.empty() || !spec.handoffs.empty()) return 0.0;
  const gpu::DeviceProfile& p = g.profile();
  const std::int64_t trip = spec.iterations();
  const std::int64_t c = std::min(spec.chunk_size, trip);
  const std::int64_t n = ceil_div(trip, c);
  const int s = spec.num_streams;
  const int live = cost.live_streams > 0 ? cost.live_streams : s;
  const SimTime sched =
      live > 1 ? p.sched_overhead_per_stream * static_cast<double>(live - 1) : 0.0;
  const bool round_robin = spec.opt_level <= 1;  // no rebalance, no fusion

  // The fewest seconds a copy of `count` split indices can take, in any
  // number of segments (each segment adds its own setup and saturation
  // terms). dry_run's per-segment time also has a
  // half_saturation * row_half_saturation / width term; it is dropped
  // because it shrinks as a 2-D copy widens, and the bound must grow with
  // `count`.
  auto copy = [&](const ArraySpec& a, bool pinned, std::int64_t count) {
    const double rows = a.split.dim == 0 ? 1.0 : static_cast<double>(a.dims[0]);
    double sat = static_cast<double>(count) * static_cast<double>(layout::unit_bytes(a)) +
                 static_cast<double>(p.pcie_half_saturation);
    if (rows > 1.0) sat += rows * static_cast<double>(p.pcie_row_half_saturation);
    const double bw = p.pcie_bandwidth * (pinned ? 1.0 : p.pageable_penalty);
    return p.copy_setup_latency + p.copy_segment_latency * (rows - 1.0) + sat / bw + sched;
  };
  // dry_run's kernel term for `iters` iterations.
  auto kernel = [&](std::int64_t iters) {
    const double it = static_cast<double>(iters);
    SimTime dur = p.kernel_launch_latency;
    if (cost.flops_per_iter > 0.0 || cost.bytes_per_iter > 0.0)
      dur += std::max(cost.flops_per_iter * it / p.peak_flops,
                      cost.bytes_per_iter * it / p.mem_bandwidth);
    else
      dur += cost.seconds_per_iter * it;
    return dur + sched;
  };

  // Chunk 0, the n - 2 steady chunks, and the (possibly shorter) last one.
  struct Class {
    std::int64_t iters = 0;
    std::int64_t chunks = 0;
    SimTime up = 0.0;    // this class's uploads, one chunk
    SimTime down = 0.0;  // its drains
    SimTime kernel = 0.0;
    SimTime all() const { return up + kernel + down; }
  };
  std::array<Class, 3> cls{{{c, 1},
                            {c, std::max<std::int64_t>(n - 2, 0)},
                            {trip - (n - 1) * c, n >= 2 ? 1 : 0}}};
  constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();
  SimTime min_up = kInf, min_down = kInf;
  int inputs = 0, outputs = 0;
  for (const ArraySpec& a : spec.arrays) {
    const bool pinned = g.is_pinned(a.host);
    const std::int64_t scale = a.split.start.scale;
    const std::int64_t window = a.split.window;
    inputs += is_input(a.map) ? 1 : 0;
    outputs += is_output(a.map) ? 1 : 0;
    for (std::size_t k = 0; k < cls.size(); ++k) {
      Class& cl = cls[k];
      if (cl.chunks == 0) continue;
      const std::int64_t full = scale * (cl.iters - 1) + window;
      if (is_input(a.map)) {
        // Halo reuse elides what is still resident, never an index no
        // earlier window touched.
        const std::int64_t fresh = k == 0 || spec.opt_level < 1
                                       ? full
                                       : scale * (cl.iters - 1) + std::min(window, scale);
        const SimTime t = copy(a, pinned, fresh);
        cl.up += t;
        min_up = std::min(min_up, t);
      }
      if (is_output(a.map)) {
        const SimTime t = copy(a, pinned, full);
        cl.down += t;
        min_down = std::min(min_down, t);
      }
    }
  }
  SimTime ups = 0.0, downs = 0.0, kernels = 0.0;
  for (Class& cl : cls) {
    cl.kernel = kernel(cl.iters);
    const double w = static_cast<double>(cl.chunks);
    ups += w * cl.up;
    downs += w * cl.down;
    kernels += w * cl.kernel;
  }
  if (!round_robin) kernels = kernel(trip);  // fusion may leave one launch

  const SimTime copies =
      p.unified_copy_engine
          ? (ups + downs) / static_cast<double>(p.h2d_engines)
          : std::max(ups / static_cast<double>(p.h2d_engines),
                     downs / static_cast<double>(p.d2h_engines));
  const SimTime compute = (inputs > 0 ? min_up : 0.0) +
                          kernels / static_cast<double>(p.max_concurrent_kernels) +
                          (outputs > 0 ? min_down : 0.0);
  SimTime busiest = std::max(copies, compute);
  SimTime host = 0.0;
  if (round_robin) {
    // Stream r runs chunks r, r + s, r + 2s, ... in series.
    for (std::int64_t r = 0; r < std::min<std::int64_t>(s, n); ++r) {
      const std::int64_t first = r == 0 ? 1 : 0;
      const std::int64_t last = n >= 2 && (n - 1) % s == r ? 1 : 0;
      const std::int64_t steady = (n - 1 - r) / s + 1 - first - last;
      busiest = std::max(busiest, static_cast<double>(first) * cls[0].all() +
                                      static_cast<double>(steady) * cls[1].all() +
                                      static_cast<double>(last) * cls[2].all());
    }
    // Per chunk: each copy node, the kernel, and one recorded event per
    // non-empty group; then one drain call per stream.
    const std::int64_t calls_per_chunk =
        inputs + outputs + 2 + (inputs > 0 ? 1 : 0) + (outputs > 0 ? 1 : 0);
    host = p.api_call_host_overhead * static_cast<double>(n * calls_per_chunk + s);
  }
  const SimTime bound = std::max(p.api_call_host_overhead + busiest, host);
  return bound * (1.0 - 1e-9);
}

}  // namespace gpupipe::core
