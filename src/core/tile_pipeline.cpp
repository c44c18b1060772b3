#include "core/tile_pipeline.hpp"

#include <algorithm>

#include "core/layout.hpp"
#include "core/plan_opt.hpp"
#include "core/telemetry.hpp"

namespace gpupipe::core {

void TileArraySpec::validate() const {
  // Each check builds its message only when it fails.
  if (host == nullptr) require(false, "tile array '" + name + "': host pointer is null");
  if (elem_size == 0)
    require(false, "tile array '" + name + "': element size must be positive");
  if (rows <= 0 || cols <= 0)
    require(false, "tile array '" + name + "': extents must be positive");
  if (row_split.window < 1 || col_split.window < 1)
    require(false, "tile array '" + name + "': windows must be >= 1");
  if (row_split.start.scale < 1 || col_split.start.scale < 1)
    require(false, "tile array '" + name + "': tile starts must be increasing");
  if (map != MapType::To) {
    if (col_split.window > col_split.start.scale)
      require(false, "tile array '" + name + "': output column windows may not overlap");
    if (row_split.window > row_split.start.scale)
      require(false, "tile array '" + name + "': output row windows may not overlap");
  }
}

void TileSpec::validate() const {
  require(num_streams >= 1, "num_streams must be >= 1");
  require(opt_level >= 0 && opt_level <= 2, "opt_level must be 0, 1, or 2");
  require(ni >= 1 && nj >= 1, "tile loop extents must be >= 1");
  require(!arrays.empty(), "tile pipeline needs at least one mapped array");
  for (const auto& a : arrays) a.validate();
}

TilePipeline::TilePipeline(gpu::Gpu& gpu, TileSpec spec)
    : gpu_(gpu), spec_(std::move(spec)), executor_(gpu_, &stats_) {
  spec_.validate();
  for (int i = 0; i < spec_.num_streams; ++i)
    streams_.push_back(&gpu_.create_stream("tile" + std::to_string(i)));

  std::vector<PlanArrayBinding*> bindings;
  bindings.reserve(spec_.arrays.size());
  arrays_.reserve(spec_.arrays.size());
  for (const auto& a : spec_.arrays) {
    ArrayState st;
    st.spec = a;
    // Row ring: one band's rows (bands serialise via the barrier).
    const std::int64_t ring_rows = std::min(a.rows, a.row_split.window);
    // Column ring: like the 1-D pipeline — in-flight tiles plus the halo,
    // aligned to the column stride to avoid mid-tile wraps.
    const std::int64_t stride_c = a.col_split.start.scale;
    const std::int64_t halo_c = layout::halo(a.col_split.window, stride_c);
    const std::int64_t ring_cols = std::min(
        a.cols, stride_c * spec_.num_streams + layout::round_up(halo_c, stride_c));
    gpu::Pitched p = gpu_.device_malloc_pitched(
        static_cast<Bytes>(ring_cols) * a.elem_size, static_cast<Bytes>(ring_rows));
    st.buffer = p.ptr;
    st.view = TileBufferView{p.ptr, a.elem_size, p.pitch, ring_rows, ring_cols};
    RingGeometry ring;
    ring.base = p.ptr;
    ring.pitch = p.pitch;
    ring.unit = a.elem_size;
    ring.cols = ring_cols;
    ring.rows = ring_rows;
    ring.host = a.host;
    ring.host_pitch = static_cast<Bytes>(a.cols) * a.elem_size;
    ring.host_cols = a.cols;
    ring.host_rows = a.rows;
    st.binding = std::make_unique<PlanArrayBinding>(gpu_, ring);
    bindings.push_back(st.binding.get());
    index_.emplace(a.name, arrays_.size());
    arrays_.push_back(std::move(st));
  }
  executor_.bind(streams_, std::move(bindings));
}

TilePipeline::~TilePipeline() {
  gpu_.synchronize();
  for (auto& a : arrays_) gpu_.device_free(a.buffer);
  for (auto* s : streams_) gpu_.destroy_stream(*s);
}

Bytes TilePipeline::buffer_footprint() const {
  Bytes total = 0;
  for (const auto& a : arrays_)
    total += a.view.pitch * static_cast<Bytes>(a.view.ring_rows);
  return total;
}

const TileBufferView& TilePipeline::view_of(std::string_view name) const {
  auto it = index_.find(name);
  if (it == index_.end())
    throw Error("tile pipeline has no mapped array named '" + std::string(name) + "'");
  return arrays_[it->second].view;
}

const TileBufferView& TileContext::view(std::string_view array_name) const {
  return pipeline_->view_of(array_name);
}

void TilePipeline::run(const TileKernelFactory& make_kernel) {
  // Compiled fresh per run so block-range errors surface here, mirroring the
  // runtime semantics of the hand-issued schedule this replaced.
  TileBuildState state;
  state.ring_rows.reserve(arrays_.size());
  state.ring_cols.reserve(arrays_.size());
  state.pinned.reserve(arrays_.size());
  for (const auto& a : arrays_) {
    state.ring_rows.push_back(a.view.ring_rows);
    state.ring_cols.push_back(a.view.ring_cols);
    state.pinned.push_back(gpu_.is_pinned(a.spec.host));
  }
  plan_ = PlanBuilder::tiles(spec_, state, &opt_report_);
  opt_report_.append(optimize_plan(plan_, spec_.opt_level));
  if (gpu_.hazards().enabled()) plan_.validate();
  executor_.run(plan_, [this, &make_kernel](const PlanNode& n) {
    const TileContext ctx(*this, n.tile_i, n.tile_j);
    return make_kernel(ctx);
  });
}

void TilePipeline::collect_metrics(telemetry::Registry& reg,
                                   const std::string& prefix) const {
  collect_plan_metrics(reg, plan_, prefix);
  collect_stats_metrics(reg, stats_, prefix);
  collect_opt_metrics(reg, opt_report_, prefix);
  collect_sim_metrics(reg, gpu_.context()->sim, prefix);
  const std::string p = prefix + "pipeline.";
  reg.gauge(p + "num_streams").set(static_cast<double>(effective_streams()));
  reg.gauge(p + "buffer_footprint_bytes").set(static_cast<double>(buffer_footprint()));
}

}  // namespace gpupipe::core
