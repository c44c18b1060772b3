#include "core/pipeline.hpp"

#include <algorithm>
#include <ostream>
#include <utility>

#include "common/log.hpp"
#include "core/layout.hpp"
#include "core/model.hpp"
#include "core/plan_cache.hpp"
#include "core/plan_opt.hpp"
#include "core/telemetry.hpp"

namespace gpupipe::core {

namespace {

bool is_input(const ArraySpec& a) {
  return a.map == MapType::To || a.map == MapType::ToFrom;
}
bool is_output(const ArraySpec& a) {
  return a.map == MapType::From || a.map == MapType::ToFrom;
}

}  // namespace

// --- ChunkContext ---

const BufferView& ChunkContext::view(std::string_view array_name) const {
  return pipeline_->view_of(array_name);
}

void Pipeline::rebind_host(std::string_view array_name, std::byte* host) {
  require(host != nullptr, "rebind_host: pointer is null");
  auto it = index_.find(array_name);
  if (it == index_.end())
    throw Error("pipeline has no mapped array named '" + std::string(array_name) + "'");
  ArrayState& a = arrays_[it->second];
  a.spec.host = host;
  a.ring->rebind_host(host);
}

const BufferView& Pipeline::view_of(std::string_view name) const {
  auto it = index_.find(name);
  if (it == index_.end())
    throw Error("pipeline has no mapped array named '" + std::string(name) + "'");
  return arrays_[it->second].ring->view();
}

void Pipeline::bind_link(std::size_t ai, DeviceLink* push, DeviceLink* pull) {
  require(ai < arrays_.size(), "bind_link: array index out of range");
  require(spec_.schedule == ScheduleKind::Static, "device links need the static schedule");
  executor_.bind_link(ai, arrays_[ai].ring->view(), push, pull);
}

// --- Construction / configuration ---

std::int64_t Pipeline::ring_len_for(const ArraySpec& a, std::int64_t c, int s) {
  return layout::ring_len_affine(a.split.start.scale, a.split.window, c, s);
}

std::int64_t Pipeline::ring_len_for_spec(const ArraySpec& a, std::int64_t c, int s) const {
  return layout::ring_len_for_spec(a, spec_.loop_begin, spec_.loop_end, c, s);
}

Pipeline::Pipeline(gpu::Gpu& gpu, PipelineSpec spec)
    : gpu_(gpu), spec_(std::move(spec)), executor_(gpu_, &stats_) {
  spec_.validate();
  if (spec_.schedule == ScheduleKind::Adaptive) {
    for (const auto& a : spec_.arrays)
      require(!a.split.window_fn,
              "the adaptive schedule's cost model supports affine splits only");
  }
  mem_limit_ = spec_.mem_limit ? std::min(*spec_.mem_limit, gpu_.device_mem_free())
                               : gpu_.device_mem_free();
  auto [c, s] = solve_pipeline_memory(gpu_, spec_, mem_limit_);
  chunk_size_ = c;
  for (int i = 0; i < s; ++i)
    streams_.push_back(&gpu_.create_stream("pipe" + std::to_string(i)));
  arrays_.reserve(spec_.arrays.size());
  for (const auto& a : spec_.arrays) {
    index_.emplace(a.name, arrays_.size());
    ArrayState st;
    st.spec = a;
    arrays_.push_back(std::move(st));
  }
  configure_buffers();
}

Pipeline::~Pipeline() {
  // The region is synchronous at exit of run(), so this is normally a no-op;
  // it guards against destroying buffers under in-flight work. Only this
  // pipeline's own streams are drained — every operation touching its
  // buffers was issued on them — so tearing down one tenant's pipeline
  // never blocks on other pipelines sharing the device (src/sched).
  for (auto* s : streams_) gpu_.synchronize(*s);
  arrays_.clear();
  for (auto* s : streams_) gpu_.destroy_stream(*s);
}

void Pipeline::configure_buffers() {
  const int s = effective_streams();
  std::vector<PlanArrayBinding*> bindings;
  bindings.reserve(arrays_.size());
  for (auto& a : arrays_) {
    a.ring =
        std::make_unique<RingBuffer>(gpu_, a.spec, ring_len_for_spec(a.spec, chunk_size_, s));
    a.binding = std::make_unique<RingBufferBinding>(*a.ring);
    bindings.push_back(a.binding.get());
  }
  PlanCache& cache = PlanCache::instance();
  if (spec_.schedule == ScheduleKind::Static && cache.enabled() &&
      PlanCache::fingerprintable(spec_)) {
    // Cache-compiled plans are node-identical to build_plan at this shape:
    // the cache derives ring lengths from the same layout formulas RingBuffer
    // clamps with, and reads pinned-ness from the same device.
    PipelineSpec shaped = spec_;
    shaped.chunk_size = chunk_size_;
    shaped.num_streams = s;
    PlanCache::Compiled compiled = cache.compile(gpu_, shaped);
    plan_ = std::move(compiled.plan);
    opt_report_ = std::move(compiled.report);
  } else {
    plan_ = std::make_shared<const ExecutionPlan>(
        build_plan(spec_.loop_begin, spec_.loop_end, 0));
  }
  executor_.bind(streams_, std::move(bindings));
}

ExecutionPlan Pipeline::build_plan(std::int64_t from, std::int64_t to,
                                   std::int64_t first_chunk) const {
  PipelineBuildState state;
  state.first_chunk = first_chunk;
  state.ring_lens.reserve(arrays_.size());
  state.pinned.reserve(arrays_.size());
  for (const auto& a : arrays_) {
    state.ring_lens.push_back(a.ring->ring_len());
    state.pinned.push_back(gpu_.is_pinned(a.spec.host));
  }
  ExecutionPlan plan =
      PlanBuilder::pipeline(spec_, chunk_size_, effective_streams(), from, to, state);
  opt_report_ = optimize_plan(plan, spec_.opt_level, &gpu_.profile());
  return plan;
}

void Pipeline::maybe_validate(const ExecutionPlan& p) const {
  if (gpu_.hazards().enabled()) p.validate_once();
}

Bytes Pipeline::buffer_footprint() const {
  Bytes total = 0;
  for (const auto& a : arrays_) total += a.ring->footprint();
  return total;
}

void Pipeline::collect_metrics(telemetry::Registry& reg, const std::string& prefix) const {
  collect_plan_metrics(reg, *plan_, prefix);
  collect_stats_metrics(reg, stats_, prefix);
  collect_opt_metrics(reg, opt_report_, prefix);
  collect_sim_metrics(reg, gpu_.context()->sim, prefix);
  const std::string p = prefix + "pipeline.";
  reg.gauge(p + "chunk_size").set(static_cast<double>(chunk_size_));
  reg.gauge(p + "num_streams").set(static_cast<double>(effective_streams()));
  reg.gauge(p + "mem_limit_bytes").set(static_cast<double>(mem_limit_));
  reg.gauge(p + "buffer_footprint_bytes").set(static_cast<double>(buffer_footprint()));
  for (const auto& a : arrays_) {
    const std::string rp = prefix + "ring." + a.spec.name + ".";
    reg.gauge(rp + "len").set(static_cast<double>(a.ring->ring_len()));
    reg.gauge(rp + "footprint_bytes").set(static_cast<double>(a.ring->footprint()));
    reg.counter(rp + "h2d_copies").add(a.ring->h2d_copies());
    reg.counter(rp + "d2h_copies").add(a.ring->d2h_copies());
    reg.counter(rp + "h2d_bytes").add(static_cast<std::int64_t>(a.ring->h2d_bytes()));
    reg.counter(rp + "d2h_bytes").add(static_cast<std::int64_t>(a.ring->d2h_bytes()));
  }
}

// --- Execution ---

PlanKernelMaker Pipeline::maker(const KernelFactory& make_kernel) const {
  return [this, &make_kernel](const PlanNode& n) {
    const ChunkContext ctx(*this, n.chunk, n.begin, n.end);
    return make_kernel(ctx);
  };
}

void Pipeline::run(const KernelFactory& make_kernel) {
  const PlanKernelMaker mk = maker(make_kernel);
  if (spec_.schedule == ScheduleKind::Static) {
    maybe_validate(*plan_);
    executor_.run(*plan_, mk);
    return;
  }

  // Adaptive extension: probe the first chunk, model the rest.
  const std::int64_t probe_hi = std::min(spec_.loop_begin + chunk_size_, spec_.loop_end);
  const ExecutionPlan probe = build_plan(spec_.loop_begin, probe_hi, 0);
  maybe_validate(probe);
  executor_.run(probe, mk);
  if (probe_hi == spec_.loop_end) return;

  const SimTime probe_kernel =
      executor_.last_kernel() ? executor_.last_kernel()->duration() : 0.0;
  const std::int64_t c_star = adaptive_chunk_size(probe_kernel, probe_hi - spec_.loop_begin);
  if (c_star != chunk_size_) {
    log_debug("pipeline: adaptive schedule re-chunks ", chunk_size_, " -> ", c_star,
              " after a ", probe_kernel, "s probe kernel");
    if (telemetry::metrics_enabled())
      telemetry::global_metrics().counter("pipeline.adaptive_rechunk_events").add(1);
    chunk_size_ = c_star;
    configure_buffers();
  }
  const ExecutionPlan rest = build_plan(probe_hi, spec_.loop_end, 1);
  maybe_validate(rest);
  executor_.run(rest, mk);
}

void Pipeline::enqueue(const KernelFactory& make_kernel) {
  require(spec_.schedule == ScheduleKind::Static,
          "split-phase execution requires the static schedule");
  maybe_validate(*plan_);
  executor_.enqueue(*plan_, maker(make_kernel));
}

void Pipeline::wait() { executor_.wait(); }

std::vector<ChunkPlan> Pipeline::plan() const {
  std::vector<ChunkPlan> out;
  std::vector<std::int64_t> copied_hi(arrays_.size(), 0);
  std::vector<bool> copied_any(arrays_.size(), false);
  std::int64_t counter = 0;
  for (std::int64_t lo = spec_.loop_begin; lo < spec_.loop_end;
       lo += chunk_size_, ++counter) {
    const std::int64_t hi = std::min(lo + chunk_size_, spec_.loop_end);
    ChunkPlan cp;
    cp.index = counter;
    cp.stream = static_cast<int>(counter % static_cast<std::int64_t>(streams_.size()));
    cp.begin = lo;
    cp.end = hi;
    for (std::size_t ai = 0; ai < arrays_.size(); ++ai) {
      const auto& a = arrays_[ai];
      const auto [w_lo, w_hi] = layout::window_of(a.spec, lo, hi);
      if (is_input(a.spec)) {
        // Mirror the executed plan: with the halo-reuse pass enabled, only
        // the non-resident suffix of the window is uploaded.
        const bool elide = spec_.opt_level >= 1 && copied_any[ai];
        const std::int64_t n_lo = elide ? std::max(copied_hi[ai], w_lo) : w_lo;
        if (n_lo < w_hi) cp.copies_in.push_back({a.spec.name, n_lo, w_hi});
        copied_hi[ai] = std::max(copied_hi[ai], w_hi);
        copied_any[ai] = true;
      }
      if (is_output(a.spec)) cp.copies_out.push_back({a.spec.name, w_lo, w_hi});
    }
    out.push_back(std::move(cp));
  }
  return out;
}

void Pipeline::print_plan(std::ostream& os) const {
  os << "pipeline plan: " << spec_.iterations() << " iterations, chunk " << chunk_size_
     << ", " << streams_.size() << " streams\n";
  for (const auto& cp : plan()) {
    os << "  chunk " << cp.index << " [" << cp.begin << "," << cp.end << ") on stream "
       << cp.stream << ":";
    for (const auto& m : cp.copies_in)
      os << " in " << m.array << "[" << m.lo << "," << m.hi << ")";
    os << " kernel";
    for (const auto& m : cp.copies_out)
      os << " out " << m.array << "[" << m.lo << "," << m.hi << ")";
    os << "\n";
  }
}

// --- Adaptive schedule (extension) ---

std::int64_t Pipeline::adaptive_chunk_size(SimTime probe_kernel_time,
                                           std::int64_t probe_chunk) const {
  const auto& p = gpu_.profile();
  const double per_iter_kernel =
      std::max(0.0, probe_kernel_time - p.kernel_launch_latency) /
      static_cast<double>(std::max<std::int64_t>(probe_chunk, 1));
  const CostModel model(p, spec_, per_iter_kernel);
  return model.best_chunk(gpu_, mem_limit_, effective_streams());
}

}  // namespace gpupipe::core
