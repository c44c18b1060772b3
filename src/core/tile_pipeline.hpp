// Two-dimensional (nested-loop) pipelining — extension.
//
// The paper splits along a single loop variable and notes that "future work
// will extend it to support nested loops". TilePipeline implements that
// extension for the 2-D case: a nested loop over tile indices (i, j) whose
// iterations consume/produce 2-D blocks of row-major host matrices. Blocks
// stream through a device ring buffer that wraps in BOTH dimensions — index
// (r, c) lives at buffer cell (r mod ring_rows, c mod ring_cols) — so the
// device footprint is a small window of the matrix regardless of its size.
//
// Execution order is row-major over tiles ("bands" of constant i). Within a
// band the column dimension behaves exactly like the 1-D pipeline: sliding-
// window copy elision, per-column arrival events, ring-slot reuse guarded by
// reader events. At a band transition the row window moves; the plan inserts
// a cross-stream barrier (every stream waits for the previous band's last
// operations) before the new band's rows may overwrite buffer rows. Row
// halos shared between bands are re-transferred (documented simplification;
// the intra-band column elision is where the traffic is).
//
// A 1-D loop is one band of this walk, and the code treats it so: the
// schedule is compiled into an ExecutionPlan by the builders' one emission
// loop (PlanBuilder::tiles supplies only the tile blocks), and the shared
// PlanExecutor ships its segments through the same PlanArrayBinding a 1-D
// ring uses, here over a pitched RingGeometry that wraps in both
// dimensions — the tile pipeline issues no raw stream operations itself.
// The plan is rebuilt per run() so out-of-range tile blocks surface at run
// time, not construction.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.hpp"
#include "common/name_index.hpp"
#include "core/plan.hpp"
#include "core/plan_opt.hpp"
#include "core/spec.hpp"
#include "gpu/gpu.hpp"

namespace gpupipe::core {

class TilePipeline;

/// Addressing handle for a 2-D ring buffer, passed to kernel bodies.
struct TileBufferView {
  std::byte* base = nullptr;
  Bytes elem = sizeof(double);
  Bytes pitch = 0;  ///< bytes between buffer rows
  std::int64_t ring_rows = 1;
  std::int64_t ring_cols = 1;

  /// Device pointer to host element (row, col) of the mapped matrix.
  template <typename T = double>
  T* at(std::int64_t row, std::int64_t col) const {
    return reinterpret_cast<T*>(base + static_cast<Bytes>(row % ring_rows) * pitch +
                                static_cast<Bytes>(col % ring_cols) * elem);
  }
};

/// One dimension of a tile split: for tile index t the block covers
/// [start(t), start(t) + window) in that dimension.
struct TileDimSpec {
  Affine start;
  std::int64_t window = 1;
};

/// One mapped matrix of a tile pipeline.
struct TileArraySpec {
  std::string name;
  MapType map = MapType::To;
  std::byte* host = nullptr;
  Bytes elem_size = sizeof(double);
  std::int64_t rows = 0;  ///< host extents, row-major
  std::int64_t cols = 0;
  TileDimSpec row_split;  ///< function of the outer tile index i
  TileDimSpec col_split;  ///< function of the inner tile index j

  void validate() const;
};

/// The 2-D region description. Tiles iterate (i, j) in [0, ni) x [0, nj),
/// row-major.
struct TileSpec {
  int num_streams = 2;
  std::int64_t ni = 0;
  std::int64_t nj = 0;
  /// Plan optimization level, as in PipelineSpec: from 1 the builder skips
  /// columns still resident within a band; 2 runs optimize_plan's passes,
  /// which leave band-structured plans as built.
  int opt_level = 1;
  std::vector<TileArraySpec> arrays;

  void validate() const;
};

/// Per-tile information for the kernel factory.
class TileContext {
 public:
  std::int64_t i() const { return i_; }
  std::int64_t j() const { return j_; }
  const TileBufferView& view(std::string_view array_name) const;

 private:
  friend class TilePipeline;
  TileContext(const TilePipeline& p, std::int64_t i, std::int64_t j)
      : pipeline_(&p), i_(i), j_(j) {}
  const TilePipeline* pipeline_;
  std::int64_t i_;
  std::int64_t j_;
};

using TileKernelFactory = std::function<gpu::KernelDesc(const TileContext&)>;

/// Executes a 2-D tiled region with ring-buffered transfers.
class TilePipeline {
 public:
  TilePipeline(gpu::Gpu& gpu, TileSpec spec);
  ~TilePipeline();
  TilePipeline(const TilePipeline&) = delete;
  TilePipeline& operator=(const TilePipeline&) = delete;

  /// Runs every tile and blocks until the region completes.
  void run(const TileKernelFactory& make_kernel);

  Bytes buffer_footprint() const;
  int effective_streams() const { return static_cast<int>(streams_.size()); }
  /// H2D bytes actually transferred (tests verify the column elision).
  Bytes h2d_bytes() const { return stats_.h2d_bytes; }
  const PipelineStats& stats() const { return stats_; }

  /// The op graph the most recent run() executed (empty before any run).
  const ExecutionPlan& execution_plan() const { return plan_; }
  /// Pass statistics of the most recent run()'s plan compilation.
  const OptReport& opt_report() const { return opt_report_; }

  /// Derives a telemetry snapshot from the last run's plan, the stats, and
  /// the optimization report (see Pipeline::collect_metrics).
  void collect_metrics(telemetry::Registry& reg, const std::string& prefix = {}) const;

 private:
  struct ArrayState {
    TileArraySpec spec;
    std::byte* buffer = nullptr;
    TileBufferView view;
    std::unique_ptr<PlanArrayBinding> binding;
  };

  friend class TileContext;
  const TileBufferView& view_of(std::string_view name) const;

  gpu::Gpu& gpu_;
  TileSpec spec_;
  std::vector<gpu::Stream*> streams_;
  std::vector<ArrayState> arrays_;
  NameIndex index_;  ///< array name -> arrays_ position
  PipelineStats stats_;
  ExecutionPlan plan_;     ///< plan of the most recent run()
  OptReport opt_report_;   ///< its optimization report
  PlanExecutor executor_;
};

}  // namespace gpupipe::core
