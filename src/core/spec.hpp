// Pipeline region specification — the runtime representation of the paper's
// directive clauses (Fig. 1):
//
//   pipeline(schedule_kind[chunk_size, num_stream])
//   pipeline_map(map_type : var[split_iter:size][0:m]...)
//   pipeline_mem_limit(mem_size)
//
// A PipelineSpec can be built directly in C++ or produced by binding a
// parsed directive (src/dsl) to registered host arrays.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"

namespace gpupipe::core {

/// Data transfer direction of a pipeline_map clause (the paper's map_type).
enum class MapType {
  To,      ///< input: host -> device before each chunk's kernel
  From,    ///< output: device -> host after each chunk's kernel
  ToFrom,  ///< both
};

inline const char* to_string(MapType m) {
  switch (m) {
    case MapType::To: return "to";
    case MapType::From: return "from";
    case MapType::ToFrom: return "tofrom";
  }
  return "?";
}

/// Scheduler selection. The paper's prototype supports static; adaptive is
/// its stated future work, implemented here as an extension.
enum class ScheduleKind { Static, Adaptive };

/// Affine function of the loop variable: scale * k + offset. The paper's
/// split_iter expressions ("k", "k-1", "2*k+1") all take this form.
struct Affine {
  std::int64_t scale = 1;
  std::int64_t offset = 0;

  std::int64_t operator()(std::int64_t k) const { return scale * k + offset; }
  bool operator==(const Affine&) const = default;
};

/// Function-based dependency declaration (extension; the paper's stated
/// future work is "a function-based extension that allows the developer to
/// pass in a function pointer"). For loop iteration k it returns the
/// half-open split-index range [lo, hi) the iteration needs (inputs) or
/// produces (outputs). Both endpoints must be non-decreasing in k; output
/// ranges of different iterations must not overlap.
using WindowFn = std::function<std::pair<std::int64_t, std::int64_t>(std::int64_t)>;

/// The split declaration of one mapped array:
/// `[split_iter : window]` on dimension `dim`.
/// For loop iteration k, the array needs indices
/// [start(k), start(k) + window) in that dimension — or, when `window_fn`
/// is set, the range it returns (start/window are then ignored).
struct SplitSpec {
  /// Which dimension is split. The prototype supports dim 0 (outermost:
  /// contiguous slab transfers) and dim 1 of a 2-D array (column blocks:
  /// pitched 2-D transfers), mirroring the paper's 1-D/2-D copy support.
  int dim = 0;
  Affine start;
  std::int64_t window = 1;
  WindowFn window_fn = {};

  /// The split-index range iteration k touches.
  std::pair<std::int64_t, std::int64_t> range_of(std::int64_t k) const {
    if (window_fn) return window_fn(k);
    return {start(k), start(k) + window};
  }
};

/// One pipeline_map clause bound to a real host array.
struct ArraySpec {
  std::string name;
  MapType map = MapType::To;
  std::byte* host = nullptr;
  Bytes elem_size = sizeof(double);
  /// Full extents of the host array, outermost first (row-major).
  std::vector<std::int64_t> dims;
  SplitSpec split;

  /// Elements per index of the split dimension's inner block
  /// (product of dims after split.dim).
  std::int64_t inner_elems() const {
    std::int64_t n = 1;
    for (std::size_t d = split.dim + 1; d < dims.size(); ++d) n *= dims[d];
    return n;
  }
  /// Product of dims before split.dim.
  std::int64_t outer_elems() const {
    std::int64_t n = 1;
    for (int d = 0; d < split.dim; ++d) n *= dims[d];
    return n;
  }
  /// Total host footprint in bytes.
  Bytes total_bytes() const {
    std::int64_t n = 1;
    for (auto d : dims) n *= d;
    return static_cast<Bytes>(n) * elem_size;
  }

  void validate() const {
    require(host != nullptr, "array '" + name + "': host pointer is null");
    require(elem_size > 0, "array '" + name + "': element size must be positive");
    require(!dims.empty(), "array '" + name + "': needs at least one dimension");
    for (auto d : dims) require(d > 0, "array '" + name + "': extents must be positive");
    if (split.window_fn) {
      // Per-iteration ranges are validated when the pipeline scans the loop.
      const bool fn_slab = split.dim == 0;
      const bool fn_block2d = split.dim == 1 && dims.size() == 2;
      require(fn_slab || fn_block2d,
              "array '" + name + "': unsupported split dimension for window_fn");
      return;
    }
    require(split.window >= 1, "array '" + name + "': split window must be >= 1");
    require(split.start.scale >= 1,
            "array '" + name + "': split_iter must be increasing in the loop variable");
    if (map != MapType::To) {
      // Output windows of consecutive iterations must not overlap, or two
      // chunks would produce the same host slice (e.g. the paper's outputs
      // are always of the form [k:1]).
      require(split.window <= split.start.scale,
              "array '" + name + "': output split window may not overlap between iterations");
    }
    const bool slab = split.dim == 0;
    const bool block2d = split.dim == 1 && dims.size() == 2;
    require(slab || block2d,
            "array '" + name +
                "': prototype supports splitting dimension 0 (slabs) or dimension 1 "
                "of a 2-D array (column blocks)");
  }
};

/// Halo wiring of one array of a sharded sub-region (multi-device
/// decomposition, src/sched/shard.*). A shard's plan normally uploads every
/// split index its windows touch from the host; a ShardHalo redirects part
/// of that traffic to device-to-device exchange with a neighbouring shard:
/// indices >= `recv_lo` arrive as P2pRecv nodes fed by shard `recv_peer`
/// (which owns them), and the first `send_hi - first_window_lo` indices of
/// this shard's own range are additionally P2pSent to shard `send_peer`,
/// whose trailing windows overlap them. Either direction may be absent (-1).
struct ShardHalo {
  int array = -1;              ///< index into PipelineSpec::arrays
  std::int64_t recv_lo = -1;   ///< first split index received via P2P
  int recv_peer = -1;          ///< shard supplying [recv_lo, window end)
  std::int64_t send_hi = -1;   ///< one past the last split index sent via P2P
  int send_peer = -1;          ///< shard consuming [first window lo, send_hi)
};

/// Inter-job handoff wiring of one array (plan stitching, ROADMAP's
/// "Inter-job plan stitching" item). The scheduler wires a lineage
/// producer's output array (produce = true) and its consumer's input array
/// (produce = false): the stitch pass then rewrites the producer's D2H tail
/// and the consumer's H2D head for that array into DeviceHandoff nodes,
/// and the DeviceLink the scheduler binds to each pipeline (core/plan.hpp)
/// moves the bytes through device-resident staging instead of the host.
struct ArrayHandoff {
  int array = -1;        ///< index into PipelineSpec::arrays
  int link = -1;         ///< per-spec ordinal of the link (the plan names it)
  bool produce = false;  ///< true: stash to staging; false: land from it
};

/// The full pipeline region description.
struct PipelineSpec {
  ScheduleKind schedule = ScheduleKind::Static;
  /// Loop iterations handled per device buffer chunk (paper: chunk_size).
  std::int64_t chunk_size = 1;
  /// GPU streams to launch chunks on (paper: num_stream).
  int num_streams = 2;
  /// Optional device-memory cap; the runtime shrinks chunk_size (and, as a
  /// last resort, num_streams) until the pre-allocated buffers fit.
  std::optional<Bytes> mem_limit;
  /// Plan optimization level (core/plan_opt.hpp): 0 executes plans exactly
  /// as built, 1 (default) adds halo-reuse H2D elimination and segment
  /// coalescing, 2 adds stream rebalancing of transfer nodes.
  int opt_level = 1;
  /// The split loop's iteration range [loop_begin, loop_end).
  std::int64_t loop_begin = 0;
  std::int64_t loop_end = 0;
  std::vector<ArraySpec> arrays;
  /// Non-empty only for sharded sub-regions: per-array P2P halo wiring
  /// (shard_pipeline_specs fills this; empty means no cross-device traffic).
  std::vector<ShardHalo> halos;
  /// Non-empty only for stitched lineage jobs: per-array device-resident
  /// handoff wiring (the scheduler fills this; empty means every mapped
  /// array round-trips through the host as usual).
  std::vector<ArrayHandoff> handoffs;

  void validate() const {
    require(chunk_size >= 1, "chunk_size must be >= 1");
    require(num_streams >= 1, "num_streams must be >= 1");
    require(opt_level >= 0 && opt_level <= 2, "opt_level must be 0, 1, or 2");
    require(loop_end > loop_begin, "pipeline loop range is empty");
    require(!arrays.empty(), "pipeline needs at least one pipeline_map clause");
    for (const auto& a : arrays) a.validate();
    if (mem_limit) require(*mem_limit > 0, "mem_limit must be positive");
    for (const auto& h : halos) {
      require(h.array >= 0 && h.array < static_cast<int>(arrays.size()),
              "shard halo names an array index outside the spec");
      const ArraySpec& a = arrays[static_cast<std::size_t>(h.array)];
      require(a.split.dim == 0 && !a.split.window_fn,
              "array '" + a.name + "': shard halos need a dim-0 affine split");
      require(h.recv_peer >= 0 || h.send_peer >= 0,
              "array '" + a.name + "': shard halo has neither direction");
      if (h.recv_peer >= 0)
        require(h.recv_lo >= 0, "array '" + a.name + "': halo recv_lo must be set");
      if (h.send_peer >= 0)
        require(h.send_hi >= 0, "array '" + a.name + "': halo send_hi must be set");
    }
    for (const auto& h : handoffs) {
      require(h.array >= 0 && h.array < static_cast<int>(arrays.size()),
              "array handoff names an array index outside the spec");
      const ArraySpec& a = arrays[static_cast<std::size_t>(h.array)];
      require(h.link >= 0, "array '" + a.name + "': handoff link must be set");
      require(a.split.dim == 0 && !a.split.window_fn,
              "array '" + a.name + "': handoffs need a dim-0 affine split");
      if (h.produce)
        require(a.map != MapType::To,
                "array '" + a.name + "': a produce handoff needs an output array");
      else
        require(a.map != MapType::From,
                "array '" + a.name + "': a consume handoff needs an input array");
    }
  }

  std::int64_t iterations() const { return loop_end - loop_begin; }
  std::int64_t num_chunks() const { return ceil_div(iterations(), chunk_size); }
};

}  // namespace gpupipe::core
