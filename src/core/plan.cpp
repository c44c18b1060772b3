#include "core/plan.hpp"

#include <algorithm>
#include <charconv>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

#include "common/log.hpp"
#include "common/metrics.hpp"
#include "core/layout.hpp"
#include "core/plan_cache.hpp"
#include "core/plan_opt.hpp"
#include "core/tile_pipeline.hpp"

namespace gpupipe::core {

namespace {

bool is_input(MapType m) { return m == MapType::To || m == MapType::ToFrom; }
bool is_output(MapType m) { return m == MapType::From || m == MapType::ToFrom; }

void append_int(std::string& s, std::int64_t v) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  s.append(buf, end);
}

/// "[lo,hi)" appended to `s`.
void append_range(std::string& s, std::int64_t lo, std::int64_t hi) {
  s += '[';
  append_int(s, lo);
  s += ',';
  append_int(s, hi);
  s += ')';
}

/// A node label: `what` (e.g. "h2d "), the array name, and "[lo,hi)",
/// allocated at its exact size (short ones stay inline: plans live on in
/// the plan cache).
std::string range_label(std::string_view what, std::string_view name, std::int64_t lo,
                        std::int64_t hi) {
  char l[24], h[24];
  char* const l_end = std::to_chars(l, l + sizeof(l), lo).ptr;
  char* const h_end = std::to_chars(h, h + sizeof(h), hi).ptr;
  std::string s;
  s.reserve(what.size() + name.size() + static_cast<std::size_t>((l_end - l) + (h_end - h)) + 3);
  s += what;
  s += name;
  s += '[';
  s.append(l, l_end);
  s += ',';
  s.append(h, h_end);
  s += ')';
  return s;
}

void push_dep(std::vector<int>& deps, int id) {
  if (id >= 0 && std::find(deps.begin(), deps.end(), id) == deps.end()) deps.push_back(id);
}

/// Consecutive host indices [index, index + count) in consecutive ring
/// slots: one copy piece.
struct IndexRun {
  std::int64_t index = 0;
  std::int64_t count = 0;
};

/// One mapped array's ring cells while a builder emits its plan — the
/// plan-time mirror of the device ring both PlanBuilder::pipeline and
/// PlanBuilder::tiles drive. Per cell (a 1-D ring slot, or a column of a
/// tile ring buffer): the host index and row range resident in it, the copy
/// that landed it, the nodes that read it since, and the drain group that
/// last emptied it. Rows ride along per column, not per (row, column) cell:
/// every copy of a tile band covers the band's one row range, so a column
/// and its rows describe the whole cell grid.
class RingCells {
 public:
  /// Empties every cell. With `elide` (opt level >= 1) resident indices
  /// skip their upload, and an upload forgets the cell's drain: the kernel
  /// that reads the new occupant already waits on the upload, which waited
  /// on the drain. Without it nothing is resident and a kernel writing a
  /// cell waits on its last drain even after an upload (the naive rules).
  void reset(std::int64_t cells, bool elide) {
    const auto n = static_cast<std::size_t>(cells);
    ring_ = cells;
    elide_ = elide;
    index_.assign(n, -1);
    row_lo_.assign(n, 0);
    row_hi_.assign(n, 0);
    producer_.assign(n, -1);
    readers_.assign(n, {});
    drain_.assign(n, -1);
  }

  std::int64_t ring() const { return ring_; }

  /// Whether host index `idx` over rows [rlo, rhi) is resident, so an
  /// upload may skip it (never at opt level 0).
  bool resident(std::int64_t idx, std::int64_t rlo, std::int64_t rhi) const {
    const std::size_t c = cell(idx);
    return elide_ && index_[c] == idx && row_lo_[c] <= rlo && rhi <= row_hi_[c];
  }

  /// Whether any cell of host indices [lo, hi) has a reader or a drain to
  /// wait for — i.e. whether the naive schedule guards this window.
  bool guarded(std::int64_t lo, std::int64_t hi) const {
    for (std::int64_t idx = lo; idx < hi; ++idx) {
      const std::size_t c = cell(idx);
      if (!readers_[c].empty() || drain_[c] >= 0) return true;
    }
    return false;
  }

  /// Appends what overwriting `idx`'s cell must wait for (its readers, then
  /// its drain) to `deps`; the new occupant starts with no readers.
  void guard(std::int64_t idx, std::vector<int>& deps) {
    const std::size_t c = cell(idx);
    for (int r : readers_[c]) push_dep(deps, r);
    readers_[c].clear();
    push_dep(deps, drain_[c]);
  }

  /// Records that copy node `copy` lands `idx` over rows [rlo, rhi).
  void land(std::int64_t idx, std::int64_t rlo, std::int64_t rhi, int copy) {
    const std::size_t c = cell(idx);
    index_[c] = idx;
    row_lo_[c] = rlo;
    row_hi_[c] = rhi;
    producer_[c] = copy;
    if (elide_) drain_[c] = -1;
  }

  /// The copy that landed `idx` over rows [rlo, rhi), which must still be
  /// resident.
  int producer(std::int64_t idx, std::int64_t rlo, std::int64_t rhi) const {
    const std::size_t c = cell(idx);
    ensure(index_[c] == idx && row_lo_[c] <= rlo && rhi <= row_hi_[c] && producer_[c] >= 0,
           "plan input slice was never scheduled for copy");
    return producer_[c];
  }

  /// Node `id` reads `idx`'s cell: a later overwrite must wait for it.
  void read(std::int64_t idx, int id) {
    std::vector<int>& r = readers_[cell(idx)];
    if (r.empty() || r.back() != id) r.push_back(id);
  }

  /// A kernel wrote `idx`'s cell: the device data no longer mirrors the
  /// host, so it is not resident any more.
  void write(std::int64_t idx) { index_[cell(idx)] = -1; }

  /// Drain group `recorder` emptied `idx`'s cell; it implies every earlier
  /// drain of the cell, so only the latest is kept.
  void drained(std::int64_t idx, int recorder) { drain_[cell(idx)] = recorder; }
  int drain(std::int64_t idx) const { return drain_[cell(idx)]; }

 private:
  std::size_t cell(std::int64_t idx) const { return static_cast<std::size_t>(idx % ring_); }

  std::int64_t ring_ = 1;
  bool elide_ = false;
  std::vector<std::int64_t> index_;  // resident host index, -1 = none
  std::vector<std::int64_t> row_lo_;
  std::vector<std::int64_t> row_hi_;
  std::vector<int> producer_;
  std::vector<std::vector<int>> readers_;
  std::vector<int> drain_;
};

/// How one mapped array's copies are shaped: bytes per split index (column)
/// per copied row, and the rows a 1-D piece ships (1 for slabs, the array's
/// rows for column blocks). Tile pieces ship one row per host row instead.
struct CopyShape {
  Bytes col_width = 0;
  Bytes flat_height = 1;
  bool tiled = false;
};

/// The node-emitting half both builders share: per-array ring cells and
/// copy shapes, guard and upload emission with halo reuse, and the
/// accounting of the naive schedule the OptReport measures savings
/// against. The builders own the loop structure.
class PlanEmitter {
 public:
  PlanEmitter(ExecutionPlan& plan, std::vector<CopyShape> shapes, int opt_level)
      : plan_(plan),
        shapes_(std::move(shapes)),
        cells_(plan.arrays.size()),
        elide_(opt_level >= 1),
        stitched_by_array_(plan.arrays.size(), 0),
        saved_by_array_(plan.arrays.size(), 0) {
    for (const PlanArrayInfo& a : plan.arrays) wired_ = wired_ || a.handoff_link >= 0;
    reset();
  }

  /// Empties every array's ring (plan start; tile band start).
  void reset() {
    for (std::size_t ai = 0; ai < cells_.size(); ++ai)
      cells_[ai].reset(plan_.arrays[ai].ring_len, elide_);
  }

  RingCells& cells(int array) { return cells_[static_cast<std::size_t>(array)]; }
  PlanNode& node(int id) { return plan_.nodes[static_cast<std::size_t>(id)]; }

  int add(PlanNode n) {
    n.id = static_cast<int>(plan_.nodes.size());
    plan_.nodes.push_back(std::move(n));
    return plan_.nodes.back().id;
  }

  /// Opens the upload window [lo, hi) of `proto`'s array (proto carries the
  /// stream, chunk and host rows). At opt level 0 it emits the window's one
  /// slot-reuse guard and returns its id for upload(); at level >= 1 each
  /// upload guards its own cells, and the naive guard is only counted.
  int open_window(const PlanNode& proto, std::int64_t lo, std::int64_t hi) {
    RingCells& rc = cells(proto.array);
    if (elide_) {
      if (rc.guarded(lo, hi)) ++dropped_;
      return -1;
    }
    runs_.clear();
    add_runs(rc, lo, hi, 0, 0, /*skip_resident=*/false);
    return guard(proto, rc);
  }

  /// Emits the upload of host indices [lo, hi) of `proto`'s array (an H2D,
  /// or a P2pRecv from a neighbour shard): at opt level >= 1 only the
  /// indices not resident, behind a guard of their own cells; at level 0
  /// all of them, behind `window_guard`. A consume-side handoff array lands
  /// through a DeviceHandoff instead of an H2D. Returns the node id, or -1
  /// when every index was resident.
  int upload(PlanNode proto, std::int64_t lo, std::int64_t hi, int window_guard) {
    const std::size_t ai = static_cast<std::size_t>(proto.array);
    const PlanArrayInfo& info = plan_.arrays[ai];
    const CopyShape& shape = shapes_[ai];
    RingCells& rc = cells_[ai];
    const std::int64_t rlo = shape.tiled ? proto.row_begin : 0;
    const std::int64_t rhi = shape.tiled ? proto.row_end : 1;
    const Bytes naive = static_cast<Bytes>(hi - lo) * shape.col_width *
                        (shape.tiled ? static_cast<Bytes>(rhi - rlo) : shape.flat_height);
    const bool handoff = proto.op == PlanOp::H2D && info.handoff_link >= 0 && !info.handoff_out;
    if (proto.op == PlanOp::H2D) h2d_before_ += naive;
    if (handoff) {
      proto.op = PlanOp::DeviceHandoff;
      proto.peer = info.handoff_link;
      ++stitched_nodes_;
      stitched_by_array_[ai] += naive;
    }

    runs_.clear();
    add_runs(rc, lo, hi, rlo, rhi, /*skip_resident=*/true);
    if (elide_) ++dropped_;  // the naive upload, which this one replaces
    if (runs_.empty()) {
      saved_by_array_[ai] += naive;
      return -1;
    }
    int g = window_guard;
    if (elide_) {
      g = guard(proto, rc);
      dropped_ -= 1 + (g >= 0 ? 1 : 0);
    }
    proto.begin = runs_.front().index;
    proto.end = runs_.back().index + runs_.back().count;
    fill_segments(proto, shape, info.ring_len, rlo, rhi);
    if (g >= 0) proto.deps.push_back(g);
    const char* what = proto.op == PlanOp::H2D       ? "h2d "
                       : proto.op == PlanOp::P2pRecv ? "p2p-recv "
                                                     : "handoff-in ";
    if (proto.bytes < naive) {
      saved_by_array_[ai] += naive - proto.bytes;
      ++shrunk_;
    }
    if (shape.tiled && proto.bytes == naive) {
      // An unshrunk tile block names its rows too.
      proto.label = what + info.name;
      append_range(proto.label, rlo, rhi);
      proto.label += 'x';
      append_range(proto.label, proto.begin, proto.end);
    } else {
      proto.label = range_label(what, info.name, proto.begin, proto.end);
    }
    const int id = add(std::move(proto));
    for (const IndexRun& run : runs_)
      for (std::int64_t idx = run.index; idx < run.index + run.count; ++idx)
        rc.land(idx, rlo, rhi, id);
    return id;
  }

  /// Fills `n`'s segments and bytes with every index of [n.begin, n.end)
  /// (drains and halo pushes move whole ranges).
  void fill_all(PlanNode& n) {
    const std::size_t ai = static_cast<std::size_t>(n.array);
    const CopyShape& shape = shapes_[ai];
    const std::int64_t rlo = shape.tiled ? n.row_begin : 0;
    const std::int64_t rhi = shape.tiled ? n.row_end : 1;
    runs_.clear();
    add_runs(cells_[ai], n.begin, n.end, rlo, rhi, /*skip_resident=*/false);
    fill_segments(n, shape, plan_.arrays[ai].ring_len, rlo, rhi);
  }

  /// Emits the copy-out of [lo, hi) of `proto`'s array after its kernel
  /// (a DeviceHandoff for a produce-side handoff array).
  int drain(PlanNode proto, std::int64_t lo, std::int64_t hi, int kernel) {
    const std::size_t ai = static_cast<std::size_t>(proto.array);
    const PlanArrayInfo& info = plan_.arrays[ai];
    proto.begin = lo;
    proto.end = hi;
    fill_all(proto);
    proto.deps.push_back(kernel);
    d2h_before_ += proto.bytes;
    if (info.handoff_link >= 0 && info.handoff_out) {
      proto.op = PlanOp::DeviceHandoff;
      proto.peer = info.handoff_link;
      proto.label = range_label("handoff-out ", info.name, lo, hi);
      ++stitched_nodes_;
      stitched_by_array_[ai] += proto.bytes;
    } else if (shapes_[ai].tiled) {
      proto.label = "d2h " + info.name;
      append_range(proto.label, proto.row_begin, proto.row_end);
      proto.label += 'x';
      append_range(proto.label, lo, hi);
    } else {
      proto.label = range_label("d2h ", info.name, lo, hi);
    }
    return add(std::move(proto));
  }

  /// Makes `ids` one event group: the last member records, all point at it.
  void group(const std::vector<int>& ids) {
    if (ids.empty()) return;
    node(ids.back()).records_event = true;
    for (int id : ids) node(id).event_node = ids.back();
  }

  /// Emits kernel `k` (accesses declared): it waits on the copy that landed
  /// each index it reads and on the last drain of each slot it writes, and
  /// records its own event.
  int kernel(PlanNode k) {
    for (const PlanAccess& acc : k.accesses) {
      const RingCells& rc = cells(acc.array);
      for (std::int64_t idx = acc.lo; idx < acc.hi; ++idx)
        push_dep(k.deps, acc.write ? rc.drain(idx) : rc.producer(idx, acc.row_lo, acc.row_hi));
    }
    k.records_event = true;
    const int id = add(std::move(k));
    node(id).event_node = id;
    for (const PlanAccess& acc : node(id).accesses) {
      RingCells& rc = cells(acc.array);
      for (std::int64_t idx = acc.lo; idx < acc.hi; ++idx) {
        if (acc.write)
          rc.write(idx);
        else
          rc.read(idx, id);
      }
    }
    return id;
  }

  /// Makes the copy-outs `ids` of one kernel an event group; its recorder
  /// becomes the last drain of every slot they empty.
  void drains(const std::vector<int>& ids) {
    group(ids);
    for (int id : ids) {
      const PlanNode& d = node(id);
      for (std::int64_t idx = d.begin; idx < d.end; ++idx)
        cells(d.array).drained(idx, ids.back());
    }
  }

  /// Ends the build: trims the node list (plans live on in the plan cache)
  /// and fills the build's share of the optimization report — the naive
  /// schedule's volume and node count, the stitch lowering, and halo reuse.
  void finish(OptReport* report) {
    plan_.nodes.shrink_to_fit();
    if (report == nullptr) return;
    *report = OptReport{};
    report->h2d_bytes_before = h2d_before_;
    report->d2h_bytes_before = d2h_before_;
    report->nodes_before = static_cast<std::int64_t>(plan_.nodes.size()) + dropped_;
    auto entry = [this](const char* pass, const std::vector<Bytes>& by_array) {
      PassStats s;
      s.pass = pass;
      for (std::size_t ai = 0; ai < by_array.size(); ++ai) {
        s.bytes_saved_by_array.emplace_back(plan_.arrays[ai].name, by_array[ai]);
        s.bytes_saved += by_array[ai];
      }
      return s;
    };
    if (wired_) {
      PassStats s = entry("stitch", stitched_by_array_);
      s.nodes_changed = stitched_nodes_;
      report->stitched_bytes = s.bytes_saved;
      report->passes.push_back(std::move(s));
    }
    if (elide_) {
      PassStats s = entry("halo-reuse", saved_by_array_);
      s.nodes_removed = dropped_;
      s.nodes_changed = shrunk_;
      report->passes.push_back(std::move(s));
    }
    report->h2d_bytes_after = plan_.transfer_bytes(PlanOp::H2D);
    report->d2h_bytes_after = plan_.transfer_bytes(PlanOp::D2H);
    report->nodes_after = static_cast<std::int64_t>(plan_.nodes.size());
  }

 private:
  /// Collects into runs_ the indices of [lo, hi) to move — with
  /// `skip_resident`, only those not resident over rows [rlo, rhi) — as
  /// maximal runs broken at ring wraps.
  void add_runs(const RingCells& rc, std::int64_t lo, std::int64_t hi, std::int64_t rlo,
                std::int64_t rhi, bool skip_resident) {
    const std::int64_t ring = rc.ring();
    require(0 <= lo && lo <= hi, "ring segment range must be non-negative");
    require(hi - lo <= ring, "ring segment range is larger than the ring");
    for (std::int64_t idx = lo; idx < hi; ++idx) {
      if (skip_resident && rc.resident(idx, rlo, rhi)) continue;
      if (!runs_.empty() && runs_.back().index + runs_.back().count == idx && idx % ring != 0)
        ++runs_.back().count;
      else
        runs_.push_back({idx, 1});
    }
  }

  /// Emits the slot-reuse guard over the cells of runs_ (none when nothing
  /// read or drained them since they were last written); returns its id.
  int guard(const PlanNode& proto, RingCells& rc) {
    std::vector<int> deps;
    for (const IndexRun& run : runs_)
      for (std::int64_t idx = run.index; idx < run.index + run.count; ++idx)
        rc.guard(idx, deps);
    if (deps.empty()) return -1;
    PlanNode sr;
    sr.op = PlanOp::SlotReuse;
    sr.stream = proto.stream;
    sr.array = proto.array;
    sr.chunk = proto.chunk;
    sr.begin = runs_.front().index;
    sr.end = runs_.back().index + runs_.back().count;
    sr.row_begin = proto.row_begin;
    sr.row_end = proto.row_end;
    sr.deps = std::move(deps);
    sr.label = range_label("reuse ", plan_.arrays[static_cast<std::size_t>(proto.array)].name,
                           sr.begin, sr.end);
    return add(std::move(sr));
  }

  /// One piece per run of runs_ — per buffer-row run of [rlo, rhi) for tile
  /// blocks (row-outer, the order the tile binding copies in), once for
  /// 1-D rings — and the node's bytes as their sum.
  void fill_segments(PlanNode& n, const CopyShape& shape, std::int64_t ring_len,
                     std::int64_t rlo, std::int64_t rhi) const {
    const std::int64_t ring_rows = plan_.arrays[static_cast<std::size_t>(n.array)].ring_rows;
    n.bytes = 0;
    n.segments.reserve(runs_.size());
    for (std::int64_t r = rlo; r < rhi;) {
      const std::int64_t slot_r = r % ring_rows;
      const std::int64_t nr = std::min(rhi - r, ring_rows - slot_r);
      for (const IndexRun& run : runs_) {
        PlanSegment seg;
        seg.slot = run.index % ring_len;
        seg.index = run.index;
        seg.count = run.count;
        seg.width = static_cast<Bytes>(run.count) * shape.col_width;
        seg.height = shape.flat_height;
        if (shape.tiled) {
          seg.row_slot = slot_r;
          seg.row = r;
          seg.rows = nr;
          seg.height = static_cast<Bytes>(nr);
        }
        n.bytes += seg.bytes();
        n.segments.push_back(seg);
      }
      r += nr;
    }
  }

  ExecutionPlan& plan_;
  std::vector<CopyShape> shapes_;
  std::vector<RingCells> cells_;
  bool elide_;
  bool wired_ = false;
  std::vector<IndexRun> runs_;
  // Naive-schedule accounting: its H2D/D2H volume, its nodes this plan
  // dropped (negative when elision splits a guard in two), and the bytes
  // the stitch lowering and halo reuse took off the host.
  Bytes h2d_before_ = 0;
  Bytes d2h_before_ = 0;
  std::int64_t dropped_ = 0;
  std::int64_t shrunk_ = 0;
  std::int64_t stitched_nodes_ = 0;
  std::vector<Bytes> stitched_by_array_;
  std::vector<Bytes> saved_by_array_;
};

ExecutionPlan predicted_pipeline(const PipelineSpec& spec, const gpu::Gpu* g) {
  spec.validate();
  ExecutionPlan plan =
      PlanBuilder::pipeline(spec, spec.chunk_size, spec.num_streams, spec.loop_begin,
                            spec.loop_end, PipelineBuildState::predicted(spec, g));
  optimize_plan(plan, spec.opt_level, g ? &g->profile() : nullptr);
  return plan;
}

}  // namespace

PipelineBuildState PipelineBuildState::predicted(const PipelineSpec& spec, const gpu::Gpu* g) {
  PipelineBuildState state;
  state.ring_lens.reserve(spec.arrays.size());
  state.pinned.reserve(spec.arrays.size());
  for (const ArraySpec& a : spec.arrays) {
    state.ring_lens.push_back(
        std::min(layout::ring_len_for_spec(a, spec.loop_begin, spec.loop_end, spec.chunk_size,
                                           spec.num_streams),
                 a.dims[static_cast<std::size_t>(a.split.dim)]));
    state.pinned.push_back(g ? g->is_pinned(a.host) : true);
  }
  return state;
}

// --- PlanBuilder: 1-D pipeline ---

ExecutionPlan PlanBuilder::pipeline(const PipelineSpec& spec, std::int64_t chunk_size,
                                    int num_streams, std::int64_t from, std::int64_t to,
                                    const PipelineBuildState& state, OptReport* report) {
  require(chunk_size >= 1 && num_streams >= 1, "plan needs chunk_size and num_streams >= 1");
  require(from <= to, "plan iteration range is reversed");
  require(state.ring_lens.size() == spec.arrays.size(),
          "plan build state must describe every mapped array");

  ExecutionPlan plan;
  plan.num_streams = num_streams;
  plan.chunk_size = chunk_size;
  plan.origin = "pipeline";
  plan.arrays.reserve(spec.arrays.size());
  std::vector<CopyShape> shapes;
  shapes.reserve(spec.arrays.size());
  for (std::size_t ai = 0; ai < spec.arrays.size(); ++ai) {
    const ArraySpec& a = spec.arrays[ai];
    PlanArrayInfo info;
    info.name = a.name;
    info.map = a.map;
    info.ring_len = state.ring_lens[ai];
    info.unit_bytes = layout::unit_bytes(a);
    info.pinned = state.pinned.empty() ? true : state.pinned[ai];
    for (const ArrayHandoff& h : spec.handoffs)
      if (h.array == static_cast<int>(ai)) {
        info.handoff_link = h.link;
        info.handoff_out = h.produce;
      }
    plan.arrays.push_back(std::move(info));
    // Slabs ship one row of unit bytes per index; column blocks ship
    // dims[0] rows of one element per index.
    if (a.split.dim == 0)
      shapes.push_back({layout::unit_bytes(a), 1, false});
    else
      shapes.push_back({a.elem_size, static_cast<Bytes>(a.dims[0]), false});
  }
  PlanEmitter e(plan, std::move(shapes), spec.opt_level);

  // Shard halo wiring (empty for solo regions): which arrays receive part of
  // their window device-to-device, and which push their first-window head to
  // a neighbour shard.
  std::vector<const ShardHalo*> halo_of(spec.arrays.size(), nullptr);
  for (const ShardHalo& h : spec.halos)
    halo_of[static_cast<std::size_t>(h.array)] = &h;

  std::vector<int> group;
  std::int64_t counter = state.first_chunk;
  for (std::int64_t lo = from; lo < to; lo += chunk_size, ++counter) {
    const std::int64_t hi = std::min(lo + chunk_size, to);
    const int stream = static_cast<int>(counter % num_streams);

    // ---- copy-in: the input slices the chunk's windows need ----
    group.clear();
    for (std::size_t ai = 0; ai < spec.arrays.size(); ++ai) {
      const ArraySpec& a = spec.arrays[ai];
      if (!is_input(a.map)) continue;
      const auto [w_lo, w_hi] = layout::window_of(a, lo, hi);
      if (w_lo >= w_hi) continue;
      PlanNode proto;
      proto.op = PlanOp::H2D;
      proto.stream = stream;
      proto.array = static_cast<int>(ai);
      proto.chunk = counter;
      const int window_guard = e.open_window(proto, w_lo, w_hi);
      // A shard's foreign tail [recv_lo, w_hi) lands via P2P from the
      // neighbour that owns it; everything below recv_lo comes from the
      // host as usual. Solo regions have no halo and upload the whole
      // window from the host.
      const ShardHalo* hal = halo_of[ai];
      const std::int64_t recv_lo =
          hal && hal->recv_peer >= 0 ? std::clamp(hal->recv_lo, w_lo, w_hi) : w_hi;
      if (w_lo < recv_lo) {
        const int id = e.upload(proto, w_lo, recv_lo, window_guard);
        if (id >= 0) group.push_back(id);
      }
      if (recv_lo < w_hi) {
        proto.op = PlanOp::P2pRecv;
        proto.peer = hal->recv_peer;
        const int id = e.upload(proto, recv_lo, w_hi, window_guard);
        if (id >= 0) group.push_back(id);
      }
    }
    e.group(group);

    // ---- halo push: forward the first window's head to the neighbour ----
    // The overlap a neighbour's trailing windows need is exactly the head of
    // this shard's own first window, so it is already on the device after the
    // first chunk's upload — one P2P copy forwards it without touching the
    // host. Registered as a reader of its slots so any later overwrite (ring
    // wrap) orders after the push.
    if (lo == from) {
      for (std::size_t ai = 0; ai < spec.arrays.size(); ++ai) {
        const ShardHalo* hal = halo_of[ai];
        if (!hal || hal->send_peer < 0) continue;
        const ArraySpec& a = spec.arrays[ai];
        ensure(is_input(a.map), "shard halo send on a non-input array");
        RingCells& rc = e.cells(static_cast<int>(ai));
        const auto [w_lo, w_hi] = layout::window_of(a, lo, hi);
        require(w_lo < hal->send_hi && hal->send_hi <= w_hi,
                "array '" + a.name + "': shard halo send range must sit inside the "
                "first chunk's window");
        PlanNode p;
        p.op = PlanOp::P2pSend;
        p.stream = stream;
        p.array = static_cast<int>(ai);
        p.chunk = counter;
        p.begin = w_lo;
        p.end = hal->send_hi;
        p.peer = hal->send_peer;
        e.fill_all(p);
        for (std::int64_t idx = p.begin; idx < p.end; ++idx)
          push_dep(p.deps, rc.producer(idx, 0, 1));
        p.records_event = true;
        p.label = range_label("p2p-send ", a.name, p.begin, p.end) + "->s" +
                  std::to_string(p.peer);
        const int pid = e.add(std::move(p));
        e.node(pid).event_node = pid;
        for (std::int64_t idx = w_lo; idx < hal->send_hi; ++idx) rc.read(idx, pid);
      }
    }

    // ---- kernel ----
    PlanNode k;
    k.op = PlanOp::Kernel;
    k.stream = stream;
    k.chunk = counter;
    k.begin = lo;
    k.end = hi;
    k.label = "chunk";
    append_int(k.label, counter);
    for (std::size_t ai = 0; ai < spec.arrays.size(); ++ai) {
      const ArraySpec& a = spec.arrays[ai];
      const int array = static_cast<int>(ai);
      const auto [w_lo, w_hi] = layout::window_of(a, lo, hi);
      if (is_input(a.map)) k.accesses.push_back({array, w_lo, w_hi, 0, 0, false});
      if (is_output(a.map)) k.accesses.push_back({array, w_lo, w_hi, 0, 0, true});
    }
    const int kid = e.kernel(std::move(k));

    // ---- copy-out: drain produced output slices ----
    group.clear();
    for (std::size_t ai = 0; ai < spec.arrays.size(); ++ai) {
      const ArraySpec& a = spec.arrays[ai];
      if (!is_output(a.map)) continue;
      const auto [o_lo, o_hi] = layout::window_of(a, lo, hi);
      PlanNode d;
      d.op = PlanOp::D2H;
      d.stream = stream;
      d.array = static_cast<int>(ai);
      d.chunk = counter;
      group.push_back(e.drain(std::move(d), o_lo, o_hi, kid));
    }
    e.drains(group);
  }
  e.finish(report);
  return plan;
}

ExecutionPlan PlanBuilder::pipeline(const PipelineSpec& spec) {
  return predicted_pipeline(spec, nullptr);
}

ExecutionPlan PlanBuilder::pipeline(const gpu::Gpu& g, const PipelineSpec& spec) {
  return predicted_pipeline(spec, &g);
}

// --- Shard decomposition ---

std::vector<ShardSlice> shard_pipeline_specs(const PipelineSpec& spec,
                                             const std::vector<double>& weights) {
  spec.validate();
  require(spec.schedule == ScheduleKind::Static, "sharding requires the static schedule");
  require(spec.halos.empty(), "cannot re-shard an already-sharded sub-spec");
  require(spec.handoffs.empty(), "cannot shard a spec wired for device handoffs");
  for (const auto& a : spec.arrays)
    require(a.split.dim == 0 && !a.split.window_fn,
            "array '" + a.name + "': sharding needs dim-0 affine splits");
  const auto parts =
      layout::partition_weighted(spec.iterations(), weights, spec.chunk_size);

  std::vector<ShardSlice> out;
  std::int64_t begin = spec.loop_begin;
  for (std::size_t d = 0; d < parts.size(); ++d) {
    if (parts[d] <= 0) continue;
    ShardSlice s;
    s.shard = static_cast<int>(out.size());
    s.weight = d;
    s.begin = begin;
    s.end = begin + parts[d];
    begin = s.end;
    s.spec = spec;
    s.spec.loop_begin = s.begin;
    s.spec.loop_end = s.end;
    out.push_back(std::move(s));
  }

  // Wire neighbour halos: where an input window overhangs its stride, shard
  // s's trailing windows reach `overhang` indices past the boundary into
  // territory shard s+1 uploads as the head of its own first window — so
  // s+1 pushes that head device-to-device and s never asks the host for it.
  auto halo_entry = [](ShardSlice& s, int ai) -> ShardHalo& {
    for (ShardHalo& h : s.spec.halos)
      if (h.array == ai) return h;
    ShardHalo h;
    h.array = ai;
    s.spec.halos.push_back(h);
    return s.spec.halos.back();
  };
  for (std::size_t i = 0; i + 1 < out.size(); ++i) {
    ShardSlice& left = out[i];
    ShardSlice& right = out[i + 1];
    for (std::size_t ai = 0; ai < spec.arrays.size(); ++ai) {
      const ArraySpec& a = spec.arrays[ai];
      if (!is_input(a.map)) continue;
      const std::int64_t overhang = layout::halo(a.split.window, a.split.start.scale);
      if (overhang <= 0) continue;
      const std::int64_t boundary = a.split.start(right.begin);
      ShardHalo& recv = halo_entry(left, static_cast<int>(ai));
      recv.recv_lo = boundary;
      recv.recv_peer = right.shard;
      ShardHalo& send = halo_entry(right, static_cast<int>(ai));
      send.send_hi = boundary + overhang;
      send.send_peer = left.shard;
    }
  }
  return out;
}

// --- PlanBuilder: 2-D tiles ---

ExecutionPlan PlanBuilder::tiles(const TileSpec& spec, const TileBuildState& state,
                                 OptReport* report) {
  spec.validate();
  require(state.ring_rows.size() == spec.arrays.size() &&
              state.ring_cols.size() == spec.arrays.size(),
          "tile build state must describe every mapped array");

  ExecutionPlan plan;
  plan.num_streams = spec.num_streams;
  plan.chunk_size = 1;
  plan.origin = "tiles";
  plan.arrays.reserve(spec.arrays.size());
  std::vector<CopyShape> shapes;
  for (std::size_t ai = 0; ai < spec.arrays.size(); ++ai) {
    const TileArraySpec& a = spec.arrays[ai];
    PlanArrayInfo info;
    info.name = a.name;
    info.map = a.map;
    info.ring_len = state.ring_cols[ai];
    info.ring_rows = state.ring_rows[ai];
    info.unit_bytes = a.elem_size;
    info.pinned = state.pinned.empty() ? true : state.pinned[ai];
    plan.arrays.push_back(std::move(info));
    shapes.push_back({a.elem_size, 1, true});
  }
  PlanEmitter e(plan, std::move(shapes), spec.opt_level);

  // The host block of tile (i, j) of array `a`: rows [rs, rh) x columns
  // [cs, ch), which must lie inside the host matrix.
  struct Block {
    std::int64_t rs, rh, cs, ch;
  };
  auto block_of = [](const TileArraySpec& a, std::int64_t i, std::int64_t j) {
    const Block b{a.row_split.start(i), a.row_split.start(i) + a.row_split.window,
                  a.col_split.start(j), a.col_split.start(j) + a.col_split.window};
    require(0 <= b.rs && b.rs < b.rh && b.rh <= a.rows && 0 <= b.cs && b.cs < b.ch &&
                b.ch <= a.cols,
            "tile array '" + a.name + "': block outside the host matrix");
    return b;
  };

  const std::size_t ns = static_cast<std::size_t>(spec.num_streams);
  std::vector<int> prev_band_tails;
  std::vector<int> group;
  std::int64_t tile_counter = 0;

  for (std::int64_t i = 0; i < spec.ni; ++i) {
    // Band start: nothing stays resident across bands (the new band
    // overwrites the buffer rows); the barrier below protects the rows the
    // new band will overwrite.
    e.reset();
    std::vector<bool> barrier_done(ns, prev_band_tails.empty());
    std::vector<bool> used(ns, false);
    std::vector<int> band_tail(ns, -1);

    for (std::int64_t j = 0; j < spec.nj; ++j, ++tile_counter) {
      const int stream = static_cast<int>(tile_counter % spec.num_streams);
      const std::size_t si = static_cast<std::size_t>(stream);
      used[si] = true;
      if (!barrier_done[si]) {
        PlanNode b;
        b.op = PlanOp::Barrier;
        b.stream = stream;
        b.tile_i = i;
        b.deps = prev_band_tails;
        b.label = "band" + std::to_string(i) + " barrier";
        e.add(std::move(b));
        barrier_done[si] = true;
      }

      // ---- copy-in: the columns of every input's block ----
      group.clear();
      for (std::size_t ai = 0; ai < spec.arrays.size(); ++ai) {
        const TileArraySpec& a = spec.arrays[ai];
        if (!is_input(a.map)) continue;
        const Block b = block_of(a, i, j);
        PlanNode proto;
        proto.op = PlanOp::H2D;
        proto.stream = stream;
        proto.array = static_cast<int>(ai);
        proto.chunk = tile_counter;
        proto.row_begin = b.rs;
        proto.row_end = b.rh;
        proto.tile_i = i;
        proto.tile_j = j;
        const int window_guard = e.open_window(proto, b.cs, b.ch);
        const int id = e.upload(std::move(proto), b.cs, b.ch, window_guard);
        if (id >= 0) group.push_back(id);
      }
      e.group(group);

      // ---- kernel ----
      PlanNode k;
      k.op = PlanOp::Kernel;
      k.stream = stream;
      k.chunk = tile_counter;
      k.begin = j;
      k.end = j + 1;
      k.tile_i = i;
      k.tile_j = j;
      k.label = "tile(" + std::to_string(i) + "," + std::to_string(j) + ")";
      for (std::size_t ai = 0; ai < spec.arrays.size(); ++ai) {
        const TileArraySpec& a = spec.arrays[ai];
        const std::int64_t rs = a.row_split.start(i);
        const std::int64_t rh = rs + a.row_split.window;
        const std::int64_t cs = a.col_split.start(j);
        const std::int64_t ch = cs + a.col_split.window;
        const int array = static_cast<int>(ai);
        if (is_input(a.map)) k.accesses.push_back({array, cs, ch, rs, rh, false});
        if (is_output(a.map)) k.accesses.push_back({array, cs, ch, rs, rh, true});
      }
      const int kid = e.kernel(std::move(k));

      // ---- copy-out ----
      group.clear();
      for (std::size_t ai = 0; ai < spec.arrays.size(); ++ai) {
        const TileArraySpec& a = spec.arrays[ai];
        if (!is_output(a.map)) continue;
        const Block b = block_of(a, i, j);
        PlanNode d;
        d.op = PlanOp::D2H;
        d.stream = stream;
        d.array = static_cast<int>(ai);
        d.chunk = tile_counter;
        d.row_begin = b.rs;
        d.row_end = b.rh;
        d.tile_i = i;
        d.tile_j = j;
        group.push_back(e.drain(std::move(d), b.cs, b.ch, kid));
      }
      e.drains(group);
      band_tail[si] = group.empty() ? kid : group.back();
    }

    // Band end: the next band's barrier waits on each used stream's tail.
    prev_band_tails.clear();
    for (std::size_t s = 0; s < ns; ++s)
      if (used[s] && band_tail[s] >= 0) prev_band_tails.push_back(band_tail[s]);
  }
  e.finish(report);
  return plan;
}

// --- Memory-limit solver ---

Bytes predicted_pipeline_footprint(const gpu::Gpu& g, const PipelineSpec& spec,
                                   std::int64_t chunk_size, int num_streams) {
  Bytes total = 0;
  for (const auto& a : spec.arrays)
    total += RingBuffer::predict_footprint(
        g, a,
        layout::ring_len_for_spec(a, spec.loop_begin, spec.loop_end, chunk_size,
                                  num_streams));
  return total;
}

SolvedShape solve_pipeline_shape(const gpu::Gpu& g, const PipelineSpec& spec, Bytes limit) {
  std::int64_t c = spec.chunk_size;
  int s = spec.num_streams;
  for (;;) {
    const Bytes fp = predicted_pipeline_footprint(g, spec, c, s);
    if (fp <= limit) return {c, s, fp};
    if (c > 1) {
      log_debug("pipeline: shrinking chunk_size ", c, " -> ", (c + 1) / 2,
                " to meet the memory limit (need ", fp, " of ", limit, " bytes)");
      if (telemetry::metrics_enabled())
        telemetry::global_metrics().counter("pipeline.chunk_shrink_events").add(1);
      c = (c + 1) / 2;
    } else if (s > 1) {
      log_debug("pipeline: dropping to ", s - 1, " stream(s) to meet the memory limit");
      if (telemetry::metrics_enabled())
        telemetry::global_metrics().counter("pipeline.stream_drop_events").add(1);
      --s;
    } else {
      throw gpu::OomError(
          "pipeline_mem_limit unsatisfiable: even chunk_size=1 with one stream needs " +
          std::to_string(fp) + " bytes, limit is " + std::to_string(limit));
    }
  }
}

std::pair<std::int64_t, int> solve_pipeline_memory(const gpu::Gpu& g, const PipelineSpec& spec,
                                                   Bytes limit) {
  const SolvedShape solved = solve_pipeline_shape(g, spec, limit);
  return {solved.chunk_size, solved.num_streams};
}

// --- Static validation ---

void ExecutionPlan::validate() const {
  // Slot accesses of every node in one flat table; each op refers to its
  // slice of it, and to its node's deps and label.
  std::vector<gpu::StaticOp::Access> accesses;
  std::vector<std::size_t> first(nodes.size() + 1, 0);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const PlanNode& n = nodes[i];
    first[i] = accesses.size();
    // Transfers touch exactly their wrap segments; kernel accesses are
    // wrap-decomposed the same way. Slot space is (buffer row, ring slot)
    // flattened as row * ring_len + slot.
    auto add_segments = [&](bool write) {
      const std::int64_t ring = arrays[static_cast<std::size_t>(n.array)].ring_len;
      for (const PlanSegment& seg : n.segments)
        for (std::int64_t r = seg.row_slot; r < seg.row_slot + seg.rows; ++r)
          accesses.push_back(
              {n.array, r * ring + seg.slot, r * ring + seg.slot + seg.count, write});
    };
    switch (n.op) {
      case PlanOp::H2D:
        add_segments(true);
        break;
      case PlanOp::D2H:
        add_segments(false);
        break;
      case PlanOp::Kernel:
        for (const PlanAccess& acc : n.accesses) {
          const PlanArrayInfo& info = arrays[static_cast<std::size_t>(acc.array)];
          const std::int64_t row_lo = acc.row_lo;
          const std::int64_t row_hi = std::max(acc.row_hi, acc.row_lo + 1);
          for (std::int64_t r = row_lo; r < row_hi;) {
            const std::int64_t slot_r = r % info.ring_rows;
            const std::int64_t nr = std::min(row_hi - r, info.ring_rows - slot_r);
            layout::for_ring_segments(
                acc.lo, acc.hi, info.ring_len,
                [&](std::int64_t slot, std::int64_t, std::int64_t count) {
                  for (std::int64_t rr = slot_r; rr < slot_r + nr; ++rr)
                    accesses.push_back({acc.array, rr * info.ring_len + slot,
                                        rr * info.ring_len + slot + count, acc.write});
                });
            r += nr;
          }
        }
        break;
      case PlanOp::P2pSend:
        // Reads its own ring slots; the write into the peer's link stage
        // lies outside this plan (the machine-wide tracker covers it at run
        // time — static validation is per-plan).
        add_segments(false);
        break;
      case PlanOp::P2pRecv:
        // Lands peer data into its own ring slots, just like an H2D.
        add_segments(true);
        break;
      case PlanOp::DeviceHandoff:
        // Produce side reads its ring slots into staging (like a D2H);
        // consume side lands staged data into its ring (like an H2D). The
        // link's staging buffer itself lies outside this plan.
        add_segments(!arrays[static_cast<std::size_t>(n.array)].handoff_out);
        break;
      case PlanOp::SlotReuse:
      case PlanOp::Barrier:
        break;  // ordering-only nodes
    }
  }
  first[nodes.size()] = accesses.size();

  std::vector<gpu::StaticOp> ops(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const PlanNode& n = nodes[i];
    ops[i].queue = n.stream;
    ops[i].deps = n.deps;
    ops[i].accesses = std::span(accesses).subspan(first[i], first[i + 1] - first[i]);
    ops[i].label = n.label.empty() ? std::string_view(to_string(n.op)) : n.label;
  }
  gpu::validate_static_schedule(ops, num_streams);
}

// --- DOT export ---

void ExecutionPlan::to_dot(std::ostream& os) const {
  os << "digraph \"" << origin << "\" {\n";
  os << "  rankdir=LR;\n";
  os << "  node [shape=box, fontname=\"monospace\", fontsize=10];\n";
  for (int s = 0; s < num_streams; ++s) {
    os << "  subgraph cluster_s" << s << " {\n";
    os << "    label=\"stream " << s << "\";\n";
    for (const PlanNode& n : nodes) {
      if (n.stream != s) continue;
      os << "    n" << n.id << " [label=\"" << (n.label.empty() ? to_string(n.op) : n.label)
         << "\"";
      switch (n.op) {
        case PlanOp::H2D:
          os << ", style=filled, fillcolor=lightblue";
          break;
        case PlanOp::D2H:
          os << ", style=filled, fillcolor=lightgreen";
          break;
        case PlanOp::Kernel:
          os << ", style=filled, fillcolor=khaki";
          break;
        case PlanOp::P2pSend:
          os << ", style=filled, fillcolor=orchid";
          break;
        case PlanOp::P2pRecv:
          os << ", style=filled, fillcolor=lightsalmon";
          break;
        case PlanOp::DeviceHandoff:
          os << ", style=filled, fillcolor=gold";
          break;
        case PlanOp::SlotReuse:
        case PlanOp::Barrier:
          os << ", style=dashed, color=gray";
          break;
      }
      os << "];\n";
    }
    os << "  }\n";
  }
  for (const PlanNode& n : nodes)
    for (int d : n.deps) os << "  n" << d << " -> n" << n.id << ";\n";
  os << "}\n";
}

// --- PlanExecutor ---

void PlanExecutor::bind(std::vector<gpu::Stream*> streams,
                        std::vector<PlanArrayBinding*> arrays) {
  streams_ = std::move(streams);
  arrays_ = std::move(arrays);
  events_.clear();
}

void PlanExecutor::bind_link(std::size_t array, const BufferView& ring, DeviceLink* push,
                             DeviceLink* pull) {
  if (links_.size() <= array) links_.resize(array + 1);
  links_[array] = {ring, push, pull};
}

void PlanExecutor::issue_link(const ExecutionPlan& plan, const PlanNode& n, gpu::Stream& s) {
  const std::size_t ai = static_cast<std::size_t>(n.array);
  const bool push = n.op == PlanOp::P2pSend ||
                    (n.op == PlanOp::DeviceHandoff && plan.arrays[ai].handoff_out);
  const LinkEnds* ends = ai < links_.size() ? &links_[ai] : nullptr;
  DeviceLink* link = ends == nullptr ? nullptr : push ? ends->push : ends->pull;
  require(link != nullptr, "plan link node has no link bound for its array");
  require(link->stage != nullptr, "plan link node issued on a retired link");
  auto ring = [&](const PlanSegment& seg) {
    return ends->ring.base + static_cast<Bytes>(seg.slot) * ends->ring.slab;
  };
  auto stage = [&](const PlanSegment& seg) {
    return link->stage + static_cast<Bytes>(seg.index - link->lo) * link->unit;
  };
  if (push) {
    // A push onto another device rides this device's DMA engine, never the
    // host; the puller orders itself after it through `ready`.
    const bool cross = link->home != &gpu_;
    for (const PlanSegment& seg : n.segments) {
      if (cross)
        gpu_.memcpy_p2p_async(*link->home, stage(seg), ring(seg), seg.bytes(), s);
      else
        gpu_.memcpy_d2d_async(stage(seg), ring(seg), seg.bytes(), s);
      link->pushed += seg.bytes();
    }
    if (cross) link->ready = gpu_.record_event(s);
    return;
  }
  require(n.op != PlanOp::P2pRecv || link->ready != nullptr,
          "p2p-recv enqueued before its sender");
  if (link->ready) gpu_.wait_event(s, link->ready);
  for (const PlanSegment& seg : n.segments)
    gpu_.memcpy_d2d_async(ring(seg), stage(seg), seg.bytes(), s);
}

void PlanExecutor::issue_waits(const ExecutionPlan& plan, const PlanNode& n, gpu::Stream& s) {
  if (n.op == PlanOp::Barrier) {
    // Band barriers wait on every tail event unconditionally (no dedup, no
    // same-stream elision) — cross-stream joins are rare and explicit.
    for (int d : n.deps) {
      const int en = plan.nodes[static_cast<std::size_t>(d)].event_node;
      if (en >= 0 && events_[static_cast<std::size_t>(en)])
        gpu_.wait_event(s, events_[static_cast<std::size_t>(en)]);
    }
    return;
  }
  seen_.clear();
  for (int d : n.deps) {
    const int en = plan.nodes[static_cast<std::size_t>(d)].event_node;
    if (en < 0) continue;  // ordering-only dependency (stream order)
    const gpu::EventPtr& ev = events_[static_cast<std::size_t>(en)];
    if (!ev) continue;
    if (plan.nodes[static_cast<std::size_t>(en)].stream == n.stream) continue;
    if (std::find(seen_.begin(), seen_.end(), ev.get()) != seen_.end()) continue;
    seen_.push_back(ev.get());
    gpu_.wait_event(s, ev);
    if (stats_) ++stats_->stream_waits;
  }
}

void PlanExecutor::enqueue(const ExecutionPlan& plan, const PlanKernelMaker& make_kernel) {
  require(static_cast<int>(streams_.size()) >= plan.num_streams,
          "executor is bound to fewer streams than the plan uses");
  require(arrays_.size() >= plan.arrays.size(),
          "executor is bound to fewer arrays than the plan maps");
  events_.assign(plan.nodes.size(), nullptr);
  sim::Trace& trace = gpu_.trace();
  for (const PlanNode& n : plan.nodes) {
    gpu::Stream& s = *streams_[static_cast<std::size_t>(n.stream)];
    trace.set_plan_node(n.id);
    issue_waits(plan, n, s);
    switch (n.op) {
      case PlanOp::H2D: {
        const int transfers = arrays_[static_cast<std::size_t>(n.array)]->transfer(s, n, true);
        if (stats_) {
          stats_->h2d_copies += transfers;
          stats_->h2d_bytes += n.bytes;
        }
        break;
      }
      case PlanOp::D2H: {
        const int transfers = arrays_[static_cast<std::size_t>(n.array)]->transfer(s, n, false);
        if (stats_) {
          stats_->d2h_copies += transfers;
          stats_->d2h_bytes += n.bytes;
        }
        break;
      }
      case PlanOp::Kernel: {
        gpu::KernelDesc desc = make_kernel(n);
        for (const PlanAccess& acc : n.accesses)
          arrays_[static_cast<std::size_t>(acc.array)]->append_ranges(
              acc.write ? desc.effects.writes : desc.effects.reads, acc);
        if (desc.name == "kernel") desc.name = n.label;
        last_kernel_ = gpu_.launch(s, std::move(desc));
        if (stats_) {
          ++stats_->kernels;
          ++stats_->chunks;
        }
        break;
      }
      case PlanOp::P2pSend:
      case PlanOp::P2pRecv:
      case PlanOp::DeviceHandoff:
        issue_link(plan, n, s);
        if (stats_ && n.op == PlanOp::P2pSend) stats_->p2p_bytes += n.bytes;
        break;
      case PlanOp::SlotReuse:
      case PlanOp::Barrier:
        break;  // waits only
    }
    if (n.records_event) {
      events_[static_cast<std::size_t>(n.id)] = gpu_.record_event(s);
      if (stats_) ++stats_->events;
    }
  }
  trace.set_plan_node(-1);
}

void PlanExecutor::wait() {
  for (gpu::Stream* s : streams_) gpu_.synchronize(*s);
  events_.clear();
}

// --- Cost-model dry run ---

DryRunResult dry_run(const ExecutionPlan& plan, const gpu::DeviceProfile& profile,
                     const DryRunCost& cost, DryRunTrace mode) {
  DryRunResult out;
  const bool traced = mode == DryRunTrace::Spans;
  sim::Simulator sim;
  sim::Engine h2d(sim, "h2d", profile.h2d_engines);
  std::unique_ptr<sim::Engine> d2h_sep;
  if (!profile.unified_copy_engine)
    d2h_sep = std::make_unique<sim::Engine>(sim, "d2h", profile.d2h_engines);
  sim::Engine& d2h = d2h_sep ? *d2h_sep : h2d;
  sim::Engine compute(sim, "compute", profile.max_concurrent_kernels);
  sim::Engine command(sim, "command", 1 << 20);

  const int live = cost.live_streams > 0 ? cost.live_streams : plan.num_streams;
  const SimTime sched =
      live > 1 ? profile.sched_overhead_per_stream * static_cast<double>(live - 1) : 0.0;

  SimTime host = 0.0;
  std::vector<sim::TaskPtr> tail(static_cast<std::size_t>(plan.num_streams));
  std::vector<sim::TaskPtr> event_task(plan.nodes.size());
  std::vector<const sim::Task*> seen;

  auto lane = [](int s) { return "s" + std::to_string(s); };
  std::vector<StringId> lane_ids;
  if (traced) {
    lane_ids.resize(static_cast<std::size_t>(plan.num_streams));
    for (int s = 0; s < plan.num_streams; ++s)
      lane_ids[static_cast<std::size_t>(s)] = out.trace.intern(lane(s));
  }
  // `label` is a callable producing the span's label; only traced runs call
  // it (and record the span).
  auto submit = [&](int stream, sim::Engine& engine, SimTime dur, sim::SpanKind kind,
                    auto&& label, Bytes bytes, std::int64_t node) {
    host += profile.api_call_host_overhead;
    if (&engine != &command) dur += sched;
    sim::TaskPtr t = sim::Task::create(engine, dur);
    if (traced)
      t->set_span(out.trace, kind, lane_ids[static_cast<std::size_t>(stream)],
                  out.trace.intern(label()), bytes, node);
    sim::TaskPtr& tl = tail[static_cast<std::size_t>(stream)];
    if (tl) t->depends_on(tl);
    t->submit(host);
    tl = t;
    return t;
  };

  auto wait_on = [&](int stream, const sim::TaskPtr& ev) {
    host += profile.api_call_host_overhead;
    auto t = sim::Task::create(command, 0.0);
    sim::TaskPtr& tl = tail[static_cast<std::size_t>(stream)];
    if (tl) t->depends_on(tl);
    t->depends_on(ev);
    t->submit(host);
    tl = std::move(t);
  };

  for (const PlanNode& n : plan.nodes) {
    if (n.op == PlanOp::Barrier) {
      for (int d : n.deps) {
        const int en = plan.nodes[static_cast<std::size_t>(d)].event_node;
        if (en >= 0 && event_task[static_cast<std::size_t>(en)])
          wait_on(n.stream, event_task[static_cast<std::size_t>(en)]);
      }
    } else {
      seen.clear();
      for (int d : n.deps) {
        const int en = plan.nodes[static_cast<std::size_t>(d)].event_node;
        if (en < 0) continue;
        const sim::TaskPtr& ev = event_task[static_cast<std::size_t>(en)];
        if (!ev) continue;
        if (plan.nodes[static_cast<std::size_t>(en)].stream == n.stream) continue;
        if (std::find(seen.begin(), seen.end(), ev.get()) != seen.end()) continue;
        seen.push_back(ev.get());
        wait_on(n.stream, ev);
      }
    }
    switch (n.op) {
      case PlanOp::H2D:
      case PlanOp::D2H: {
        const bool in = n.op == PlanOp::H2D;
        const bool pinned = plan.arrays[static_cast<std::size_t>(n.array)].pinned;
        for (const PlanSegment& seg : n.segments) {
          const Bytes total = seg.bytes();
          const double bw = profile.transfer_bandwidth(total, seg.width, pinned);
          const SimTime dur = profile.copy_setup_latency +
                              profile.copy_segment_latency *
                                  static_cast<double>(seg.height - 1) +
                              static_cast<double>(total) / bw;
          const char* what =
              in ? (seg.height > 1 ? "h2d2D" : "h2d") : (seg.height > 1 ? "d2h2D" : "d2h");
          submit(
              n.stream, in ? h2d : d2h, dur, in ? sim::SpanKind::H2D : sim::SpanKind::D2H,
              [&] { return std::string(what) + "[" + std::to_string(total) + "B]"; },
              total, n.id);
        }
        break;
      }
      case PlanOp::Kernel: {
        const double iters = static_cast<double>(n.end - n.begin);
        SimTime dur = profile.kernel_launch_latency;
        Bytes kernel_bytes = 0;
        if (cost.flops_per_iter > 0.0 || cost.bytes_per_iter > 0.0) {
          const double fl = cost.flops_per_iter * iters;
          const double by = cost.bytes_per_iter * iters;
          dur += std::max(fl / profile.peak_flops, by / profile.mem_bandwidth);
          kernel_bytes = static_cast<Bytes>(by);
        } else {
          dur += cost.seconds_per_iter * iters;
        }
        submit(n.stream, compute, dur, sim::SpanKind::Kernel,
               [&]() -> const std::string& { return n.label; }, kernel_bytes, n.id);
        break;
      }
      case PlanOp::P2pSend:
      case PlanOp::P2pRecv: {
        // Mirrors Gpu::memcpy_p2p_async / memcpy_d2d_async: both ride the
        // copy engine; the send crosses the bus at PCIe speed, the landing
        // is a local device-to-device move at memory bandwidth.
        const bool send = n.op == PlanOp::P2pSend;
        for (const PlanSegment& seg : n.segments) {
          const Bytes total = seg.bytes();
          const double bw = send ? profile.pcie_bandwidth : profile.mem_bandwidth;
          const SimTime dur =
              profile.copy_setup_latency + static_cast<double>(total) / bw;
          submit(
              n.stream, h2d, dur, sim::SpanKind::D2D,
              [&] {
                return std::string(send ? "p2p" : "d2d") + "[" + std::to_string(total) + "B]";
              },
              total, n.id);
        }
        break;
      }
      case PlanOp::DeviceHandoff: {
        // Both sides are local device-to-device moves between the ring and
        // the staging buffer (memcpy_d2d_async at memory bandwidth) — the
        // whole point of stitching is never crossing the PCIe bus.
        for (const PlanSegment& seg : n.segments) {
          const Bytes total = seg.bytes();
          const SimTime dur = profile.copy_setup_latency +
                              static_cast<double>(total) / profile.mem_bandwidth;
          submit(
              n.stream, h2d, dur, sim::SpanKind::D2D,
              [&] { return "handoff[" + std::to_string(total) + "B]"; }, total, n.id);
        }
        break;
      }
      case PlanOp::SlotReuse:
      case PlanOp::Barrier:
        break;
    }
    if (n.records_event)
      event_task[static_cast<std::size_t>(n.id)] =
          submit(n.stream, command, 0.0, sim::SpanKind::Sync,
                 [&] { return "event(" + lane(n.stream) + ")"; }, 0, n.id);
  }

  // Drain stream by stream exactly like PlanExecutor::wait: one API charge
  // per stream, and the host clock only advances when the tail is not yet
  // done (Gpu::wait_for's early return).
  for (sim::TaskPtr& tl : tail) {
    host += profile.api_call_host_overhead;
    if (tl && !tl->done()) {
      sim::Task* raw = tl.get();
      sim.run_until([raw] { return raw->done(); });
      host = std::max(host, sim.now());
    }
  }
  out.makespan = host;
  return out;
}

SimTime estimate_pipeline_runtime(const gpu::Gpu& g, PipelineSpec spec,
                                  const DryRunCost& cost, Bytes limit) {
  spec.validate();
  const Bytes budget =
      limit == 0 ? g.device_mem_free() : std::min(limit, g.device_mem_free());
  return estimate_pipeline_runtime_at(g, std::move(spec), cost, budget);
}

SimTime estimate_pipeline_runtime_at(const gpu::Gpu& g, PipelineSpec spec,
                                     const DryRunCost& cost, Bytes budget) {
  const SolvedShape solved = solve_pipeline_shape(g, spec, budget);
  spec.chunk_size = solved.chunk_size;
  spec.num_streams = solved.num_streams;
  DryRunCost dc = cost;
  if (dc.live_streams == 0) dc.live_streams = solved.num_streams;
  // Keyed at the solved shape, not the requested one: admission retries with
  // shrinking budgets that solve to the same shape share one memo.
  return PlanCache::instance().estimate(g, spec, dc);
}

}  // namespace gpupipe::core
