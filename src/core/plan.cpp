#include "core/plan.hpp"

#include <algorithm>
#include <charconv>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>

#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/run_map.hpp"
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

/// One mapped array's ring cells while emit_steps emits its plan — the
/// plan-time mirror of the device ring, for PlanBuilder::pipeline and
/// PlanBuilder::tiles alike. Per cell (a 1-D ring slot, or a column of a
/// tile ring buffer): the host index and row range resident in it, the copy
/// that landed it, the nodes that read it since, and the drain group that
/// last emptied it. Rows ride along per column, not per (row, column) cell:
/// every copy of a tile band covers the band's one row range, so a column
/// and its rows describe the whole cell grid.
///
/// Copies and kernels move whole windows of consecutive split indices, so
/// the cells are kept as runs of consecutive cells sharing one state
/// (RunMap). Every operation takes a host index range [lo, hi), walks its
/// laps of the ring in index order and applies to each run once: its cost
/// follows the runs it touches, not the indices.
class RingCells {
 public:
  /// Empties every cell. With `elide` (opt level >= 1) resident indices
  /// skip their upload, and an upload forgets the cell's drain: the kernel
  /// that reads the new occupant already waits on the upload, which waited
  /// on the drain. Without it nothing is resident and a kernel writing a
  /// cell waits on its last drain even after an upload (the naive rules).
  void reset(std::int64_t cells, bool elide) {
    ring_ = cells;
    elide_ = elide;
    cells_.reset();
  }

  /// Sets `out` to the host indices of [lo, hi) to move, as maximal runs
  /// broken at ring wraps — with `skip_resident`, only those not resident
  /// over rows [rlo, rhi), which an upload may skip (never at opt level 0).
  void pieces(std::int64_t lo, std::int64_t hi, std::int64_t rlo, std::int64_t rhi,
              bool skip_resident, std::vector<IndexRun>& out) const {
    out.clear();
    each(lo, hi, [&](const Cell& c, std::int64_t c_lo, std::int64_t c_hi, std::int64_t base) {
      if (skip_resident && elide_ && c.base == base && c.row_lo <= rlo && rhi <= c.row_hi)
        return;
      if (!out.empty() && out.back().index + out.back().count == base + c_lo && c_lo != 0)
        out.back().count += c_hi - c_lo;
      else
        out.push_back({base + c_lo, c_hi - c_lo});
    });
  }

  /// Whether any cell of host indices [lo, hi) has a reader or a drain to
  /// wait for — i.e. whether the naive schedule guards this window.
  bool guarded(std::int64_t lo, std::int64_t hi) const {
    bool any = false;
    each(lo, hi, [&](const Cell& c, std::int64_t, std::int64_t, std::int64_t) {
      any = any || !c.readers.empty() || c.drain >= 0;
    });
    return any;
  }

  /// Appends what overwriting the cells of [lo, hi) must wait for (per
  /// cell in index order: its readers, then its drain) to `deps`; the new
  /// occupants start with no readers.
  void guard(std::int64_t lo, std::int64_t hi, std::vector<int>& deps) {
    update(lo, hi, [&](Cell& c, std::int64_t) {
      for (int id : c.readers) push_dep(deps, id);
      c.readers.clear();
      push_dep(deps, c.drain);
    });
  }

  /// Records that copy node `copy` lands [lo, hi) over rows [rlo, rhi).
  void land(std::int64_t lo, std::int64_t hi, std::int64_t rlo, std::int64_t rhi, int copy) {
    update(lo, hi, [&](Cell& c, std::int64_t base) {
      c.base = base;
      c.row_lo = rlo;
      c.row_hi = rhi;
      c.producer = copy;
      if (elide_) c.drain = -1;
    });
  }

  /// Appends the copies that landed [lo, hi) over rows [rlo, rhi), which
  /// must still be resident, to `deps` in index order.
  void producers(std::int64_t lo, std::int64_t hi, std::int64_t rlo, std::int64_t rhi,
                 std::vector<int>& deps) const {
    each(lo, hi, [&](const Cell& c, std::int64_t, std::int64_t, std::int64_t base) {
      ensure(c.base == base && c.row_lo <= rlo && rhi <= c.row_hi && c.producer >= 0,
             "plan input slice was never scheduled for copy");
      push_dep(deps, c.producer);
    });
  }

  /// Appends the last drains of the cells of [lo, hi) to `deps`.
  void drains(std::int64_t lo, std::int64_t hi, std::vector<int>& deps) const {
    each(lo, hi, [&](const Cell& c, std::int64_t, std::int64_t, std::int64_t) {
      push_dep(deps, c.drain);
    });
  }

  /// Node `id` reads the cells of [lo, hi): a later overwrite must wait
  /// for it.
  void read(std::int64_t lo, std::int64_t hi, int id) {
    update(lo, hi, [&](Cell& c, std::int64_t) {
      if (c.readers.empty() || c.readers.back() != id) c.readers.push_back(id);
    });
  }

  /// A kernel wrote the cells of [lo, hi): the device data no longer
  /// mirrors the host, so they are not resident any more.
  void write(std::int64_t lo, std::int64_t hi) {
    update(lo, hi, [](Cell& c, std::int64_t) { c.base = -1; });
  }

  /// Drain group `recorder` emptied the cells of [lo, hi); it implies
  /// every earlier drain of a cell, so only the latest is kept.
  void drained(std::int64_t lo, std::int64_t hi, int recorder) {
    update(lo, hi, [&](Cell& c, std::int64_t) { c.drain = recorder; });
  }

 private:
  struct Cell {
    std::int64_t base = -1;  // cell c holds host index base + c; -1 = none
    std::int64_t row_lo = 0;
    std::int64_t row_hi = 0;
    int producer = -1;
    int drain = -1;
    std::vector<int> readers;

    bool operator==(const Cell&) const = default;
  };

  /// Calls f(cell, c_lo, c_hi, base) for each run of cells over host
  /// indices [lo, hi), in index order and clipped to cells [c_lo, c_hi);
  /// cell c of the run stands for host index base + c. The range must fit
  /// in the ring.
  template <typename F>
  void each(std::int64_t lo, std::int64_t hi, F&& f) const {
    layout::for_ring_segments(lo, hi, ring_, [&](std::int64_t slot, std::int64_t idx,
                                                 std::int64_t count) {
      cells_.each(slot, slot + count, [&](const Cell& c, std::int64_t a, std::int64_t b) {
        f(c, a, b, idx - slot);
      });
    });
  }

  /// Calls f(cell, base) once for each run of cells over host indices
  /// [lo, hi), in index order. The range must fit in the ring.
  template <typename F>
  void update(std::int64_t lo, std::int64_t hi, F&& f) {
    layout::for_ring_segments(lo, hi, ring_, [&](std::int64_t slot, std::int64_t idx,
                                                 std::int64_t count) {
      cells_.update(slot, slot + count, [&](Cell& c) { f(c, idx - slot); });
    });
  }

  std::int64_t ring_ = 1;
  bool elide_ = false;
  RunMap<Cell> cells_;
};

/// How one mapped array's copies are shaped: bytes per split index (column)
/// per copied row, and the rows a 1-D piece ships (1 for slabs, the array's
/// rows for column blocks). Tile pieces ship one row per host row instead.
struct CopyShape {
  Bytes col_width = 0;
  Bytes flat_height = 1;
  bool tiled = false;
};

/// The node-emitting half of the builders: per-array ring cells and copy
/// shapes, guard and upload emission with halo reuse, and the accounting of
/// the naive schedule the OptReport measures savings against. emit_steps
/// owns the loop structure. Each window, copy piece, kernel access and
/// drain is one range call into its array's RingCells, so a node costs its
/// runs, not its indices.
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

  const std::vector<PlanArrayInfo>& arrays() const { return plan_.arrays; }
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
    rc.pieces(lo, hi, 0, 0, /*skip_resident=*/false, runs_);
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

    rc.pieces(lo, hi, rlo, rhi, /*skip_resident=*/true, runs_);
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
    for (const IndexRun& run : runs_) rc.land(run.index, run.index + run.count, rlo, rhi, id);
    return id;
  }

  /// Fills `n`'s segments and bytes with every index of [n.begin, n.end)
  /// (drains and halo pushes move whole ranges).
  void fill_all(PlanNode& n) {
    const std::size_t ai = static_cast<std::size_t>(n.array);
    const CopyShape& shape = shapes_[ai];
    const std::int64_t rlo = shape.tiled ? n.row_begin : 0;
    const std::int64_t rhi = shape.tiled ? n.row_end : 1;
    cells_[ai].pieces(n.begin, n.end, rlo, rhi, /*skip_resident=*/false, runs_);
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
      if (acc.write)
        rc.drains(acc.lo, acc.hi, k.deps);
      else
        rc.producers(acc.lo, acc.hi, acc.row_lo, acc.row_hi, k.deps);
    }
    k.records_event = true;
    const int id = add(std::move(k));
    node(id).event_node = id;
    for (const PlanAccess& acc : node(id).accesses) {
      if (acc.write)
        cells(acc.array).write(acc.lo, acc.hi);
      else
        cells(acc.array).read(acc.lo, acc.hi, id);
    }
    return id;
  }

  /// Makes the copy-outs `ids` of one kernel an event group; its recorder
  /// becomes the last drain of every slot they empty.
  void drains(const std::vector<int>& ids) {
    group(ids);
    for (int id : ids) {
      const PlanNode& d = node(id);
      cells(d.array).drained(d.begin, d.end, ids.back());
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
  /// Emits the slot-reuse guard over the cells of runs_ (none when nothing
  /// read or drained them since they were last written); returns its id.
  int guard(const PlanNode& proto, RingCells& rc) {
    std::vector<int> deps;
    for (const IndexRun& run : runs_) rc.guard(run.index, run.index + run.count, deps);
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
  /// blocks (row-outer, the order PlanArrayBinding copies in), once for
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

/// One step's block of one mapped array: split indices [lo, hi) over host
/// rows [row_lo, row_hi). 1-D blocks name no rows (0, 0): their copies
/// span every row of an index.
struct Block {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  std::int64_t row_lo = 0;
  std::int64_t row_hi = 0;
};

/// The one emission loop of both builders. A region is bands of steps — a
/// 1-D loop is one band of chunks, a tile loop ni bands of nj tiles — and
/// the step with counter n issues on stream n mod num_streams. Each step
/// emits, in order: its stream's barrier (bands after the first), the
/// uploads of every input block (split at a shard halo's recv_lo), the
/// first step's halo pushes, the kernel, and the drains of every output
/// block. `Region` supplies only the band and step counts, each step's
/// blocks and their check (inputs at their upload, outputs before the
/// kernel writes them), the shard halos, and the kernel's range and label
/// (ChunkSteps, TileSteps).
template <typename Region>
void emit_steps(PlanEmitter& e, const Region& region, int num_streams, std::int64_t counter) {
  const std::vector<PlanArrayInfo>& arrays = e.arrays();
  const std::size_t ns = static_cast<std::size_t>(num_streams);
  std::vector<Block> blocks(arrays.size());
  std::vector<int> group;
  std::vector<int> prev_band_tails;
  std::vector<bool> barrier_done;
  std::vector<bool> used;
  std::vector<int> band_tail;

  for (std::int64_t band = 0; band < region.bands(); ++band) {
    // Band start: nothing stays resident across bands (the new band
    // overwrites the buffer rows); the barrier below protects the rows the
    // new band will overwrite.
    if (band > 0) e.reset();
    barrier_done.assign(ns, prev_band_tails.empty());
    used.assign(ns, false);
    band_tail.assign(ns, -1);

    for (std::int64_t step = 0; step < region.steps(); ++step, ++counter) {
      const int stream = static_cast<int>(counter % num_streams);
      const std::size_t si = static_cast<std::size_t>(stream);
      const std::int64_t tile_i = Region::tiled ? band : -1;
      const std::int64_t tile_j = Region::tiled ? step : -1;
      used[si] = true;
      if (!barrier_done[si]) {
        PlanNode b;
        b.op = PlanOp::Barrier;
        b.stream = stream;
        b.tile_i = band;
        b.deps = prev_band_tails;
        b.label = "band" + std::to_string(band) + " barrier";
        e.add(std::move(b));
        barrier_done[si] = true;
      }
      region.blocks(band, step, blocks);

      // ---- copy-in: every input's block ----
      group.clear();
      for (std::size_t ai = 0; ai < arrays.size(); ++ai) {
        if (!is_input(arrays[ai].map)) continue;
        const Block& b = blocks[ai];
        region.check(ai, b);
        if (b.lo >= b.hi) continue;
        PlanNode proto;
        proto.op = PlanOp::H2D;
        proto.stream = stream;
        proto.array = static_cast<int>(ai);
        proto.chunk = counter;
        proto.row_begin = b.row_lo;
        proto.row_end = b.row_hi;
        proto.tile_i = tile_i;
        proto.tile_j = tile_j;
        const int window_guard = e.open_window(proto, b.lo, b.hi);
        // A shard's foreign tail [recv_lo, hi) lands via P2P from the
        // neighbour that owns it; everything below recv_lo comes from the
        // host as usual. Other regions have no halo and upload the whole
        // block from the host.
        const ShardHalo* hal = region.halo(ai);
        const std::int64_t recv_lo =
            hal && hal->recv_peer >= 0 ? std::clamp(hal->recv_lo, b.lo, b.hi) : b.hi;
        if (b.lo < recv_lo) {
          const int id = e.upload(proto, b.lo, recv_lo, window_guard);
          if (id >= 0) group.push_back(id);
        }
        if (recv_lo < b.hi) {
          proto.op = PlanOp::P2pRecv;
          proto.peer = hal->recv_peer;
          const int id = e.upload(proto, recv_lo, b.hi, window_guard);
          if (id >= 0) group.push_back(id);
        }
      }
      e.group(group);

      // ---- halo push: forward the first window's head to the neighbour ----
      // The overlap a neighbour's trailing windows need is exactly the head
      // of this shard's own first window, so it is already on the device
      // after the first chunk's upload — one P2P copy forwards it without
      // touching the host. Registered as a reader of its slots so any later
      // overwrite (ring wrap) orders after the push.
      if (band == 0 && step == 0) {
        for (std::size_t ai = 0; ai < arrays.size(); ++ai) {
          const ShardHalo* hal = region.halo(ai);
          if (!hal || hal->send_peer < 0) continue;
          const PlanArrayInfo& a = arrays[ai];
          ensure(is_input(a.map), "shard halo send on a non-input array");
          RingCells& rc = e.cells(static_cast<int>(ai));
          const Block& b = blocks[ai];
          if (!(b.lo < hal->send_hi && hal->send_hi <= b.hi))
            require(false, "array '" + a.name +
                               "': shard halo send range must sit inside the first chunk's "
                               "window");
          PlanNode p;
          p.op = PlanOp::P2pSend;
          p.stream = stream;
          p.array = static_cast<int>(ai);
          p.chunk = counter;
          p.begin = b.lo;
          p.end = hal->send_hi;
          p.peer = hal->send_peer;
          e.fill_all(p);
          rc.producers(p.begin, p.end, 0, 1, p.deps);
          p.records_event = true;
          p.label = range_label("p2p-send ", a.name, p.begin, p.end) + "->s" +
                    std::to_string(p.peer);
          const int pid = e.add(std::move(p));
          e.node(pid).event_node = pid;
          rc.read(b.lo, hal->send_hi, pid);
        }
      }

      // ---- kernel ----
      PlanNode k;
      k.op = PlanOp::Kernel;
      k.stream = stream;
      k.chunk = counter;
      k.tile_i = tile_i;
      k.tile_j = tile_j;
      region.kernel(k, band, step, counter);
      for (std::size_t ai = 0; ai < arrays.size(); ++ai) {
        const Block& b = blocks[ai];
        const int array = static_cast<int>(ai);
        if (is_input(arrays[ai].map))
          k.accesses.push_back({array, b.lo, b.hi, b.row_lo, b.row_hi, false});
        if (is_output(arrays[ai].map)) {
          region.check(ai, b);
          k.accesses.push_back({array, b.lo, b.hi, b.row_lo, b.row_hi, true});
        }
      }
      const int kid = e.kernel(std::move(k));

      // ---- copy-out: drain every output's block ----
      group.clear();
      for (std::size_t ai = 0; ai < arrays.size(); ++ai) {
        if (!is_output(arrays[ai].map)) continue;
        const Block& b = blocks[ai];
        PlanNode d;
        d.op = PlanOp::D2H;
        d.stream = stream;
        d.array = static_cast<int>(ai);
        d.chunk = counter;
        d.row_begin = b.row_lo;
        d.row_end = b.row_hi;
        d.tile_i = tile_i;
        d.tile_j = tile_j;
        group.push_back(e.drain(std::move(d), b.lo, b.hi, kid));
      }
      e.drains(group);
      band_tail[si] = group.empty() ? kid : group.back();
    }

    // Band end: the next band's barrier waits on each used stream's tail.
    prev_band_tails.clear();
    for (std::size_t s = 0; s < ns; ++s)
      if (used[s] && band_tail[s] >= 0) prev_band_tails.push_back(band_tail[s]);
  }
}

/// PlanBuilder::pipeline's region: one band of the chunks of [from, to); a
/// block is the array's split window over the chunk.
class ChunkSteps {
 public:
  static constexpr bool tiled = false;

  ChunkSteps(const PipelineSpec& spec, std::int64_t chunk, std::int64_t from, std::int64_t to)
      : spec_(spec),
        chunk_(chunk),
        from_(from),
        to_(to),
        halo_of_(spec.arrays.size(), nullptr) {
    for (const ShardHalo& h : spec.halos) halo_of_[static_cast<std::size_t>(h.array)] = &h;
  }

  std::int64_t bands() const { return 1; }
  std::int64_t steps() const { return (to_ - from_) / chunk_ + ((to_ - from_) % chunk_ != 0); }

  void blocks(std::int64_t /*band*/, std::int64_t step, std::vector<Block>& out) const {
    const auto [lo, hi] = range(step);
    for (std::size_t ai = 0; ai < out.size(); ++ai) {
      const auto [w_lo, w_hi] = layout::window_of(spec_.arrays[ai], lo, hi);
      out[ai] = {w_lo, w_hi, 0, 0};
    }
  }
  void check(std::size_t /*ai*/, const Block& /*b*/) const {}
  /// The shard halo wiring of array `ai` (none for solo regions).
  const ShardHalo* halo(std::size_t ai) const { return halo_of_[ai]; }

  void kernel(PlanNode& k, std::int64_t /*band*/, std::int64_t step,
              std::int64_t counter) const {
    std::tie(k.begin, k.end) = range(step);
    k.label = "chunk";
    append_int(k.label, counter);
  }

 private:
  std::pair<std::int64_t, std::int64_t> range(std::int64_t step) const {
    const std::int64_t lo = from_ + step * chunk_;
    return {lo, std::min(lo + chunk_, to_)};
  }

  const PipelineSpec& spec_;
  std::int64_t chunk_;
  std::int64_t from_;
  std::int64_t to_;
  std::vector<const ShardHalo*> halo_of_;
};

/// PlanBuilder::tiles' region: ni bands of nj tiles; a block is the
/// array's tile block, which must lie inside the host matrix.
class TileSteps {
 public:
  static constexpr bool tiled = true;

  explicit TileSteps(const TileSpec& spec) : spec_(spec) {}

  std::int64_t bands() const { return spec_.ni; }
  std::int64_t steps() const { return spec_.nj; }

  void blocks(std::int64_t i, std::int64_t j, std::vector<Block>& out) const {
    for (std::size_t ai = 0; ai < out.size(); ++ai) {
      const TileArraySpec& a = spec_.arrays[ai];
      const std::int64_t rs = a.row_split.start(i);
      const std::int64_t cs = a.col_split.start(j);
      out[ai] = {cs, cs + a.col_split.window, rs, rs + a.row_split.window};
    }
  }
  void check(std::size_t ai, const Block& b) const {
    const TileArraySpec& a = spec_.arrays[ai];
    if (!(0 <= b.row_lo && b.row_lo < b.row_hi && b.row_hi <= a.rows && 0 <= b.lo &&
          b.lo < b.hi && b.hi <= a.cols))
      require(false, "tile array '" + a.name + "': block outside the host matrix");
  }
  const ShardHalo* halo(std::size_t /*ai*/) const { return nullptr; }

  void kernel(PlanNode& k, std::int64_t i, std::int64_t j, std::int64_t /*counter*/) const {
    k.begin = j;
    k.end = j + 1;
    k.label = "tile(" + std::to_string(i) + "," + std::to_string(j) + ")";
  }

 private:
  const TileSpec& spec_;
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
  emit_steps(e, ChunkSteps(spec, chunk_size, from, to), num_streams, state.first_chunk);
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
  emit_steps(e, TileSteps(spec), spec.num_streams, 0);
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
  // slice of it, and to its node's deps and label. Each buffer row of an
  // array is one resource whose slots are the row's ring slots (rows never
  // share a slot); an array's rows are numbered from first_row, so one
  // access covers a piece's consecutive buffer rows.
  std::vector<int> first_row(arrays.size() + 1, 0);
  for (std::size_t a = 0; a < arrays.size(); ++a)
    first_row[a + 1] = first_row[a] + static_cast<int>(arrays[a].ring_rows);
  auto access = [&](int array, std::int64_t row, std::int64_t rows, std::int64_t lo,
                    std::int64_t hi, bool write) {
    const auto a = static_cast<std::size_t>(array);
    require(0 <= row && 0 < rows && row + rows <= arrays[a].ring_rows,
            "plan access row lies outside the ring");
    return gpu::StaticOp::Access{first_row[a] + static_cast<int>(row), lo, hi, write,
                                 static_cast<int>(rows)};
  };
  std::vector<gpu::StaticOp::Access> accesses;
  std::vector<std::size_t> first(nodes.size() + 1, 0);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const PlanNode& n = nodes[i];
    first[i] = accesses.size();
    // Transfers touch exactly their wrap segments; kernel accesses are
    // wrap-decomposed the same way.
    auto add_segments = [&](bool write) {
      for (const PlanSegment& seg : n.segments)
        accesses.push_back(
            access(n.array, seg.row_slot, seg.rows, seg.slot, seg.slot + seg.count, write));
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
                  accesses.push_back(
                      access(acc.array, slot_r, nr, slot, slot + count, acc.write));
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

// --- PlanArrayBinding ---

int PlanArrayBinding::transfer(gpu::Stream& s, const PlanNode& n, bool to_device) {
  // Segment-driven: optimized nodes may cover less than [begin, end) (the
  // resident halo was elided), so the segments are the authoritative
  // description of what moves.
  Bytes moved = 0;
  for (const PlanSegment& seg : n.segments) {
    const auto height = static_cast<std::int64_t>(seg.height);
    require(0 <= seg.slot && seg.count >= 1 && seg.slot + seg.count <= ring_.cols &&
                0 <= seg.row_slot && seg.row_slot + height <= ring_.rows,
            "transfer run does not fit the ring");
    require(0 <= seg.index && seg.index + seg.count <= ring_.host_cols && 0 <= seg.row &&
                seg.row + height <= ring_.host_rows,
            "transfer run exceeds array extent");
    std::byte* dev = ring_.base + static_cast<Bytes>(seg.row_slot) * ring_.pitch +
                     static_cast<Bytes>(seg.slot) * ring_.unit;
    std::byte* host = ring_.host + static_cast<Bytes>(seg.row) * ring_.host_pitch +
                      static_cast<Bytes>(seg.index) * ring_.unit;
    if (ring_.slab && to_device)
      gpu_->memcpy_h2d_async(dev, host, seg.bytes(), s);
    else if (ring_.slab)
      gpu_->memcpy_d2h_async(host, dev, seg.bytes(), s);
    else if (to_device)
      gpu_->memcpy2d_h2d_async(dev, ring_.pitch, host, ring_.host_pitch, seg.width, seg.height,
                               s);
    else
      gpu_->memcpy2d_d2h_async(host, ring_.host_pitch, dev, ring_.pitch, seg.width, seg.height,
                               s);
    moved += seg.bytes();
  }
  const auto copies = static_cast<std::int64_t>(n.segments.size());
  if (to_device) {
    h2d_copies_ += copies;
    h2d_bytes_ += moved;
  } else {
    d2h_copies_ += copies;
    d2h_bytes_ += moved;
  }
  return static_cast<int>(copies);
}

void PlanArrayBinding::append_effects(std::vector<gpu::MemRange>& out,
                                      const PlanAccess& a) const {
  require(0 <= a.lo && a.lo < a.hi, "split index range must be non-empty and non-negative");
  require(a.hi <= ring_.host_cols, "split index range exceeds array extent");
  const bool all_rows = a.row_hi <= a.row_lo;
  const std::int64_t row_lo = all_rows ? 0 : a.row_lo;
  const std::int64_t row_hi = all_rows ? ring_.rows : a.row_hi;
  for (std::int64_t r = row_lo; r < row_hi;) {
    const std::int64_t slot_r = r % ring_.rows;
    const std::int64_t nr = std::min(row_hi - r, ring_.rows - slot_r);
    layout::for_ring_segments(a.lo, a.hi, ring_.cols,
                              [&](std::int64_t slot, std::int64_t, std::int64_t count) {
                                out.push_back({ring_.base +
                                                   static_cast<Bytes>(slot_r) * ring_.pitch +
                                                   static_cast<Bytes>(slot) * ring_.unit,
                                               static_cast<Bytes>(count) * ring_.unit,
                                               ring_.pitch, static_cast<Bytes>(nr)});
                              });
    r += nr;
  }
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
          arrays_[static_cast<std::size_t>(acc.array)]->append_effects(
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

  const SimTime sched = profile.stream_arbitration(
      cost.live_streams > 0 ? cost.live_streams : plan.num_streams);

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
          const SimTime dur = profile.copy_time(seg.width, seg.height, pinned);
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
        SimTime dur = 0.0;
        Bytes kernel_bytes = 0;
        if (cost.flops_per_iter > 0.0 || cost.bytes_per_iter > 0.0) {
          const double by = cost.bytes_per_iter * iters;
          dur = profile.kernel_time(cost.flops_per_iter * iters, by);
          kernel_bytes = static_cast<Bytes>(by);
        } else {
          dur = profile.kernel_launch_latency + cost.seconds_per_iter * iters;
        }
        submit(n.stream, compute, dur, sim::SpanKind::Kernel,
               [&]() -> const std::string& { return n.label; }, kernel_bytes, n.id);
        break;
      }
      case PlanOp::P2pSend:
      case PlanOp::P2pRecv: {
        // Mirrors Gpu::memcpy_p2p_async / memcpy_d2d_async: both ride the
        // copy engine; the send crosses the bus at PCIe speed (a peer of
        // this plan's own profile), the landing is a local device-to-device
        // move at memory bandwidth.
        const bool send = n.op == PlanOp::P2pSend;
        for (const PlanSegment& seg : n.segments) {
          const Bytes total = seg.bytes();
          const SimTime dur = send ? profile.p2p_time(total, profile) : profile.d2d_time(total);
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
          const SimTime dur = profile.d2d_time(total);
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
