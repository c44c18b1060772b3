#include "core/plan.hpp"

#include <algorithm>
#include <memory>
#include <ostream>
#include <string>
#include <unordered_map>
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

std::string range_str(std::int64_t lo, std::int64_t hi) {
  return "[" + std::to_string(lo) + "," + std::to_string(hi) + ")";
}

void push_dep(std::vector<int>& deps, int id) {
  if (id >= 0 && std::find(deps.begin(), deps.end(), id) == deps.end()) deps.push_back(id);
}

/// Ring-wrap decomposition of a 1-D index range into transfer pieces, with
/// the byte shape RingBuffer::copy_in/copy_out will ship (slab: one row of
/// count*unit bytes; block2d: dims[0] rows of count*elem bytes each).
void fill_segments_1d(PlanNode& n, const ArraySpec& a, std::int64_t ring_len) {
  layout::for_ring_segments(
      n.begin, n.end, ring_len, [&](std::int64_t slot, std::int64_t idx, std::int64_t count) {
        PlanSegment seg;
        seg.slot = slot;
        seg.index = idx;
        seg.count = count;
        if (a.split.dim == 0) {
          seg.width = static_cast<Bytes>(count) * layout::unit_bytes(a);
          seg.height = 1;
        } else {
          seg.width = static_cast<Bytes>(count) * a.elem_size;
          seg.height = static_cast<Bytes>(a.dims[0]);
        }
        n.segments.push_back(seg);
      });
  n.bytes = static_cast<Bytes>(n.end - n.begin) * layout::unit_bytes(a);
}

/// 2-D wrap decomposition of a tile block — row-outer, column-inner, the
/// same piece order TilePipeline's copy_block issues.
void fill_segments_tile(PlanNode& n, const TileArraySpec& a, std::int64_t ring_rows,
                        std::int64_t ring_cols) {
  require(0 <= n.row_begin && n.row_begin < n.row_end && n.row_end <= a.rows && 0 <= n.begin &&
              n.begin < n.end && n.end <= a.cols,
          "tile array '" + a.name + "': block outside the host matrix");
  n.bytes = 0;
  for (std::int64_t r = n.row_begin; r < n.row_end;) {
    const std::int64_t slot_r = r % ring_rows;
    const std::int64_t nr = std::min(n.row_end - r, ring_rows - slot_r);
    for (std::int64_t c = n.begin; c < n.end;) {
      const std::int64_t slot_c = c % ring_cols;
      const std::int64_t nc = std::min(n.end - c, ring_cols - slot_c);
      PlanSegment seg;
      seg.slot = slot_c;
      seg.index = c;
      seg.count = nc;
      seg.row_slot = slot_r;
      seg.row = r;
      seg.rows = nr;
      seg.width = static_cast<Bytes>(nc) * a.elem_size;
      seg.height = static_cast<Bytes>(nr);
      n.bytes += seg.bytes();
      n.segments.push_back(seg);
      c += nc;
    }
    r += nr;
  }
}

ExecutionPlan predicted_pipeline(const PipelineSpec& spec, const gpu::Gpu* g) {
  spec.validate();
  PipelineBuildState state;
  for (const auto& a : spec.arrays) {
    state.ring_lens.push_back(
        std::min(layout::ring_len_for_spec(a, spec.loop_begin, spec.loop_end, spec.chunk_size,
                                           spec.num_streams),
                 a.dims[static_cast<std::size_t>(a.split.dim)]));
    state.pinned.push_back(g ? g->is_pinned(a.host) : true);
  }
  ExecutionPlan plan = PlanBuilder::pipeline(spec, spec.chunk_size, spec.num_streams,
                                             spec.loop_begin, spec.loop_end, state);
  optimize_plan(plan, spec.opt_level, g ? &g->profile() : nullptr);
  return plan;
}

}  // namespace

// --- PlanBuilder: 1-D pipeline ---

ExecutionPlan PlanBuilder::pipeline(const PipelineSpec& spec, std::int64_t chunk_size,
                                    int num_streams, std::int64_t from, std::int64_t to,
                                    const PipelineBuildState& state) {
  require(chunk_size >= 1 && num_streams >= 1, "plan needs chunk_size and num_streams >= 1");
  require(from <= to, "plan iteration range is reversed");
  require(state.ring_lens.size() == spec.arrays.size(),
          "plan build state must describe every mapped array");

  ExecutionPlan plan;
  plan.num_streams = num_streams;
  plan.chunk_size = chunk_size;
  plan.origin = "pipeline";
  plan.arrays.reserve(spec.arrays.size());
  for (std::size_t ai = 0; ai < spec.arrays.size(); ++ai) {
    const ArraySpec& a = spec.arrays[ai];
    PlanArrayInfo info;
    info.name = a.name;
    info.map = a.map;
    info.ring_len = state.ring_lens[ai];
    info.unit_bytes = layout::unit_bytes(a);
    info.pinned = state.pinned.empty() ? true : state.pinned[ai];
    // Handoff wiring rides along so the stitch pass (core/plan_opt.hpp) can
    // rewrite this array's host transfers without the spec in hand.
    for (const ArrayHandoff& h : spec.handoffs)
      if (h.array == static_cast<int>(ai)) {
        info.handoff_link = h.link;
        info.handoff_out = h.produce;
      }
    plan.arrays.push_back(std::move(info));
  }

  // Per-array dependency bookkeeping, the plan-time mirror of Pipeline's
  // event tables: who wrote each host index (copy_writer), which kernels
  // read each ring slot's current occupant (slot_readers — all of them, so
  // a reuse edge orders the overwrite after *every* in-flight reader), and
  // which drain group last emptied each slot.
  struct AState {
    std::unordered_map<std::int64_t, int> copy_writer;
    std::vector<std::vector<int>> slot_readers;
    std::vector<int> slot_drained;
  };
  std::vector<AState> st(spec.arrays.size());
  for (std::size_t ai = 0; ai < spec.arrays.size(); ++ai) {
    st[ai].slot_readers.assign(static_cast<std::size_t>(plan.arrays[ai].ring_len), {});
    st[ai].slot_drained.assign(static_cast<std::size_t>(plan.arrays[ai].ring_len), -1);
  }

  // Shard halo wiring (empty for solo regions): which arrays receive part of
  // their window device-to-device, and which push their first-window head to
  // a neighbour shard.
  std::vector<const ShardHalo*> halo_of(spec.arrays.size(), nullptr);
  for (const ShardHalo& h : spec.halos)
    halo_of[static_cast<std::size_t>(h.array)] = &h;

  auto add_node = [&plan](PlanNode n) {
    n.id = static_cast<int>(plan.nodes.size());
    plan.nodes.push_back(std::move(n));
    return plan.nodes.back().id;
  };

  std::int64_t counter = state.first_chunk;
  for (std::int64_t lo = from; lo < to; lo += chunk_size, ++counter) {
    const std::int64_t hi = std::min(lo + chunk_size, to);
    const int stream = static_cast<int>(counter % num_streams);

    // ---- copy-in: newly required input slices ----
    std::vector<int> chunk_h2d;
    for (std::size_t ai = 0; ai < spec.arrays.size(); ++ai) {
      const ArraySpec& a = spec.arrays[ai];
      if (!is_input(a.map)) continue;
      AState& as = st[ai];
      const std::int64_t ring = plan.arrays[ai].ring_len;
      const auto [w_lo, w_hi] = layout::window_of(a, lo, hi);
      // Naive schedule: every chunk uploads its full window. The halo-reuse
      // pass (core/plan_opt.hpp) elides the bytes still resident in the ring
      // from earlier chunks.
      const std::int64_t n_lo = w_lo;
      if (n_lo < w_hi) {
        // Slot-reuse guard: the incoming data overwrites ring slots whose
        // previous occupants may still be read by in-flight kernels or
        // drained by in-flight copy-outs.
        std::vector<int> reuse;
        for (std::int64_t idx = n_lo; idx < w_hi; ++idx) {
          auto& readers = as.slot_readers[static_cast<std::size_t>(idx % ring)];
          for (int r : readers) push_dep(reuse, r);
          readers.clear();  // the slot's new occupant starts a fresh reader set
          push_dep(reuse, as.slot_drained[static_cast<std::size_t>(idx % ring)]);
        }
        int reuse_id = -1;
        if (!reuse.empty()) {
          PlanNode sr;
          sr.op = PlanOp::SlotReuse;
          sr.stream = stream;
          sr.array = static_cast<int>(ai);
          sr.chunk = counter;
          sr.begin = n_lo;
          sr.end = w_hi;
          sr.deps = std::move(reuse);
          sr.label = "reuse " + a.name + range_str(n_lo, w_hi);
          reuse_id = add_node(std::move(sr));
        }
        // A shard's foreign tail [recv_lo, w_hi) lands via P2P from the
        // neighbour that owns it; everything below recv_lo comes from the
        // host as usual. Solo regions have no halo and take the first branch
        // for the whole window.
        const ShardHalo* hal = halo_of[ai];
        const std::int64_t recv_lo =
            hal && hal->recv_peer >= 0 ? std::clamp(hal->recv_lo, n_lo, w_hi) : w_hi;
        auto emit_copy = [&](PlanOp op, std::int64_t c_lo, std::int64_t c_hi) {
          PlanNode h;
          h.op = op;
          h.stream = stream;
          h.array = static_cast<int>(ai);
          h.chunk = counter;
          h.begin = c_lo;
          h.end = c_hi;
          if (op == PlanOp::P2pRecv) h.peer = hal->recv_peer;
          fill_segments_1d(h, a, ring);
          if (reuse_id >= 0) h.deps.push_back(reuse_id);
          h.label = (op == PlanOp::H2D ? "h2d " : "p2p-recv ") + a.name +
                    range_str(c_lo, c_hi);
          const int hid = add_node(std::move(h));
          for (std::int64_t idx = c_lo; idx < c_hi; ++idx) as.copy_writer[idx] = hid;
          chunk_h2d.push_back(hid);
        };
        if (n_lo < recv_lo) emit_copy(PlanOp::H2D, n_lo, recv_lo);
        if (recv_lo < w_hi) emit_copy(PlanOp::P2pRecv, recv_lo, w_hi);
      }
    }
    if (!chunk_h2d.empty()) {
      plan.nodes[static_cast<std::size_t>(chunk_h2d.back())].records_event = true;
      for (int id : chunk_h2d)
        plan.nodes[static_cast<std::size_t>(id)].event_node = chunk_h2d.back();
    }

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
        AState& as = st[ai];
        const std::int64_t ring = plan.arrays[ai].ring_len;
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
        fill_segments_1d(p, a, ring);
        for (std::int64_t idx = p.begin; idx < p.end; ++idx) {
          auto it = as.copy_writer.find(idx);
          ensure(it != as.copy_writer.end(), "halo send slice was never scheduled for copy");
          push_dep(p.deps, it->second);
        }
        p.records_event = true;
        p.label = "p2p-send " + a.name + range_str(p.begin, p.end) + "->s" +
                  std::to_string(p.peer);
        const std::int64_t s_lo = p.begin;
        const std::int64_t s_hi = p.end;
        const int pid = add_node(std::move(p));
        plan.nodes[static_cast<std::size_t>(pid)].event_node = pid;
        for (std::int64_t idx = s_lo; idx < s_hi; ++idx) {
          auto& readers = as.slot_readers[static_cast<std::size_t>(idx % ring)];
          if (readers.empty() || readers.back() != pid) readers.push_back(pid);
        }
      }
    }

    // ---- kernel ----
    PlanNode k;
    k.op = PlanOp::Kernel;
    k.stream = stream;
    k.chunk = counter;
    k.begin = lo;
    k.end = hi;
    k.records_event = true;
    k.label = "chunk" + std::to_string(counter);
    for (std::size_t ai = 0; ai < spec.arrays.size(); ++ai) {
      const ArraySpec& a = spec.arrays[ai];
      AState& as = st[ai];
      const std::int64_t ring = plan.arrays[ai].ring_len;
      const auto [w_lo, w_hi] = layout::window_of(a, lo, hi);
      if (is_input(a.map)) {
        for (std::int64_t idx = w_lo; idx < w_hi; ++idx) {
          auto it = as.copy_writer.find(idx);
          ensure(it != as.copy_writer.end(), "input slice was never scheduled for copy");
          push_dep(k.deps, it->second);
        }
        k.accesses.push_back({static_cast<int>(ai), w_lo, w_hi, 0, 0, false});
      }
      if (is_output(a.map)) {
        // Output-slot rewrite guard: the slots this kernel writes must have
        // been drained to the host by the previous occupant's copy-out.
        for (std::int64_t idx = w_lo; idx < w_hi; ++idx)
          push_dep(k.deps, as.slot_drained[static_cast<std::size_t>(idx % ring)]);
        k.accesses.push_back({static_cast<int>(ai), w_lo, w_hi, 0, 0, true});
      }
    }
    const int kid = add_node(std::move(k));
    plan.nodes[static_cast<std::size_t>(kid)].event_node = kid;
    for (std::size_t ai = 0; ai < spec.arrays.size(); ++ai) {
      const ArraySpec& a = spec.arrays[ai];
      if (!is_input(a.map)) continue;
      AState& as = st[ai];
      const std::int64_t ring = plan.arrays[ai].ring_len;
      const auto [w_lo, w_hi] = layout::window_of(a, lo, hi);
      for (std::int64_t idx = w_lo; idx < w_hi; ++idx) {
        auto& readers = as.slot_readers[static_cast<std::size_t>(idx % ring)];
        if (readers.empty() || readers.back() != kid) readers.push_back(kid);
      }
    }

    // ---- copy-out: drain produced output slices ----
    std::vector<int> chunk_d2h;
    for (std::size_t ai = 0; ai < spec.arrays.size(); ++ai) {
      const ArraySpec& a = spec.arrays[ai];
      if (!is_output(a.map)) continue;
      const auto [o_lo, o_hi] = layout::window_of(a, lo, hi);
      PlanNode d;
      d.op = PlanOp::D2H;
      d.stream = stream;
      d.array = static_cast<int>(ai);
      d.chunk = counter;
      d.begin = o_lo;
      d.end = o_hi;
      fill_segments_1d(d, a, plan.arrays[ai].ring_len);
      d.deps.push_back(kid);
      d.label = "d2h " + a.name + range_str(o_lo, o_hi);
      chunk_d2h.push_back(add_node(std::move(d)));
    }
    if (!chunk_d2h.empty()) {
      const int last = chunk_d2h.back();
      plan.nodes[static_cast<std::size_t>(last)].records_event = true;
      for (int id : chunk_d2h) plan.nodes[static_cast<std::size_t>(id)].event_node = last;
      for (std::size_t ai = 0; ai < spec.arrays.size(); ++ai) {
        const ArraySpec& a = spec.arrays[ai];
        if (!is_output(a.map)) continue;
        AState& as = st[ai];
        const std::int64_t ring = plan.arrays[ai].ring_len;
        const auto [o_lo, o_hi] = layout::window_of(a, lo, hi);
        for (std::int64_t idx = o_lo; idx < o_hi; ++idx)
          as.slot_drained[static_cast<std::size_t>(idx % ring)] = last;
      }
    }
  }
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

ExecutionPlan PlanBuilder::tiles(const TileSpec& spec, const TileBuildState& state) {
  spec.validate();
  require(state.ring_rows.size() == spec.arrays.size() &&
              state.ring_cols.size() == spec.arrays.size(),
          "tile build state must describe every mapped array");

  ExecutionPlan plan;
  plan.num_streams = spec.num_streams;
  plan.chunk_size = 1;
  plan.origin = "tiles";
  plan.arrays.reserve(spec.arrays.size());
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
  }

  struct AState {
    std::unordered_map<std::int64_t, int> col_writer;
    std::vector<std::vector<int>> col_readers;
    std::vector<int> col_drained;
  };
  std::vector<AState> st(spec.arrays.size());

  auto add_node = [&plan](PlanNode n) {
    n.id = static_cast<int>(plan.nodes.size());
    plan.nodes.push_back(std::move(n));
    return plan.nodes.back().id;
  };

  const std::size_t ns = static_cast<std::size_t>(spec.num_streams);
  std::vector<int> prev_band_tails;
  std::int64_t tile_counter = 0;

  for (std::int64_t i = 0; i < spec.ni; ++i) {
    // Band start: column bookkeeping resets; the barrier below protects the
    // buffer rows the new band will overwrite.
    for (std::size_t ai = 0; ai < spec.arrays.size(); ++ai) {
      st[ai] = AState{};
      st[ai].col_readers.assign(static_cast<std::size_t>(plan.arrays[ai].ring_len), {});
      st[ai].col_drained.assign(static_cast<std::size_t>(plan.arrays[ai].ring_len), -1);
    }
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
        add_node(std::move(b));
        barrier_done[si] = true;
      }

      // ---- copy-in: new columns of every input's block ----
      std::vector<int> tile_h2d;
      for (std::size_t ai = 0; ai < spec.arrays.size(); ++ai) {
        const TileArraySpec& a = spec.arrays[ai];
        if (!is_input(a.map)) continue;
        AState& as = st[ai];
        const std::int64_t ring = plan.arrays[ai].ring_len;
        const std::int64_t rs = a.row_split.start(i);
        const std::int64_t rh = rs + a.row_split.window;
        const std::int64_t cs = a.col_split.start(j);
        const std::int64_t ch = cs + a.col_split.window;
        // Naive schedule: every tile uploads its full column window; the
        // halo-reuse pass elides columns still resident within the band.
        const std::int64_t n_lo = cs;
        if (n_lo < ch) {
          std::vector<int> reuse;
          for (std::int64_t c = n_lo; c < ch; ++c) {
            auto& readers = as.col_readers[static_cast<std::size_t>(c % ring)];
            for (int r : readers) push_dep(reuse, r);
            readers.clear();
            push_dep(reuse, as.col_drained[static_cast<std::size_t>(c % ring)]);
          }
          int reuse_id = -1;
          if (!reuse.empty()) {
            PlanNode sr;
            sr.op = PlanOp::SlotReuse;
            sr.stream = stream;
            sr.array = static_cast<int>(ai);
            sr.chunk = tile_counter;
            sr.begin = n_lo;
            sr.end = ch;
            sr.row_begin = rs;
            sr.row_end = rh;
            sr.deps = std::move(reuse);
            sr.label = "reuse " + a.name + range_str(n_lo, ch);
            reuse_id = add_node(std::move(sr));
          }
          PlanNode h;
          h.op = PlanOp::H2D;
          h.stream = stream;
          h.array = static_cast<int>(ai);
          h.chunk = tile_counter;
          h.begin = n_lo;
          h.end = ch;
          h.row_begin = rs;
          h.row_end = rh;
          h.tile_i = i;
          h.tile_j = j;
          fill_segments_tile(h, a, plan.arrays[ai].ring_rows, ring);
          if (reuse_id >= 0) h.deps.push_back(reuse_id);
          h.label = "h2d " + a.name + range_str(rs, rh) + "x" + range_str(n_lo, ch);
          const int hid = add_node(std::move(h));
          for (std::int64_t c = n_lo; c < ch; ++c) as.col_writer[c] = hid;
          tile_h2d.push_back(hid);
        }
      }
      if (!tile_h2d.empty()) {
        plan.nodes[static_cast<std::size_t>(tile_h2d.back())].records_event = true;
        for (int id : tile_h2d)
          plan.nodes[static_cast<std::size_t>(id)].event_node = tile_h2d.back();
      }

      // ---- kernel ----
      PlanNode k;
      k.op = PlanOp::Kernel;
      k.stream = stream;
      k.chunk = tile_counter;
      k.begin = j;
      k.end = j + 1;
      k.tile_i = i;
      k.tile_j = j;
      k.records_event = true;
      k.label = "tile(" + std::to_string(i) + "," + std::to_string(j) + ")";
      for (std::size_t ai = 0; ai < spec.arrays.size(); ++ai) {
        const TileArraySpec& a = spec.arrays[ai];
        AState& as = st[ai];
        const std::int64_t ring = plan.arrays[ai].ring_len;
        const std::int64_t rs = a.row_split.start(i);
        const std::int64_t rh = rs + a.row_split.window;
        const std::int64_t cs = a.col_split.start(j);
        const std::int64_t ch = cs + a.col_split.window;
        if (is_input(a.map)) {
          for (std::int64_t c = cs; c < ch; ++c) {
            auto it = as.col_writer.find(c);
            ensure(it != as.col_writer.end(), "tile input column was never copied");
            push_dep(k.deps, it->second);
          }
          k.accesses.push_back({static_cast<int>(ai), cs, ch, rs, rh, false});
        }
        if (is_output(a.map)) {
          for (std::int64_t c = cs; c < ch; ++c)
            push_dep(k.deps, as.col_drained[static_cast<std::size_t>(c % ring)]);
          k.accesses.push_back({static_cast<int>(ai), cs, ch, rs, rh, true});
        }
      }
      const int kid = add_node(std::move(k));
      plan.nodes[static_cast<std::size_t>(kid)].event_node = kid;
      for (std::size_t ai = 0; ai < spec.arrays.size(); ++ai) {
        const TileArraySpec& a = spec.arrays[ai];
        if (!is_input(a.map)) continue;
        AState& as = st[ai];
        const std::int64_t ring = plan.arrays[ai].ring_len;
        const std::int64_t cs = a.col_split.start(j);
        const std::int64_t ch = cs + a.col_split.window;
        for (std::int64_t c = cs; c < ch; ++c) {
          auto& readers = as.col_readers[static_cast<std::size_t>(c % ring)];
          if (readers.empty() || readers.back() != kid) readers.push_back(kid);
        }
      }

      // ---- copy-out ----
      std::vector<int> tile_d2h;
      for (std::size_t ai = 0; ai < spec.arrays.size(); ++ai) {
        const TileArraySpec& a = spec.arrays[ai];
        if (!is_output(a.map)) continue;
        const std::int64_t rs = a.row_split.start(i);
        const std::int64_t rh = rs + a.row_split.window;
        const std::int64_t cs = a.col_split.start(j);
        const std::int64_t ch = cs + a.col_split.window;
        PlanNode d;
        d.op = PlanOp::D2H;
        d.stream = stream;
        d.array = static_cast<int>(ai);
        d.chunk = tile_counter;
        d.begin = cs;
        d.end = ch;
        d.row_begin = rs;
        d.row_end = rh;
        d.tile_i = i;
        d.tile_j = j;
        fill_segments_tile(d, a, plan.arrays[ai].ring_rows, plan.arrays[ai].ring_len);
        d.deps.push_back(kid);
        d.label = "d2h " + a.name + range_str(rs, rh) + "x" + range_str(cs, ch);
        tile_d2h.push_back(add_node(std::move(d)));
      }
      int tail = kid;
      if (!tile_d2h.empty()) {
        const int last = tile_d2h.back();
        plan.nodes[static_cast<std::size_t>(last)].records_event = true;
        for (int id : tile_d2h) plan.nodes[static_cast<std::size_t>(id)].event_node = last;
        for (std::size_t ai = 0; ai < spec.arrays.size(); ++ai) {
          const TileArraySpec& a = spec.arrays[ai];
          if (!is_output(a.map)) continue;
          AState& as = st[ai];
          const std::int64_t ring = plan.arrays[ai].ring_len;
          const std::int64_t cs = a.col_split.start(j);
          const std::int64_t ch = cs + a.col_split.window;
          for (std::int64_t c = cs; c < ch; ++c)
            as.col_drained[static_cast<std::size_t>(c % ring)] = last;
        }
        tail = last;
      }
      band_tail[si] = tail;
    }

    // Band end: the next band's barrier waits on each used stream's tail.
    prev_band_tails.clear();
    for (std::size_t s = 0; s < ns; ++s)
      if (used[s] && band_tail[s] >= 0) prev_band_tails.push_back(band_tail[s]);
  }
  return plan;
}

// --- Memory-limit solver ---

Bytes predicted_pipeline_footprint(const gpu::Gpu& g, const PipelineSpec& spec,
                                   std::int64_t chunk_size, int num_streams) {
  return PlanCache::instance().footprint(g, spec, chunk_size, num_streams);
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
  std::vector<gpu::StaticOp> ops;
  ops.reserve(nodes.size());
  for (const PlanNode& n : nodes) {
    gpu::StaticOp op;
    op.queue = n.stream;
    op.deps = n.deps;
    op.label = n.label.empty() ? std::string(to_string(n.op)) : n.label;
    // Transfers touch exactly their wrap segments; kernel accesses are
    // wrap-decomposed the same way. Slot space is (buffer row, ring slot)
    // flattened as row * ring_len + slot.
    auto add_segments = [&](bool write) {
      const std::int64_t ring = arrays[static_cast<std::size_t>(n.array)].ring_len;
      for (const PlanSegment& seg : n.segments)
        for (std::int64_t r = seg.row_slot; r < seg.row_slot + seg.rows; ++r)
          op.accesses.push_back(
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
                    op.accesses.push_back({acc.array, rr * info.ring_len + slot,
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
    ops.push_back(std::move(op));
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
  // Every task takes the empty label (id 0): nothing reads a task's label,
  // so only a recorded span gets one. Labels never feed the clock, so the
  // timeline (and the makespan) is the same either way.
  const StringId unlabeled = 0;

  // `label` is a callable producing the span's label; only traced runs call
  // it (and record the span).
  auto submit = [&](int stream, sim::Engine& engine, SimTime dur, sim::SpanKind kind,
                    auto&& label, Bytes bytes, std::int64_t node) {
    host += profile.api_call_host_overhead;
    if (&engine != &command) dur += sched;
    sim::TaskPtr t = sim::Task::create(engine, dur, unlabeled);
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
    auto t = sim::Task::create(command, 0.0, unlabeled);
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
