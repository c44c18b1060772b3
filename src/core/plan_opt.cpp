#include "core/plan_opt.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"

namespace gpupipe::core {

namespace {

void push_dep(std::vector<int>& deps, int id) {
  if (id >= 0 && std::find(deps.begin(), deps.end(), id) == deps.end()) deps.push_back(id);
}

std::string range_str(std::int64_t lo, std::int64_t hi) {
  std::string s = "[";
  s += std::to_string(lo);
  s += ",";
  s += std::to_string(hi);
  s += ")";
  return s;
}

bool is_transfer(PlanOp op) { return op == PlanOp::H2D || op == PlanOp::D2H; }

Bytes transfer_bytes(const ExecutionPlan& plan, PlanOp op) {
  Bytes total = 0;
  for (const auto& n : plan.nodes)
    if (n.op == op) total += n.bytes;
  return total;
}

/// The host row range a node's block covers (1-D plan nodes carry no row
/// extent and mean "row 0").
std::pair<std::int64_t, std::int64_t> row_range(std::int64_t lo, std::int64_t hi) {
  return hi > lo ? std::pair{lo, hi} : std::pair{std::int64_t{0}, std::int64_t{1}};
}

// --- Pass 1: halo-reuse H2D elimination ---
//
// Replays the node list in order, mirroring the ring state the executor
// would produce: which host split index (and host row range) each ring
// column holds, which new-plan transfer produced it, which kernels
// currently read it, and which drain groups emptied it. An H2D node only
// keeps the columns whose occupant differs from what it would upload;
// kernels re-derive their copy dependencies from the per-column producer,
// which is exactly the "depend on the transfer of the resident slice"
// rewiring.
//
// State is per ring *column*, not per (row, column) cell: every transfer
// of a band covers one uniform host row range (tile builders upload whole
// row windows; 1-D plans have a single row), so a column plus its resident
// row range captures the full cell grid at a fraction of the bookkeeping —
// large tile plans would otherwise pay ring_rows x more per node. Row
// mismatches fall back conservatively: the column counts as non-resident.

struct CellState {
  std::vector<std::int64_t> res_col;       // resident host split index, -1 = empty
  std::vector<std::int64_t> res_rlo;       // resident host row range [rlo, rhi)
  std::vector<std::int64_t> res_rhi;
  std::vector<int> producer;               // new id of the producing H2D
  std::vector<std::vector<int>> readers;   // new kernel ids using the occupant
  std::vector<std::vector<int>> drained;   // new ids of drain-group recorders

  void reset(std::size_t cols) {
    res_col.assign(cols, -1);
    res_rlo.assign(cols, 0);
    res_rhi.assign(cols, 0);
    producer.assign(cols, -1);
    readers.assign(cols, {});
    drained.assign(cols, {});
  }
};

PassStats halo_reuse_pass(ExecutionPlan& plan) {
  PassStats stats;
  stats.pass = "halo-reuse";
  for (const auto& a : plan.arrays) stats.bytes_saved_by_array.emplace_back(a.name, 0);

  std::vector<CellState> st(plan.arrays.size());
  auto reset_all = [&] {
    for (std::size_t ai = 0; ai < plan.arrays.size(); ++ai)
      st[ai].reset(static_cast<std::size_t>(plan.arrays[ai].ring_len));
  };
  reset_all();

  std::vector<PlanNode> out;
  out.reserve(plan.nodes.size());
  std::vector<int> old2new(plan.nodes.size(), -1);
  auto emit = [&out, &old2new](PlanNode n, int old_id) {
    n.id = static_cast<int>(out.size());
    if (old_id >= 0) old2new[static_cast<std::size_t>(old_id)] = n.id;
    out.push_back(std::move(n));
    return out.back().id;
  };
  auto remap_deps = [&old2new](std::vector<int>& deps) {
    std::vector<int> mapped;
    for (int d : deps) {
      const int nd = old2new[static_cast<std::size_t>(d)];
      ensure(nd >= 0, "plan_opt: dependency on an eliminated node");
      push_dep(mapped, nd);
    }
    deps = std::move(mapped);
  };

  // Survivors of each original H2D event group (keyed by the old recorder
  // id), for re-electing the group's recorded event afterwards.
  std::unordered_map<int, std::vector<int>> h2d_groups;
  std::vector<int> h2d_group_order;
  // D2H nodes keep their groups; their event_node old ids are remapped in
  // the post-pass. Cells drained by a group become visible (drained[cell] =
  // recorder's new id) when the recorder itself is replayed.
  std::vector<std::pair<int, int>> d2h_event_fixups;  // (new id, old recorder id)
  std::unordered_map<int, std::vector<std::pair<int, std::int64_t>>> pending_drains;

  std::int64_t last_reset_band = -1;

  for (const PlanNode& n : plan.nodes) {
    const std::size_t ai = n.array >= 0 ? static_cast<std::size_t>(n.array) : 0;
    const std::int64_t ring = n.array >= 0 ? plan.arrays[ai].ring_len : 1;
    const std::int64_t ring_rows = n.array >= 0 ? plan.arrays[ai].ring_rows : 1;
    auto cell_of = [&](std::int64_t c) { return static_cast<std::size_t>(c % ring); };

    // A DeviceHandoff is an H2D whose bytes come from staging (consume
    // side) or a D2H whose bytes go to staging (produce side); residency
    // and event-group mechanics follow the effective direction.
    PlanOp eff = n.op;
    if (n.op == PlanOp::DeviceHandoff)
      eff = plan.arrays[ai].handoff_out ? PlanOp::D2H : PlanOp::H2D;

    switch (eff) {
      case PlanOp::SlotReuse:
        // Dropped and regenerated in front of each surviving H2D, scoped to
        // the cells its overwrite actually touches.
        break;

      case PlanOp::Barrier: {
        // A band transition: the new band overwrites the buffer rows, so
        // nothing stays resident across it. One barrier is emitted per
        // stream — reset only on the first of a band.
        if (n.tile_i != last_reset_band) {
          reset_all();
          last_reset_band = n.tile_i;
        }
        PlanNode b = n;
        remap_deps(b.deps);
        emit(std::move(b), n.id);
        break;
      }

      case PlanOp::H2D:
      case PlanOp::P2pRecv: {
        // A P2pRecv is an upload whose bytes come from a peer device instead
        // of the host; residency, slot-reuse, and event-group mechanics are
        // identical, so repeated foreign windows elide to the first landing.
        CellState& cs = st[ai];
        const auto [r_lo, r_hi] = row_range(n.row_begin, n.row_end);
        // A column is needed unless it already holds the same host data
        // over at least the uploaded row range.
        std::vector<std::int64_t> needed;
        for (std::int64_t c = n.begin; c < n.end; ++c) {
          const std::size_t cell = cell_of(c);
          const bool resident = cs.res_col[cell] == c && cs.res_rlo[cell] <= r_lo &&
                                r_hi <= cs.res_rhi[cell];
          if (!resident) needed.push_back(c);
        }
        if (needed.empty()) {
          stats.bytes_saved += n.bytes;
          stats.bytes_saved_by_array[ai].second += n.bytes;
          break;
        }

        // Regenerate the slot-reuse guard for the columns being overwritten.
        std::vector<int> reuse;
        for (std::int64_t c : needed) {
          const std::size_t cell = cell_of(c);
          for (int rd : cs.readers[cell]) push_dep(reuse, rd);
          for (int dr : cs.drained[cell]) push_dep(reuse, dr);
        }
        const std::int64_t n_lo = needed.front();
        const std::int64_t n_hi = needed.back() + 1;
        int reuse_id = -1;
        if (!reuse.empty()) {
          PlanNode sr;
          sr.op = PlanOp::SlotReuse;
          sr.stream = n.stream;
          sr.array = n.array;
          sr.chunk = n.chunk;
          sr.begin = n_lo;
          sr.end = n_hi;
          sr.row_begin = n.row_begin;
          sr.row_end = n.row_end;
          sr.deps = std::move(reuse);
          sr.label = "reuse " + plan.arrays[ai].name + range_str(n_lo, n_hi);
          reuse_id = emit(std::move(sr), -1);
        }

        PlanNode h = n;
        h.begin = n_lo;
        h.end = n_hi;
        h.deps.clear();
        if (reuse_id >= 0) h.deps.push_back(reuse_id);
        ensure(!n.segments.empty(), "plan_opt: H2D node without segments");
        const Bytes col_width = n.segments.front().width / n.segments.front().count;
        const Bytes flat_height = n.segments.front().height;
        const bool tiled = n.row_end > n.row_begin;
        h.segments.clear();
        h.bytes = 0;
        // Maximal needed-column runs, broken at ring wraps — per buffer row
        // run for tile blocks, once (with the original copy height) for 1-D.
        for (std::int64_t r = r_lo; r < r_hi;) {
          const std::int64_t slot_r = r % ring_rows;
          const std::int64_t nr = std::min(r_hi - r, ring_rows - slot_r);
          for (std::size_t k = 0; k < needed.size();) {
            std::size_t e = k + 1;
            while (e < needed.size() && needed[e] == needed[e - 1] + 1 &&
                   needed[e] % ring != 0)
              ++e;
            PlanSegment seg;
            seg.slot = needed[k] % ring;
            seg.index = needed[k];
            seg.count = static_cast<std::int64_t>(e - k);
            seg.row_slot = tiled ? slot_r : 0;
            seg.row = tiled ? r : 0;
            seg.rows = tiled ? nr : 1;
            seg.width = static_cast<Bytes>(seg.count) * col_width;
            seg.height = tiled ? static_cast<Bytes>(nr) : flat_height;
            h.bytes += seg.bytes();
            h.segments.push_back(seg);
            k = e;
          }
          r += nr;
        }
        const bool shrunk = h.bytes < n.bytes;
        if (shrunk) {
          ++stats.nodes_changed;
          stats.bytes_saved += n.bytes - h.bytes;
          stats.bytes_saved_by_array[ai].second += n.bytes - h.bytes;
          const char* what = n.op == PlanOp::H2D        ? "h2d "
                             : n.op == PlanOp::P2pRecv ? "p2p-recv "
                                                        : "handoff-in ";
          h.label = what + plan.arrays[ai].name + range_str(n_lo, n_hi);
        }
        h.records_event = false;  // groups re-elect their recorder below
        h.event_node = -1;
        const int hid = emit(std::move(h), n.id);
        auto [it, fresh] = h2d_groups.try_emplace(n.event_node);
        if (fresh) h2d_group_order.push_back(n.event_node);
        it->second.push_back(hid);
        for (std::int64_t c : needed) {
          const std::size_t cell = cell_of(c);
          cs.res_col[cell] = c;
          cs.res_rlo[cell] = r_lo;
          cs.res_rhi[cell] = r_hi;
          cs.producer[cell] = hid;
          cs.readers[cell].clear();
          cs.drained[cell].clear();
        }
        break;
      }

      case PlanOp::Kernel: {
        PlanNode k = n;
        k.deps.clear();
        for (const PlanAccess& acc : n.accesses) {
          CellState& acs = st[static_cast<std::size_t>(acc.array)];
          const PlanArrayInfo& info = plan.arrays[static_cast<std::size_t>(acc.array)];
          const auto [a_rlo, a_rhi] = row_range(acc.row_lo, acc.row_hi);
          for (std::int64_t c = acc.lo; c < acc.hi; ++c) {
            const std::size_t cell = static_cast<std::size_t>(c % info.ring_len);
            if (!acc.write) {
              ensure(acs.res_col[cell] == c && acs.res_rlo[cell] <= a_rlo &&
                         a_rhi <= acs.res_rhi[cell] && acs.producer[cell] >= 0,
                     "plan_opt: kernel input slice is not resident");
              push_dep(k.deps, acs.producer[cell]);
            } else {
              for (int dr : acs.drained[cell]) push_dep(k.deps, dr);
            }
          }
        }
        const int kid = emit(std::move(k), n.id);
        out[static_cast<std::size_t>(kid)].records_event = true;
        out[static_cast<std::size_t>(kid)].event_node = kid;
        for (const PlanAccess& acc : n.accesses) {
          CellState& acs = st[static_cast<std::size_t>(acc.array)];
          const PlanArrayInfo& info = plan.arrays[static_cast<std::size_t>(acc.array)];
          for (std::int64_t c = acc.lo; c < acc.hi; ++c) {
            const std::size_t cell = static_cast<std::size_t>(c % info.ring_len);
            // Every use — read or write — is an occupant the next
            // overwrite must wait for; writes additionally invalidate the
            // residency (device data no longer mirrors the host).
            auto& rd = acs.readers[cell];
            if (rd.empty() || rd.back() != kid) rd.push_back(kid);
            if (acc.write) acs.res_col[cell] = -1;
          }
        }
        break;
      }

      case PlanOp::P2pSend: {
        // Re-derive the send's copy dependencies from the per-cell producer
        // (halo reuse may have merged the upload it originally depended on)
        // and re-register it as a reader so later overwrites wait for it.
        CellState& cs = st[ai];
        PlanNode p = n;
        p.deps.clear();
        for (std::int64_t c = n.begin; c < n.end; ++c) {
          const std::size_t cell = cell_of(c);
          ensure(cs.res_col[cell] == c && cs.producer[cell] >= 0,
                 "plan_opt: halo send slice is not resident");
          push_dep(p.deps, cs.producer[cell]);
        }
        const int pid = emit(std::move(p), n.id);
        out[static_cast<std::size_t>(pid)].records_event = true;
        out[static_cast<std::size_t>(pid)].event_node = pid;
        for (std::int64_t c = n.begin; c < n.end; ++c) {
          auto& rd = cs.readers[cell_of(c)];
          if (rd.empty() || rd.back() != pid) rd.push_back(pid);
        }
        break;
      }

      case PlanOp::D2H: {
        PlanNode d = n;
        remap_deps(d.deps);
        const int did = emit(std::move(d), n.id);
        d2h_event_fixups.emplace_back(did, n.event_node);
        auto& pend = pending_drains[n.event_node];
        for (std::int64_t c = n.begin; c < n.end; ++c)
          pend.emplace_back(n.array, static_cast<std::int64_t>(cell_of(c)));
        if (n.id == n.event_node) {
          // This member is the group's recorder: its completion makes the
          // whole group's columns reusable.
          for (const auto& [arr, cell] : pend) {
            auto& dr = st[static_cast<std::size_t>(arr)].drained[static_cast<std::size_t>(cell)];
            if (dr.empty() || dr.back() != did) dr.push_back(did);
          }
          pending_drains.erase(n.event_node);
        }
        break;
      }

      case PlanOp::DeviceHandoff:
        break;  // unreachable: mapped to the effective H2D/D2H above
    }
  }

  // Re-elect each H2D group's recorded event: the last survivor records,
  // every survivor points at it.
  for (int old_rec : h2d_group_order) {
    const auto& members = h2d_groups[old_rec];
    if (members.empty()) continue;
    const int last = members.back();
    out[static_cast<std::size_t>(last)].records_event = true;
    for (int m : members) out[static_cast<std::size_t>(m)].event_node = last;
  }
  for (const auto& [nid, old_rec] : d2h_event_fixups) {
    const int rec = old2new[static_cast<std::size_t>(old_rec)];
    ensure(rec >= 0, "plan_opt: D2H event recorder was eliminated");
    out[static_cast<std::size_t>(nid)].event_node = rec;
  }

  stats.nodes_removed =
      static_cast<std::int64_t>(plan.nodes.size()) - static_cast<std::int64_t>(out.size());
  plan.nodes = std::move(out);
  return stats;
}

// --- Pass 2: segment coalescing ---
//
// Adjacent segments of one transfer node that are contiguous on both the
// host and the ring become one copy: horizontally (consecutive split
// indices in consecutive slots, same rows) and vertically (same columns,
// consecutive host rows in consecutive buffer rows). Same stream and array
// by construction — segments never leave their node.

PassStats coalesce_pass(ExecutionPlan& plan) {
  PassStats stats;
  stats.pass = "coalesce";
  for (const auto& a : plan.arrays) stats.bytes_saved_by_array.emplace_back(a.name, 0);
  for (PlanNode& n : plan.nodes) {
    // P2P halo and handoff nodes carry ring segments like any transfer;
    // merging their wrap pieces merges the exchange's copies the same way.
    const bool coalescable = is_transfer(n.op) || n.op == PlanOp::P2pSend ||
                             n.op == PlanOp::P2pRecv || n.op == PlanOp::DeviceHandoff;
    if (!coalescable || n.segments.size() < 2) continue;
    std::vector<PlanSegment> merged;
    merged.reserve(n.segments.size());
    for (const PlanSegment& seg : n.segments) {
      if (!merged.empty()) {
        PlanSegment& a = merged.back();
        const bool horizontal = a.rows == seg.rows && a.row_slot == seg.row_slot &&
                                a.row == seg.row && a.height == seg.height &&
                                a.slot + a.count == seg.slot && a.index + a.count == seg.index;
        const bool vertical = a.slot == seg.slot && a.index == seg.index &&
                              a.count == seg.count && a.width == seg.width &&
                              a.rows == static_cast<std::int64_t>(a.height) &&
                              seg.rows == static_cast<std::int64_t>(seg.height) &&
                              a.row_slot + a.rows == seg.row_slot && a.row + a.rows == seg.row;
        if (horizontal) {
          a.count += seg.count;
          a.width += seg.width;
          continue;
        }
        if (vertical) {
          a.rows += seg.rows;
          a.height += seg.height;
          continue;
        }
      }
      merged.push_back(seg);
    }
    if (merged.size() < n.segments.size()) {
      ++stats.nodes_changed;
      n.segments = std::move(merged);
    }
  }
  return stats;
}

// --- Pass 3: stream rebalance ---
//
// Greedy: walk the transfer nodes in plan order and hand a node (plus its
// guarding SlotReuse) to the least-loaded stream when that stream trails by
// more than the node's own bytes. Node order — and with it every
// same-stream FIFO guarantee the dependency edges rely on — is unchanged;
// moved nodes record their own completion event so cross-stream consumers
// still find one that is ordered after them.

PassStats rebalance_pass(ExecutionPlan& plan) {
  PassStats stats;
  stats.pass = "rebalance";
  for (const auto& a : plan.arrays) stats.bytes_saved_by_array.emplace_back(a.name, 0);
  if (plan.num_streams <= 1) return stats;
  for (const PlanNode& n : plan.nodes)
    if (n.op == PlanOp::Barrier) return stats;  // band structure is stream-shaped

  // Event-group membership (nodes sharing a recorder).
  std::unordered_map<int, std::vector<int>> groups;
  for (const PlanNode& n : plan.nodes)
    if (is_transfer(n.op) && n.event_node >= 0) groups[n.event_node].push_back(n.id);

  std::vector<Bytes> load(static_cast<std::size_t>(plan.num_streams), 0);
  for (const PlanNode& n : plan.nodes)
    if (is_transfer(n.op)) load[static_cast<std::size_t>(n.stream)] += n.bytes;

  for (PlanNode& n : plan.nodes) {
    if (!is_transfer(n.op)) continue;
    // A D2H group's recorder stands in for every member in downstream
    // drain dependencies; only a singleton group moves safely.
    if (n.op == PlanOp::D2H &&
        (n.event_node != n.id || groups[n.event_node].size() != 1))
      continue;
    int best = 0;
    for (int s = 1; s < plan.num_streams; ++s)
      if (load[static_cast<std::size_t>(s)] < load[static_cast<std::size_t>(best)]) best = s;
    if (best == n.stream ||
        load[static_cast<std::size_t>(n.stream)] - load[static_cast<std::size_t>(best)] <=
            n.bytes)
      continue;

    load[static_cast<std::size_t>(n.stream)] -= n.bytes;
    load[static_cast<std::size_t>(best)] += n.bytes;
    // The guard travels along: its ordering edge into the H2D is implicit
    // same-stream FIFO.
    for (int d : n.deps)
      if (plan.nodes[static_cast<std::size_t>(d)].op == PlanOp::SlotReuse)
        plan.nodes[static_cast<std::size_t>(d)].stream = best;
    const int old_group = n.event_node;
    n.stream = best;
    n.records_event = true;
    n.event_node = n.id;
    ++stats.nodes_changed;
    if (old_group < 0) continue;
    auto& members = groups[old_group];
    members.erase(std::remove(members.begin(), members.end(), n.id), members.end());
    if (old_group == n.id && !members.empty()) {
      // The recorder left; the last remaining member takes over.
      const int rec = members.back();
      plan.nodes[static_cast<std::size_t>(rec)].records_event = true;
      for (int m : members) plan.nodes[static_cast<std::size_t>(m)].event_node = rec;
      groups[rec] = members;
    }
  }
  return stats;
}

// --- Pass 0: inter-job stitching ---
//
// A lowering, not an optimization: when the scheduler wired an array to a
// handoff link (PlanArrayInfo::handoff_link), its host transfers must move
// through the link's device-resident staging instead. Produce side: every
// D2H of the array becomes a DeviceHandoff stash (ring -> staging); consume
// side: every H2D becomes a DeviceHandoff landing (staging -> ring). Node
// ids, deps, segments, and event groups are untouched — only the op, peer,
// and label change — so the rewrite composes with every later pass.

PassStats stitch_pass(ExecutionPlan& plan) {
  PassStats stats;
  stats.pass = "stitch";
  for (const auto& a : plan.arrays) stats.bytes_saved_by_array.emplace_back(a.name, 0);
  for (PlanNode& n : plan.nodes) {
    if (n.array < 0) continue;
    const std::size_t ai = static_cast<std::size_t>(n.array);
    const PlanArrayInfo& info = plan.arrays[ai];
    if (info.handoff_link < 0) continue;
    if (n.op != (info.handoff_out ? PlanOp::D2H : PlanOp::H2D)) continue;
    n.op = PlanOp::DeviceHandoff;
    n.peer = info.handoff_link;
    n.label = (info.handoff_out ? "handoff-out " : "handoff-in ") + info.name +
              range_str(n.begin, n.end);
    ++stats.nodes_changed;
    stats.bytes_saved += n.bytes;
    stats.bytes_saved_by_array[ai].second += n.bytes;
  }
  return stats;
}

// --- Pass 4: kernel fusion ---
//
// Two kernels A then B on the same stream merge into one launch when B's
// iteration range continues A's, their declared accesses have the same
// shape (same arrays, same write flags, same rows, contiguous or sliding
// columns), and nothing that executes between them orders before B — i.e.
// every dependency of B resolves to A or an earlier node. That last test is
// the hazard guard: an intervening upload into B's input, or a drain B's
// output slots wait on, shows up as a dependency with a later id and blocks
// the merge (hand-merging anyway fails ExecutionPlan::validate()).

PassStats fusion_pass(ExecutionPlan& plan) {
  PassStats stats;
  stats.pass = "fusion";
  for (const auto& a : plan.arrays) stats.bytes_saved_by_array.emplace_back(a.name, 0);
  for (const PlanNode& n : plan.nodes)
    if (n.op == PlanOp::Barrier) return stats;  // band structure: keep

  // Erased kernels redirect to their surviving absorber.
  std::vector<int> merged_into(plan.nodes.size(), -1);
  auto resolve = [&merged_into](int id) {
    while (merged_into[static_cast<std::size_t>(id)] >= 0)
      id = merged_into[static_cast<std::size_t>(id)];
    return id;
  };

  std::vector<int> last_kernel(static_cast<std::size_t>(plan.num_streams), -1);
  for (PlanNode& b : plan.nodes) {
    if (b.op != PlanOp::Kernel) continue;
    const std::size_t si = static_cast<std::size_t>(b.stream);
    const int prev = last_kernel[si];
    last_kernel[si] = b.id;
    if (prev < 0 || b.tile_i >= 0) continue;  // tile kernels keep band shape
    PlanNode& a = plan.nodes[static_cast<std::size_t>(prev)];
    if (b.begin != a.end) continue;
    if (b.accesses.size() != a.accesses.size()) continue;
    bool ok = true;
    for (std::size_t i = 0; ok && i < b.accesses.size(); ++i) {
      const PlanAccess& pa = a.accesses[i];
      const PlanAccess& pb = b.accesses[i];
      // Same geometry: same array and direction, same rows, columns sliding
      // forward without a gap (writes must not overlap), and the merged span
      // staying inside the ring so no slot aliases two host indices.
      ok = pb.array == pa.array && pb.write == pa.write && pb.row_lo == pa.row_lo &&
           pb.row_hi == pa.row_hi && pb.lo >= pa.lo && pb.hi >= pa.hi && pb.lo <= pa.hi &&
           (!pb.write || pb.lo == pa.hi) &&
           pb.hi - pa.lo <= plan.arrays[static_cast<std::size_t>(pa.array)].ring_len;
    }
    if (!ok) continue;
    for (int d : b.deps)
      if (resolve(d) > a.id) {
        ok = false;
        break;
      }
    if (!ok) continue;

    if (merged_into[static_cast<std::size_t>(a.id)] < 0 &&
        a.label.find('+') == std::string::npos)
      ++stats.nodes_changed;
    a.end = b.end;
    for (std::size_t i = 0; i < b.accesses.size(); ++i) a.accesses[i].hi = b.accesses[i].hi;
    for (int d : b.deps) {
      const int rd = resolve(d);
      if (rd != a.id) push_dep(a.deps, rd);
    }
    a.flops += b.flops;
    a.bytes += b.bytes;
    a.label += "+" + b.label;
    merged_into[static_cast<std::size_t>(b.id)] = a.id;
    ++stats.nodes_removed;
    last_kernel[si] = a.id;
  }
  if (stats.nodes_removed == 0) return stats;

  // Compact: drop absorbed kernels, renumber, and remap every reference
  // through the redirect chain.
  std::vector<int> old2new(plan.nodes.size(), -1);
  std::vector<PlanNode> out;
  out.reserve(plan.nodes.size());
  for (PlanNode& n : plan.nodes) {
    if (merged_into[static_cast<std::size_t>(n.id)] >= 0) continue;
    old2new[static_cast<std::size_t>(n.id)] = static_cast<int>(out.size());
    out.push_back(std::move(n));
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    PlanNode& n = out[i];
    n.id = static_cast<int>(i);
    std::vector<int> deps;
    for (int d : n.deps) push_dep(deps, old2new[static_cast<std::size_t>(resolve(d))]);
    n.deps = std::move(deps);
    if (n.event_node >= 0)
      n.event_node = old2new[static_cast<std::size_t>(resolve(n.event_node))];
  }
  plan.nodes = std::move(out);
  return stats;
}

}  // namespace

OptReport optimize_plan(ExecutionPlan& plan, int opt_level,
                        const gpu::DeviceProfile* profile, const DryRunCost& cost) {
  require(opt_level >= 0 && opt_level <= 2, "opt_level must be 0, 1, or 2");
  OptReport report;
  report.h2d_bytes_before = transfer_bytes(plan, PlanOp::H2D);
  report.d2h_bytes_before = transfer_bytes(plan, PlanOp::D2H);
  report.nodes_before = static_cast<std::int64_t>(plan.nodes.size());

  using Clock = std::chrono::steady_clock;
  auto timed = [&report](PassStats s, Clock::time_point t0) {
    s.elapsed_s = std::chrono::duration<double>(Clock::now() - t0).count();
    report.passes.push_back(std::move(s));
  };

  bool wired = false;
  for (const auto& a : plan.arrays) wired = wired || a.handoff_link >= 0;
  if (wired) {
    const auto t0 = Clock::now();
    PassStats s = stitch_pass(plan);
    report.stitched_bytes = s.bytes_saved;
    timed(std::move(s), t0);
  }
  if (opt_level >= 1) {
    auto t0 = Clock::now();
    timed(halo_reuse_pass(plan), t0);
    t0 = Clock::now();
    timed(coalesce_pass(plan), t0);
  }
  if (opt_level >= 2) {
    auto t0 = Clock::now();
    timed(rebalance_pass(plan), t0);
    // Fusion is cost-gated: erasing launch rounds is usually a win, but a
    // fused kernel also delays the drains that used to overlap the next
    // chunk's compute. With a profile in hand, a dry run arbitrates; the
    // losing plan is thrown away.
    t0 = Clock::now();
    ExecutionPlan before = plan;
    PassStats s = fusion_pass(plan);
    constexpr DryRunTrace kGate = DryRunTrace::MakespanOnly;
    if (s.nodes_removed > 0 && profile != nullptr &&
        dry_run(plan, *profile, cost, kGate).makespan >
            dry_run(before, *profile, cost, kGate).makespan) {
      plan = std::move(before);
      s.pass = "fusion(reverted)";
      s.nodes_removed = 0;
      s.nodes_changed = 0;
    }
    report.fused_kernels = s.nodes_removed;
    timed(std::move(s), t0);
  }
  report.h2d_bytes_after = transfer_bytes(plan, PlanOp::H2D);
  report.d2h_bytes_after = transfer_bytes(plan, PlanOp::D2H);
  report.nodes_after = static_cast<std::int64_t>(plan.nodes.size());
  return report;
}

}  // namespace gpupipe::core
