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

bool is_transfer(PlanOp op) { return op == PlanOp::H2D || op == PlanOp::D2H; }

// --- Stream rebalance ---
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

// --- Kernel fusion ---
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

void OptReport::append(const OptReport& later) {
  passes.insert(passes.end(), later.passes.begin(), later.passes.end());
  h2d_bytes_after = later.h2d_bytes_after;
  d2h_bytes_after = later.d2h_bytes_after;
  nodes_after = later.nodes_after;
  stitched_bytes += later.stitched_bytes;
  fused_kernels += later.fused_kernels;
}

OptReport optimize_plan(ExecutionPlan& plan, int opt_level,
                        const gpu::DeviceProfile* profile, const DryRunCost& cost) {
  require(opt_level >= 0 && opt_level <= 2, "opt_level must be 0, 1, or 2");
  OptReport report;
  report.h2d_bytes_before = plan.transfer_bytes(PlanOp::H2D);
  report.d2h_bytes_before = plan.transfer_bytes(PlanOp::D2H);
  report.nodes_before = static_cast<std::int64_t>(plan.nodes.size());

  using Clock = std::chrono::steady_clock;
  auto timed = [&report](PassStats s, Clock::time_point t0) {
    s.elapsed_s = std::chrono::duration<double>(Clock::now() - t0).count();
    report.passes.push_back(std::move(s));
  };

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
  report.h2d_bytes_after = plan.transfer_bytes(PlanOp::H2D);
  report.d2h_bytes_after = plan.transfer_bytes(PlanOp::D2H);
  report.nodes_after = static_cast<std::int64_t>(plan.nodes.size());
  return report;
}

}  // namespace gpupipe::core
