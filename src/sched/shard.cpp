#include "sched/shard.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "core/layout.hpp"

namespace gpupipe::sched {

namespace {
constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();
}

bool shardable(const core::PipelineSpec& spec) {
  if (spec.schedule != core::ScheduleKind::Static) return false;
  if (!spec.halos.empty()) return false;
  if (spec.num_chunks() < 2) return false;
  for (const core::ArraySpec& a : spec.arrays)
    if (a.split.dim != 0 || a.split.window_fn) return false;
  return true;
}

std::vector<double> shard_weights(const std::vector<int>& devices,
                                  const std::vector<SimTime>& solo_estimate,
                                  const std::vector<SimTime>& outstanding) {
  std::vector<double> w;
  w.reserve(devices.size());
  for (int d : devices) {
    const std::size_t di = static_cast<std::size_t>(d);
    const SimTime est = di < solo_estimate.size() ? solo_estimate[di] : kInf;
    const SimTime load = di < outstanding.size() ? outstanding[di] : 0.0;
    w.push_back(std::isfinite(est) && est > 0.0 ? 1.0 / (est + load) : 0.0);
  }
  return w;
}

// --- ShardRun ---

ShardRun::ShardRun(const Job& job, std::vector<gpu::Gpu*> devices,
                   AdmissionController& admission, ShardRunOptions opts)
    : job_(job),
      devices_(std::move(devices)),
      admission_(admission),
      opts_(std::move(opts)),
      cursor_(job.spec.loop_begin),
      end_(job.spec.loop_end) {
  require(shardable(job_.spec), "job spec is not shardable");
  require(opts_.max_shards >= 1, "max_shards must be >= 1");
}

ShardRun::~ShardRun() {
  // Abnormal teardown with a round still live: drain, release, free stages.
  for (ShardExec& ex : shards_) {
    if (ex.pipeline) {
      ex.pipeline->wait();
      ex.pipeline.reset();
    }
    admission_.release(ex.device, ex.footprint);
  }
  for (auto& h : halos_) h->link.home->device_free(h->link.stage);
}

bool ShardRun::start_round(const std::vector<int>& devices,
                           const std::vector<double>& weights) {
  require(!live(), "ShardRun::start_round while a round is live");
  require(!finished(), "ShardRun::start_round after the loop completed");
  require(devices.size() == weights.size(), "devices/weights size mismatch");

  // Candidate set: positive-weight devices, the max_shards heaviest (ties
  // break to the lower device index), restored to device order so shard s
  // sits on a lower device index than shard s+1 — deterministic.
  std::vector<int> devs;
  std::vector<double> w;
  {
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < devices.size(); ++i)
      if (weights[i] > 0.0) order.push_back(i);
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (weights[a] != weights[b]) return weights[a] > weights[b];
      return devices[a] < devices[b];
    });
    if (order.size() > static_cast<std::size_t>(opts_.max_shards))
      order.resize(static_cast<std::size_t>(opts_.max_shards));
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return devices[a] < devices[b]; });
    for (std::size_t i : order) {
      devs.push_back(devices[i]);
      w.push_back(weights[i]);
    }
  }

  core::PipelineSpec base = job_.spec;
  base.loop_begin = cursor_;
  base.loop_end = opts_.reshard_interval > 0
                      ? std::min(end_, cursor_ + opts_.reshard_interval)
                      : end_;

  // Partition, admit every shard, drop refused devices, repeat until the
  // whole round admits (or no device is left). try_admit commits nothing,
  // so a failed attempt leaves the controller untouched.
  std::vector<core::ShardSlice> slices;
  std::vector<int> slice_dev;
  std::vector<AdmissionDecision> dec;
  for (;;) {
    if (devs.empty()) return false;
    slices = core::shard_pipeline_specs(base, w);
    // Empty parts were dropped; each slice names the weight it was cut for.
    slice_dev.clear();
    for (const core::ShardSlice& sl : slices) slice_dev.push_back(devs[sl.weight]);

    dec.clear();
    std::vector<char> refuse(devs.size(), 0);
    bool refused = false;
    for (std::size_t i = 0; i < slices.size(); ++i) {
      const AdmissionDecision d = admission_.try_admit(slice_dev[i], slices[i].spec);
      if (!d.admitted) {
        refused = true;
        for (std::size_t j = 0; j < devs.size(); ++j)
          if (devs[j] == slice_dev[i]) refuse[j] = 1;
      }
      dec.push_back(d);
    }
    if (!refused) break;
    std::vector<int> nd;
    std::vector<double> nw;
    for (std::size_t j = 0; j < devs.size(); ++j) {
      if (refuse[j]) continue;
      nd.push_back(devs[j]);
      nw.push_back(w[j]);
    }
    devs.swap(nd);
    w.swap(nw);
  }

  round_end_ = base.loop_end;
  shards_.clear();
  shards_.resize(slices.size());
  if (rounds_ == 0) {
    chunk0_ = dec[0].chunk_size;
    streams0_ = dec[0].num_streams;
  }
  for (std::size_t i = 0; i < slices.size(); ++i) {
    shards_[i].device = slice_dev[i];
    shards_[i].footprint = dec[i].footprint;
    admission_.commit(slice_dev[i], dec[i].footprint);
    if (dec[i].shrunk) shrunk_ = true;
  }

  // Links are created by the sending (higher-index) shard and picked up by
  // the receiver, keyed (receiver shard, array).
  std::map<std::pair<int, int>, core::DeviceLink*> by_recv;
  // Build and enqueue in DESCENDING shard order: shard s+1 sends the halo
  // to shard s, and the receiver's P2pRecv can only wait on an event that
  // exists once the sender's round is enqueued.
  for (int s = static_cast<int>(slices.size()) - 1; s >= 0; --s) {
    const std::size_t si = static_cast<std::size_t>(s);
    ShardExec& ex = shards_[si];
    gpu::Gpu& dev = *devices_.at(static_cast<std::size_t>(ex.device));
    core::PipelineSpec spec = slices[si].spec;
    // Freeze the admitted shape, exactly like the scheduler's solo path.
    spec.chunk_size = dec[si].chunk_size;
    spec.num_streams = dec[si].num_streams;
    spec.mem_limit = dec[si].footprint;

    dev.trace().set_trace_id(opts_.trace_id);
    ex.pipeline = std::make_unique<core::Pipeline>(dev, std::move(spec));
    for (const core::ShardHalo& h : slices[si].spec.halos) {
      const std::size_t ai = static_cast<std::size_t>(h.array);
      core::DeviceLink* push = nullptr;
      core::DeviceLink* pull = nullptr;
      if (h.send_peer >= 0) {
        auto halo = std::make_unique<Halo>();
        halo->src = ex.device;
        halo->dst = shards_[static_cast<std::size_t>(h.send_peer)].device;
        core::DeviceLink& l = halo->link;
        const core::ArraySpec& a = job_.spec.arrays[ai];
        l.home = devices_.at(static_cast<std::size_t>(halo->dst));
        l.lo = a.split.start(slices[si].begin);  // the shard boundary
        l.unit = core::layout::unit_bytes(a);
        l.stage = l.home->device_malloc(static_cast<Bytes>(h.send_hi - l.lo) * l.unit);
        push = &l;
        by_recv[{h.send_peer, h.array}] = &l;
        halos_.push_back(std::move(halo));
      }
      if (h.recv_peer >= 0) {
        auto it = by_recv.find({s, h.array});
        ensure(it != by_recv.end(), "shard recv halo has no link from its peer");
        pull = it->second;
      }
      ex.pipeline->bind_link(ai, push, pull);
    }
    ex.pipeline->enqueue(job_.kernel);
    for (gpu::Stream* st : ex.pipeline->streams())
      events_.push_back(dev.record_event(*st));
    dev.trace().set_trace_id(-1);
    log_debug("shard: round ", rounds_, " shard ", s, " -> dev", ex.device, " [",
              slices[si].begin, ", ", slices[si].end, "), chunk ", dec[si].chunk_size,
              ", ", dec[si].num_streams, " streams");
  }

  if (opts_.flight) {
    for (const auto& h : halos_)
      if (h->link.pushed > 0)
        opts_.flight(telemetry::FlightEventKind::P2pXfer,
                     static_cast<std::int64_t>(h->link.pushed), h->src, h->dst);
  }
  return true;
}

void ShardRun::finish_round() {
  require(live(), "ShardRun::finish_round without a live round");
  for (const auto& ev : events_) finish_time_ = std::max(finish_time_, ev->timestamp());
  events_.clear();
  for (ShardExec& ex : shards_) {
    // All events already fired; the drain is bookkeeping, and destroying
    // the pipeline releases its ring buffers and streams.
    ex.pipeline->wait();
    const core::PipelineStats& st = ex.pipeline->stats();
    p2p_bytes_ += st.p2p_bytes;
    h2d_bytes_ += st.h2d_bytes;
    d2h_bytes_ += st.d2h_bytes;
    ex.pipeline.reset();
    admission_.release(ex.device, ex.footprint);
  }
  for (auto& h : halos_) h->link.home->device_free(h->link.stage);
  halos_.clear();
  shards_.clear();
  cursor_ = round_end_;
  ++rounds_;
}

std::int64_t ShardRun::device_mask() const {
  std::int64_t mask = 0;
  for (const ShardExec& ex : shards_)
    if (ex.device >= 0 && ex.device < 63) mask |= std::int64_t{1} << ex.device;
  return mask;
}

std::vector<int> ShardRun::shard_devices() const {
  std::vector<int> out;
  out.reserve(shards_.size());
  for (const ShardExec& ex : shards_) out.push_back(ex.device);
  return out;
}

Bytes ShardRun::round_footprint() const {
  Bytes total = 0;
  for (const ShardExec& ex : shards_) total += ex.footprint;
  return total;
}

Bytes ShardRun::round_p2p_bytes() const {
  Bytes total = 0;
  for (const ShardExec& ex : shards_)
    if (ex.pipeline) total += ex.pipeline->stats().p2p_bytes;
  return total;
}

int ShardRun::first_device() const {
  return shards_.empty() ? -1 : shards_.front().device;
}

}  // namespace gpupipe::sched
