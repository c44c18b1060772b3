#include "core/multi.hpp"

#include "core/layout.hpp"
#include "core/telemetry.hpp"

namespace gpupipe::core {

MultiPipeline::MultiPipeline(std::vector<DeviceShare> devices, const PipelineSpec& spec) {
  require(!devices.empty(), "MultiPipeline needs at least one device");
  spec.validate();
  require(spec.schedule == ScheduleKind::Static,
          "MultiPipeline requires the static schedule");
  for (const auto& d : devices)
    require(d.device != nullptr, "MultiPipeline device pointer is null");
  for (std::size_t i = 1; i < devices.size(); ++i) {
    require(devices[i].device->context() == devices[0].device->context(),
            "all MultiPipeline devices must share one SharedContext");
  }

  std::vector<double> weights;
  weights.reserve(devices.size());
  for (const auto& d : devices)
    weights.push_back(d.weight > 0.0 ? d.weight : d.device->profile().peak_flops);

  const std::vector<std::int64_t> parts =
      layout::partition_weighted(spec.iterations(), weights, spec.chunk_size);

  std::int64_t begin = spec.loop_begin;
  for (std::size_t i = 0; i < devices.size(); ++i) {
    Part part{devices[i].device, begin, begin + parts[i], nullptr};
    if (parts[i] > 0) {
      PipelineSpec sub = spec;
      sub.loop_begin = part.begin;
      sub.loop_end = part.end;
      part.pipeline = std::make_unique<Pipeline>(*part.device, sub);
    }
    begin = part.end;
    parts_.push_back(std::move(part));
  }
}

void MultiPipeline::run(const KernelFactory& make_kernel) {
  // Enqueue every device's slice first (no blocking), then drain. The
  // shared virtual clock lets all devices' engines progress together while
  // the host waits.
  for (auto& p : parts_)
    if (p.pipeline) p.pipeline->enqueue(make_kernel);
  for (auto& p : parts_)
    if (p.pipeline) p.pipeline->wait();
}

Bytes MultiPipeline::buffer_footprint() const {
  Bytes total = 0;
  for (const auto& p : parts_)
    if (p.pipeline) total += p.pipeline->buffer_footprint();
  return total;
}

void MultiPipeline::collect_metrics(telemetry::Registry& reg,
                                    const std::string& prefix) const {
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    if (!parts_[i].pipeline) continue;
    parts_[i].pipeline->collect_metrics(reg, prefix + "dev" + std::to_string(i) + ".");
  }
  // The devices share one SharedContext (class invariant), so the event
  // queue / task arena capacity counters are machine-wide: collect them once
  // under the base prefix, from the first device's context.
  for (const Part& part : parts_) {
    if (!part.device) continue;
    collect_sim_metrics(reg, part.device->context()->sim, prefix);
    break;
  }
}

}  // namespace gpupipe::core
