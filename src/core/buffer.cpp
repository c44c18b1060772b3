#include "core/buffer.hpp"

#include "core/layout.hpp"

namespace gpupipe::core {

RingBuffer::RingBuffer(gpu::Gpu& gpu, const ArraySpec& spec, std::int64_t ring_len)
    : gpu_(gpu), ring_len_(ring_len) {
  spec.validate();
  require(ring_len_ >= 1, "ring length must be >= 1");
  // Never allocate more ring slots than the host array has indices.
  ring_len_ = std::min(ring_len_, spec.dims[spec.split.dim]);

  view_.elem = spec.elem_size;
  view_.ring = ring_len_;
  if (spec.split.dim == 0) {
    view_.block2d = false;
    view_.slab = static_cast<Bytes>(spec.inner_elems()) * spec.elem_size;
    view_.height = 1;
    footprint_ = static_cast<Bytes>(ring_len_) * view_.slab;
    view_.base = gpu_.device_malloc(footprint_);
    view_.pitch = view_.slab;
  } else {
    view_.block2d = true;
    view_.height = spec.dims[0];
    const Bytes width = static_cast<Bytes>(ring_len_) * spec.elem_size;
    gpu::Pitched p = gpu_.device_malloc_pitched(width, static_cast<Bytes>(view_.height));
    view_.base = p.ptr;
    view_.pitch = p.pitch;
    view_.slab = 0;
    footprint_ = p.pitch * static_cast<Bytes>(view_.height);
  }
}

RingBuffer::~RingBuffer() { gpu_.device_free(view_.base); }

Bytes RingBuffer::predict_footprint(const gpu::Gpu& gpu, const ArraySpec& spec,
                                    std::int64_t ring_len) {
  ring_len = std::min(ring_len, spec.dims[spec.split.dim]);
  if (spec.split.dim == 0) {
    const Bytes slab = static_cast<Bytes>(spec.inner_elems()) * spec.elem_size;
    return static_cast<Bytes>(ring_len) * slab;
  }
  const Bytes width = static_cast<Bytes>(ring_len) * spec.elem_size;
  return layout::round_up(width, gpu.profile().pitch_alignment) *
         static_cast<Bytes>(spec.dims[0]);
}

RingGeometry RingBuffer::geometry(const ArraySpec& spec) const {
  RingGeometry g;
  g.base = view_.base;
  g.pitch = view_.pitch;
  g.cols = ring_len_;
  g.host = spec.host;
  g.host_cols = spec.dims[spec.split.dim];
  if (!view_.block2d) {
    g.unit = view_.slab;
    g.slab = true;
  } else {
    g.unit = spec.elem_size;
    g.rows = view_.height;
    g.host_pitch = static_cast<Bytes>(spec.dims[1]) * spec.elem_size;
    g.host_rows = spec.dims[0];
  }
  return g;
}

}  // namespace gpupipe::core
