// Device ring buffers for pipelined arrays.
//
// Instead of allocating a mapped array at full host size on the device, the
// runtime pre-allocates a small ring that holds `ring_len` indices of the
// split dimension (paper §IV: "we use the mod operator (%) to get the offset
// of each chunk inside the buffer"). Index i of the split dimension lives at
// ring slot (i mod ring_len); the executor guarantees via events that a slot
// is never overwritten while an in-flight kernel still needs it.
//
// Two layouts mirror the paper's 1-D and 2-D copy support:
//   * slab    — split dimension 0: each index is a contiguous slab
//               (inner-dims volume); transfers are 1-D memcpys.
//   * block2d — split dimension 1 of a 2-D array: each index is a column;
//               the buffer is pitched and transfers are 2-D strided copies
//               (cudaMemcpy2DAsync in the paper's prototype).
// Both are shapes of one RingGeometry, as the tile rings of
// core/tile_pipeline.hpp are: one PlanArrayBinding (core/plan.hpp) ships
// every plan segment of all three through it, so a ring buffer only
// allocates, frees and addresses its ring.
#pragma once

#include <cstdint>

#include "core/spec.hpp"
#include "gpu/gpu.hpp"

namespace gpupipe::core {

/// Lightweight, copyable addressing handle passed to kernel bodies.
/// This is the "new device base pointer and corresponding offsets" of §IV:
/// kernels translate host indices to buffer locations through it.
struct BufferView {
  std::byte* base = nullptr;
  Bytes elem = sizeof(double);
  std::int64_t ring = 1;  ///< ring length in split-dim indices
  Bytes slab = 0;         ///< bytes per index (slab layout)
  Bytes pitch = 0;        ///< bytes between buffer rows (block2d layout)
  std::int64_t height = 1;  ///< buffer rows (block2d: the un-split dim 0)
  bool block2d = false;

  /// Ring slot of a (non-negative) split-dim index.
  std::int64_t slot(std::int64_t idx) const { return idx % ring; }

  /// Slab layout: device pointer to the slab for split index `idx`.
  template <typename T = double>
  T* slab_ptr(std::int64_t idx) const {
    return reinterpret_cast<T*>(base + static_cast<Bytes>(slot(idx)) * slab);
  }

  /// Block2d layout: device pointer to element (row, split index `col`).
  template <typename T = double>
  T* elem_ptr(std::int64_t row, std::int64_t col) const {
    return reinterpret_cast<T*>(base + static_cast<Bytes>(row) * pitch +
                                static_cast<Bytes>(slot(col)) * elem);
  }
};

/// Where one mapped array lives on both ends of its transfers: split index
/// i of host row r sits at `host + r * host_pitch + i * unit`, and in the
/// device ring at `base + (r mod rows) * pitch + (i mod cols) * unit`. A
/// slab ring is one row of `unit`-byte slabs, a column-block ring `rows`
/// rows of one-element columns (each copy ships all of them), and a tile
/// ring (core/tile_pipeline.hpp) wraps in both dimensions.
/// PlanArrayBinding (core/plan.hpp) moves plan segments through it.
struct RingGeometry {
  std::byte* base = nullptr;
  Bytes pitch = 0;              ///< bytes between ring rows
  Bytes unit = 0;               ///< bytes per split index within a row
  std::int64_t cols = 1;        ///< ring slots per row
  std::int64_t rows = 1;        ///< ring rows
  std::byte* host = nullptr;
  Bytes host_pitch = 0;         ///< bytes between host rows
  std::int64_t host_cols = 0;   ///< host split-index extent
  std::int64_t host_rows = 1;   ///< host rows
  bool slab = false;            ///< one contiguous row per index: 1-D copies
};

/// One mapped array's device ring buffer, bound to a Gpu for its lifetime.
/// It allocates and frees the ring and addresses it; PlanArrayBinding
/// issues its transfers.
class RingBuffer {
 public:
  /// Allocates a ring of `ring_len` split-dim indices for `spec`.
  RingBuffer(gpu::Gpu& gpu, const ArraySpec& spec, std::int64_t ring_len);
  ~RingBuffer();
  RingBuffer(const RingBuffer&) = delete;
  RingBuffer& operator=(const RingBuffer&) = delete;

  /// Device bytes this ring occupies.
  Bytes footprint() const { return footprint_; }
  std::int64_t ring_len() const { return ring_len_; }
  const BufferView& view() const { return view_; }

  /// This ring and the host array of `spec` (the spec it was allocated
  /// for, or one of identical shape) as a PlanArrayBinding addresses them.
  RingGeometry geometry(const ArraySpec& spec) const;

  /// Predicts the footprint of a ring without allocating it (used by the
  /// memory-limit solver before buffers exist).
  static Bytes predict_footprint(const gpu::Gpu& gpu, const ArraySpec& spec,
                                 std::int64_t ring_len);

 private:
  gpu::Gpu& gpu_;
  std::int64_t ring_len_;
  Bytes footprint_ = 0;
  BufferView view_;
};

}  // namespace gpupipe::core
