// Unit tests for the pipeline specification types and their validation.
#include <gtest/gtest.h>

#include <string>

#include "core/spec.hpp"

namespace gpupipe::core {
namespace {

std::byte* fake_host() { return reinterpret_cast<std::byte*>(0x1000); }

ArraySpec valid_array() {
  ArraySpec a;
  a.name = "A";
  a.map = MapType::To;
  a.host = fake_host();
  a.elem_size = sizeof(double);
  a.dims = {16, 8};
  a.split = SplitSpec{0, Affine{1, 0}, 1};
  return a;
}

TEST(Affine, EvaluatesScaleAndOffset) {
  const Affine f{2, -3};
  EXPECT_EQ(f(0), -3);
  EXPECT_EQ(f(5), 7);
  EXPECT_EQ((Affine{1, 0}(42)), 42);
}

TEST(SplitSpec, RangeOfUsesAffineOrFunction) {
  SplitSpec s{0, Affine{1, -1}, 3};
  EXPECT_EQ(s.range_of(5), (std::pair<std::int64_t, std::int64_t>{4, 7}));
  s.window_fn = [](std::int64_t k) { return std::make_pair(k * 2, k * 2 + 5); };
  EXPECT_EQ(s.range_of(5), (std::pair<std::int64_t, std::int64_t>{10, 15}));
}

TEST(ArraySpec, GeometryHelpers) {
  ArraySpec a = valid_array();
  a.dims = {4, 8, 16};
  EXPECT_EQ(a.inner_elems(), 8 * 16);
  EXPECT_EQ(a.outer_elems(), 1);
  EXPECT_EQ(a.total_bytes(), 4u * 8 * 16 * sizeof(double));
  a.split.dim = 1;
  EXPECT_EQ(a.inner_elems(), 16);
  EXPECT_EQ(a.outer_elems(), 4);
}

TEST(ArraySpec, ValidationCatchesEachDefect) {
  {
    ArraySpec a = valid_array();
    a.host = nullptr;
    EXPECT_THROW(a.validate(), Error);
  }
  {
    ArraySpec a = valid_array();
    a.elem_size = 0;
    EXPECT_THROW(a.validate(), Error);
  }
  {
    ArraySpec a = valid_array();
    a.dims = {};
    EXPECT_THROW(a.validate(), Error);
  }
  {
    ArraySpec a = valid_array();
    a.dims = {16, 0};
    EXPECT_THROW(a.validate(), Error);
  }
  {
    ArraySpec a = valid_array();
    a.split.window = 0;
    EXPECT_THROW(a.validate(), Error);
  }
  {
    ArraySpec a = valid_array();
    a.split.start.scale = 0;  // non-increasing split
    EXPECT_THROW(a.validate(), Error);
  }
  {
    ArraySpec a = valid_array();
    a.split.dim = 1;
    a.dims = {4, 8, 16};  // block2d only for 2-D arrays
    EXPECT_THROW(a.validate(), Error);
  }
  {
    ArraySpec a = valid_array();
    a.map = MapType::From;
    a.split.window = 2;  // overlapping outputs (scale 1)
    EXPECT_THROW(a.validate(), Error);
  }
  EXPECT_NO_THROW(valid_array().validate());
}

// validate() builds each message only when its check fails; the text a
// failure reports (everything before the " [file:line]" suffix) is the one
// the eager checks reported.
TEST(ArraySpec, ValidationMessagesKeepTheirText) {
  auto message = [](const ArraySpec& a) -> std::string {
    try {
      a.validate();
    } catch (const Error& e) {
      const std::string what = e.what();
      return what.substr(0, what.find(" ["));
    }
    return "no error";
  };
  ArraySpec a = valid_array();
  a.name = "data";
  a.host = nullptr;
  EXPECT_EQ(message(a), "invalid argument: array 'data': host pointer is null");
  a = valid_array();
  a.name = "data";
  a.map = MapType::ToFrom;
  a.split.window = 2;
  EXPECT_EQ(message(a),
            "invalid argument: array 'data': output split window may not overlap between "
            "iterations");
  a = valid_array();
  a.name = "data";
  a.split.dim = 1;
  a.dims = {4, 64, 64};
  EXPECT_EQ(message(a),
            "invalid argument: array 'data': prototype supports splitting dimension 0 "
            "(slabs) or dimension 1 of a 2-D array (column blocks)");
  EXPECT_EQ(message(valid_array()), "no error");
}

TEST(ArraySpec, OutputWindowMayEqualScale) {
  ArraySpec a = valid_array();
  a.map = MapType::From;
  a.split = SplitSpec{0, Affine{2, 0}, 2};
  EXPECT_NO_THROW(a.validate());
}

TEST(PipelineSpec, ValidationAndCounting) {
  PipelineSpec s;
  s.loop_begin = 0;
  s.loop_end = 10;
  s.chunk_size = 3;
  s.arrays = {valid_array()};
  EXPECT_NO_THROW(s.validate());
  EXPECT_EQ(s.iterations(), 10);
  EXPECT_EQ(s.num_chunks(), 4);  // 3+3+3+1

  s.loop_end = 0;
  EXPECT_THROW(s.validate(), Error);
  s.loop_end = 10;
  s.chunk_size = 0;
  EXPECT_THROW(s.validate(), Error);
  s.chunk_size = 1;
  s.num_streams = 0;
  EXPECT_THROW(s.validate(), Error);
  s.num_streams = 1;
  s.arrays.clear();
  EXPECT_THROW(s.validate(), Error);
  s.arrays = {valid_array()};
  s.mem_limit = 0;
  EXPECT_THROW(s.validate(), Error);
}

TEST(MapType, NamesRoundTrip) {
  EXPECT_STREQ(to_string(MapType::To), "to");
  EXPECT_STREQ(to_string(MapType::From), "from");
  EXPECT_STREQ(to_string(MapType::ToFrom), "tofrom");
}

}  // namespace
}  // namespace gpupipe::core
