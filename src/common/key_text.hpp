// Canonical text fields of cache keys: each value is written followed by
// '|', integers in decimal and doubles as hexfloats.
//
// Hexfloat: exact round-trip, so two cost hints differing in the last ulp
// key differently (bit-identical results require bit-identical inputs).
// std::to_chars, not snprintf("%a") or std::to_string: printf's hexfloat
// spells the radix point with the LC_NUMERIC decimal character, so the same
// spec would hash differently under e.g. a comma-decimal locale — fatal once
// keys persist on disk and travel between machines. to_chars is
// locale-independent by specification, and it does not allocate.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/error.hpp"

namespace gpupipe::key_text {

/// Upper bound on the characters one field takes, separator included: a
/// decimal int64 is at most 20, a hexfloat double at most 22
/// ("-1.fffffffffffffp-1022").
inline constexpr std::size_t kMaxField = 24;

inline void append_i64(std::string& out, std::int64_t v) {
  char buf[kMaxField];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  ensure(ec == std::errc{}, "key text: integer encoding failed");
  out.append(buf, end);
  out += '|';
}

inline void append_f64(std::string& out, double v) {
  char buf[kMaxField + 16];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::hex);
  ensure(ec == std::errc{}, "key text: hexfloat encoding failed");
  out.append(buf, end);
  out += '|';
}

}  // namespace gpupipe::key_text
