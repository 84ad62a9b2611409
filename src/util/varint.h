// LEB128 varints: the integer coder of the compressed store's block payload
// (docs/storage.md §1) and of rank checkpoints (core/checkpoint.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/error.h"

namespace pagen {

/// Append the LEB128 encoding of `value` (1-10 bytes) to `out`.
inline void put_varint(std::vector<std::uint8_t>& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

/// Decode one varint starting at `pos`; advances `pos`. Throws CheckError
/// on truncation and on anything longer than 64 bits: more than 10 bytes,
/// or a 10th byte above 0x01 (bits beyond 63 would be dropped, so the value
/// would not re-encode to the same bytes). Vectors convert implicitly; the
/// span form lets the store's block codec decode slices.
[[nodiscard]] inline std::uint64_t get_varint(std::span<const std::uint8_t> buf,
                                              std::size_t& pos) {
  std::uint64_t value = 0;
  for (int shift = 0; shift < 63; shift += 7) {
    PAGEN_CHECK_MSG(pos < buf.size(), "truncated varint stream");
    const std::uint8_t byte = buf[pos++];
    value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return value;
  }
  PAGEN_CHECK_MSG(pos < buf.size(), "truncated varint stream");
  const std::uint8_t last = buf[pos++];  // the 10th byte holds bit 63 only
  PAGEN_CHECK_MSG(last <= 0x01, "overlong varint");
  return value | static_cast<std::uint64_t>(last) << 63;
}

}  // namespace pagen
