// The compressed edge-store block format (docs/storage.md).
//
// A compressed shard is a sequence of self-describing, individually
// checksummed blocks, so a reader can stream a billion-edge shard holding
// only one decoded block in memory, seek by skipping headers, and detect
// any on-disk corruption before a single damaged edge escapes:
//
//   [8-byte shard magic "PAGENCS1"]
//   repeat: [40-byte BlockHeader][payload: delta+varint edges]
//   [40-byte ShardTrailer "PAGENCT1" + counts + header chain]
//
// Encoding: the block's first edge lives verbatim in the header; every
// following edge stores zigzag-varint delta(u) and, when u repeats, zigzag
// delta(v), else v as a plain varint. PA emission order is near-sorted in u
// (each node emits its x edges consecutively), so delta(u) is almost always
// 0 or 1 — one byte — and the stream lands well under 8 bytes/edge at any
// scale. The scheme is delta-robust: any emission order round-trips, sorted
// order merely compresses best.
//
// Integrity: the header carries an FNV-1a checksum of the payload AND of
// its own first 32 bytes (domain-separated from the trailer checksum, so a
// trailer can never masquerade as a header; hash and seeds: util/hash.h).
// The trailer chains every block's header checksum, which pins block
// count, order, and content of the whole shard. decode bounds-checks
// edge_count/payload_bytes *before* allocating, so a forged header raises
// instead of driving a giant read.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/edge_list.h"
#include "util/hash.h"
#include "util/types.h"

namespace pagen::store {

inline constexpr char kShardMagic[8] = {'P', 'A', 'G', 'E', 'N', 'C', 'S', '1'};
inline constexpr char kTrailerMagic[8] = {'P', 'A', 'G', 'E',
                                          'N', 'C', 'T', '1'};

inline constexpr std::size_t kBlockHeaderBytes = 40;
inline constexpr std::size_t kTrailerBytes = 40;

/// Default edges per block: ~64 Ki edges decode to 1 MiB, the unit of
/// memory a streaming reader holds per shard.
inline constexpr std::size_t kDefaultBlockEdges = std::size_t{1} << 16;

/// Hard cap a reader enforces on any header's edge_count — a forged count
/// beyond this raises before any allocation.
inline constexpr std::uint32_t kMaxBlockEdges = 1U << 24;

/// Absolute worst-case payload bytes per edge (two 10-byte varints); the
/// reader's bound on payload_bytes relative to edge_count.
inline constexpr std::size_t kMaxBytesPerEdge = 20;

struct BlockHeader {
  NodeId first_u = 0;  ///< the block's first edge, stored verbatim
  NodeId first_v = 0;
  std::uint32_t edge_count = 0;     ///< edges in the block (>= 1)
  std::uint32_t payload_bytes = 0;  ///< encoded bytes following the header
  std::uint64_t payload_checksum = 0;  ///< FNV-1a of the payload
  std::uint64_t header_checksum = 0;   ///< FNV-1a of the 32 bytes above
};

struct ShardTrailer {
  Count num_blocks = 0;
  Count num_edges = 0;
  /// FNV-1a chain over every block's header_checksum, in file order.
  std::uint64_t header_chain = kFnvOffset;
};

[[nodiscard]] constexpr std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] constexpr std::int64_t zigzag_decode(std::uint64_t z) {
  return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

/// Delta+varint-encode `edges` (>= 1, <= kMaxBlockEdges) into `payload`
/// (cleared first) and return the describing header with both checksums
/// filled in.
[[nodiscard]] BlockHeader encode_block(std::span<const graph::Edge> edges,
                                       std::vector<std::uint8_t>& payload);

/// Decode a block whose header already passed get_block_header. Verifies
/// payload size and checksum, decodes exactly edge_count edges, and appends
/// them to `out`; throws CheckError on any mismatch, truncation, or
/// trailing bytes — garbage never decodes.
void decode_block(const BlockHeader& header,
                  std::span<const std::uint8_t> payload, graph::EdgeList& out);

/// Append the 40-byte serialization of `header` to `out`, computing
/// header_checksum over the first 32 bytes (the input's value is ignored).
void put_block_header(std::vector<std::uint8_t>& out, BlockHeader header);

/// Parse and verify 40 header bytes. Throws CheckError when the checksum
/// fails, edge_count is 0 or exceeds `max_block_edges`, or payload_bytes
/// exceeds edge_count * kMaxBytesPerEdge.
[[nodiscard]] BlockHeader get_block_header(std::span<const std::uint8_t> bytes,
                                           std::uint32_t max_block_edges);

/// Append the 40-byte trailer (magic + counts + chain + checksum).
void put_trailer(std::vector<std::uint8_t>& out, const ShardTrailer& trailer);

/// Parse and verify 40 trailer bytes (magic already matched by the caller).
/// Throws CheckError on a checksum mismatch.
[[nodiscard]] ShardTrailer get_trailer(std::span<const std::uint8_t> bytes);

/// True when `bytes` (>= 8) starts with the trailer magic.
[[nodiscard]] bool is_trailer(std::span<const std::uint8_t> bytes);

}  // namespace pagen::store
