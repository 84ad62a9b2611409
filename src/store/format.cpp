#include "store/format.h"

#include <cstring>

#include "util/error.h"
#include "util/varint.h"

namespace pagen::store {
namespace {

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xffU));
  }
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xffU));
  }
}

std::uint64_t get_u64(std::span<const std::uint8_t> bytes, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(bytes[at + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  return v;
}

std::uint32_t get_u32(std::span<const std::uint8_t> bytes, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(bytes[at + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  return v;
}

}  // namespace

BlockHeader encode_block(std::span<const graph::Edge> edges,
                         std::vector<std::uint8_t>& payload) {
  PAGEN_CHECK_MSG(!edges.empty(), "cannot encode an empty block");
  PAGEN_CHECK_MSG(edges.size() <= kMaxBlockEdges,
                  "block of " << edges.size() << " edges exceeds the "
                              << kMaxBlockEdges << " cap");
  payload.clear();
  BlockHeader header;
  header.first_u = edges[0].u;
  header.first_v = edges[0].v;
  NodeId prev_u = edges[0].u;
  NodeId prev_v = edges[0].v;
  for (std::size_t i = 1; i < edges.size(); ++i) {
    const graph::Edge& e = edges[i];
    const auto du = static_cast<std::int64_t>(e.u - prev_u);
    put_varint(payload, zigzag_encode(du));
    if (du == 0) {
      put_varint(payload,
                 zigzag_encode(static_cast<std::int64_t>(e.v - prev_v)));
    } else {
      put_varint(payload, e.v);
    }
    prev_u = e.u;
    prev_v = e.v;
  }
  header.edge_count = static_cast<std::uint32_t>(edges.size());
  header.payload_bytes = static_cast<std::uint32_t>(payload.size());
  header.payload_checksum = fnv1a(payload);
  return header;
}

void decode_block(const BlockHeader& header,
                  std::span<const std::uint8_t> payload, graph::EdgeList& out) {
  PAGEN_CHECK_MSG(payload.size() == header.payload_bytes,
                  "block payload is " << payload.size() << " bytes, header "
                                      << "claims " << header.payload_bytes);
  PAGEN_CHECK_MSG(fnv1a(payload) == header.payload_checksum,
                  "block payload checksum mismatch");
  out.push_back({header.first_u, header.first_v});
  NodeId prev_u = header.first_u;
  NodeId prev_v = header.first_v;
  std::size_t pos = 0;
  for (std::uint32_t i = 1; i < header.edge_count; ++i) {
    const std::int64_t du = zigzag_decode(get_varint(payload, pos));
    const NodeId u = prev_u + static_cast<NodeId>(du);
    const NodeId v =
        du == 0
            ? prev_v + static_cast<NodeId>(
                           zigzag_decode(get_varint(payload, pos)))
            : static_cast<NodeId>(get_varint(payload, pos));
    out.push_back({u, v});
    prev_u = u;
    prev_v = v;
  }
  PAGEN_CHECK_MSG(pos == payload.size(),
                  "trailing bytes in block payload (edge count too small "
                  "for the encoded stream)");
}

void put_block_header(std::vector<std::uint8_t>& out, BlockHeader header) {
  const std::size_t start = out.size();
  put_u64(out, header.first_u);
  put_u64(out, header.first_v);
  put_u32(out, header.edge_count);
  put_u32(out, header.payload_bytes);
  put_u64(out, header.payload_checksum);
  const std::uint64_t sum =
      fnv1a(std::span(out).subspan(start, kBlockHeaderBytes - 8),
            kHeaderChecksumSeed);
  put_u64(out, sum);
}

BlockHeader get_block_header(std::span<const std::uint8_t> bytes,
                             std::uint32_t max_block_edges) {
  PAGEN_CHECK_MSG(bytes.size() == kBlockHeaderBytes,
                  "short read of a block header");
  BlockHeader header;
  header.first_u = get_u64(bytes, 0);
  header.first_v = get_u64(bytes, 8);
  header.edge_count = get_u32(bytes, 16);
  header.payload_bytes = get_u32(bytes, 20);
  header.payload_checksum = get_u64(bytes, 24);
  header.header_checksum = get_u64(bytes, 32);
  PAGEN_CHECK_MSG(
      fnv1a(bytes.first(kBlockHeaderBytes - 8), kHeaderChecksumSeed) ==
          header.header_checksum,
      "block header checksum mismatch");
  PAGEN_CHECK_MSG(header.edge_count >= 1, "block header claims zero edges");
  PAGEN_CHECK_MSG(header.edge_count <= max_block_edges &&
                      header.edge_count <= kMaxBlockEdges,
                  "overlong edge count " << header.edge_count
                                         << " in block header (cap "
                                         << max_block_edges << ")");
  PAGEN_CHECK_MSG(
      header.payload_bytes <= header.edge_count * kMaxBytesPerEdge,
      "block header payload size " << header.payload_bytes
                                   << " exceeds the varint bound for "
                                   << header.edge_count << " edges");
  return header;
}

void put_trailer(std::vector<std::uint8_t>& out, const ShardTrailer& trailer) {
  const std::size_t start = out.size();
  out.insert(out.end(), kTrailerMagic, kTrailerMagic + sizeof(kTrailerMagic));
  put_u64(out, trailer.num_blocks);
  put_u64(out, trailer.num_edges);
  put_u64(out, trailer.header_chain);
  const std::uint64_t sum =
      fnv1a(std::span(out).subspan(start, kTrailerBytes - 8),
            kTrailerChecksumSeed);
  put_u64(out, sum);
}

ShardTrailer get_trailer(std::span<const std::uint8_t> bytes) {
  PAGEN_CHECK_MSG(bytes.size() == kTrailerBytes, "short read of a trailer");
  PAGEN_CHECK_MSG(is_trailer(bytes), "bad shard trailer magic");
  PAGEN_CHECK_MSG(fnv1a(bytes.first(kTrailerBytes - 8),
                        kTrailerChecksumSeed) == get_u64(bytes, 32),
                  "shard trailer checksum mismatch");
  ShardTrailer trailer;
  trailer.num_blocks = get_u64(bytes, 8);
  trailer.num_edges = get_u64(bytes, 16);
  trailer.header_chain = get_u64(bytes, 24);
  return trailer;
}

bool is_trailer(std::span<const std::uint8_t> bytes) {
  return bytes.size() >= sizeof(kTrailerMagic) &&
         std::memcmp(bytes.data(), kTrailerMagic, sizeof(kTrailerMagic)) == 0;
}

}  // namespace pagen::store
