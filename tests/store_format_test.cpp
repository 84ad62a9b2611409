// Unit tests of the compressed edge-store block format (docs/storage.md §1-2):
// zigzag/varint block codec, header/trailer (de)serialization with checksum
// domain separation, the streaming writer/reader round trip, and the v3
// manifest.
#include "store/format.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "rng/xoshiro.h"
#include "store/edge_writer.h"
#include "store/shard_reader.h"
#include "util/error.h"

namespace pagen::store {
namespace {

TEST(StoreFormat, ZigzagRoundTrip) {
  for (const std::int64_t v : {std::int64_t{0}, std::int64_t{1},
                               std::int64_t{-1}, std::int64_t{123456789},
                               std::int64_t{-123456789},
                               std::int64_t{1} << 62, -(std::int64_t{1} << 62)}) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v);
  }
  // Small magnitudes map to small codes (the property varint relies on).
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
}

graph::EdgeList pa_shaped_edges(std::size_t count) {
  // Near-sorted in u with small deltas, like real PA emission order.
  graph::EdgeList edges;
  rng::Xoshiro256pp rng(11);
  NodeId u = 1000;
  for (std::size_t i = 0; i < count; ++i) {
    u += rng() % 2;
    edges.push_back({u, static_cast<NodeId>(rng() % u)});
  }
  return edges;
}

TEST(StoreFormat, BlockRoundTripPaOrder) {
  const graph::EdgeList edges = pa_shaped_edges(5000);
  std::vector<std::uint8_t> payload;
  const BlockHeader header = encode_block(edges, payload);
  EXPECT_EQ(header.edge_count, edges.size());
  EXPECT_EQ(header.first_u, edges.front().u);
  EXPECT_EQ(header.first_v, edges.front().v);
  EXPECT_EQ(header.payload_bytes, payload.size());

  graph::EdgeList decoded;
  decode_block(header, payload, decoded);
  EXPECT_EQ(decoded, edges);
  // The headline claim: PA-shaped streams compress well under 8 bytes/edge.
  EXPECT_LT(static_cast<double>(payload.size()) /
                static_cast<double>(edges.size()),
            8.0);
}

TEST(StoreFormat, BlockRoundTripIsOrderRobust) {
  // The delta scheme must round-trip any emission order, including
  // descending u (negative deltas) and a single-edge block.
  graph::EdgeList reversed = pa_shaped_edges(512);
  std::reverse(reversed.begin(), reversed.end());
  for (const graph::EdgeList& edges :
       {reversed, graph::EdgeList{{7, 3}},
        graph::EdgeList{{5, 1}, {5, 1}, {5, 4}, {2, 0}}}) {
    std::vector<std::uint8_t> payload;
    const BlockHeader header = encode_block(edges, payload);
    graph::EdgeList decoded;
    decode_block(header, payload, decoded);
    EXPECT_EQ(decoded, edges);
  }
}

TEST(StoreFormat, HeaderRoundTripAndChecksum) {
  const graph::EdgeList edges = pa_shaped_edges(64);
  std::vector<std::uint8_t> payload;
  BlockHeader header = encode_block(edges, payload);

  std::vector<std::uint8_t> bytes;
  put_block_header(bytes, header);
  ASSERT_EQ(bytes.size(), kBlockHeaderBytes);
  const BlockHeader parsed = get_block_header(bytes, kMaxBlockEdges);
  EXPECT_EQ(parsed.first_u, header.first_u);
  EXPECT_EQ(parsed.first_v, header.first_v);
  EXPECT_EQ(parsed.edge_count, header.edge_count);
  EXPECT_EQ(parsed.payload_bytes, header.payload_bytes);
  EXPECT_EQ(parsed.payload_checksum, header.payload_checksum);

  // Any single flipped bit in the 40 bytes must fail the checksum.
  for (const std::size_t pos : {std::size_t{0}, std::size_t{17},
                                kBlockHeaderBytes - 1}) {
    std::vector<std::uint8_t> bad = bytes;
    bad[pos] ^= 0x20;
    EXPECT_THROW((void)get_block_header(bad, kMaxBlockEdges), CheckError);
  }
}

TEST(StoreFormat, HeaderBoundsRejectForgedCounts) {
  std::vector<std::uint8_t> bytes;
  BlockHeader zero;
  zero.edge_count = 0;
  put_block_header(bytes, zero);
  EXPECT_THROW((void)get_block_header(bytes, kMaxBlockEdges), CheckError)
      << "edge_count 0 must not parse";

  bytes.clear();
  BlockHeader big;
  big.edge_count = 1000;
  big.payload_bytes = 4;
  put_block_header(bytes, big);
  // Valid checksum, but the count exceeds the caller's (manifest) bound.
  EXPECT_THROW((void)get_block_header(bytes, 512), CheckError);

  bytes.clear();
  BlockHeader fat;
  fat.edge_count = 2;
  fat.payload_bytes = 2 * kMaxBytesPerEdge + 1;
  put_block_header(bytes, fat);
  EXPECT_THROW((void)get_block_header(bytes, kMaxBlockEdges), CheckError)
      << "payload_bytes beyond the worst-case varint bound must not parse";
}

TEST(StoreFormat, PayloadChecksumCatchesFlips) {
  const graph::EdgeList edges = pa_shaped_edges(256);
  std::vector<std::uint8_t> payload;
  const BlockHeader header = encode_block(edges, payload);
  std::vector<std::uint8_t> bad = payload;
  bad[bad.size() / 2] ^= 0x01;
  graph::EdgeList out;
  EXPECT_THROW(decode_block(header, bad, out), CheckError);
  // Truncated and padded payloads are rejected before decoding.
  EXPECT_THROW(
      decode_block(header, std::span(payload).subspan(0, payload.size() - 1),
                   out),
      CheckError);
}

TEST(StoreFormat, TrailerRoundTripAndDomainSeparation) {
  ShardTrailer trailer;
  trailer.num_blocks = 3;
  trailer.num_edges = 123456;
  trailer.header_chain = fnv1a_u64(0xdeadbeef, kFnvOffset);
  std::vector<std::uint8_t> bytes;
  put_trailer(bytes, trailer);
  ASSERT_EQ(bytes.size(), kTrailerBytes);
  EXPECT_TRUE(is_trailer(bytes));

  const ShardTrailer parsed = get_trailer(bytes);
  EXPECT_EQ(parsed.num_blocks, trailer.num_blocks);
  EXPECT_EQ(parsed.num_edges, trailer.num_edges);
  EXPECT_EQ(parsed.header_chain, trailer.header_chain);

  // Domain separation: 40 valid trailer bytes must never parse as a block
  // header, and a header must never look like a trailer.
  EXPECT_THROW((void)get_block_header(bytes, kMaxBlockEdges), CheckError);
  std::vector<std::uint8_t> head_bytes;
  BlockHeader header;
  header.edge_count = 1;
  header.payload_bytes = 2;
  put_block_header(head_bytes, header);
  EXPECT_FALSE(is_trailer(head_bytes));

  std::vector<std::uint8_t> bad = bytes;
  bad[kTrailerBytes - 1] ^= 0x80;
  EXPECT_THROW((void)get_trailer(bad), CheckError);
}

class StoreWriterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("pagen_store_fmt_" + std::to_string(counter_++)))
               .string();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  static int counter_;
};
int StoreWriterTest::counter_ = 0;

TEST_F(StoreWriterTest, WriterReaderRoundTripAcrossBlocks) {
  const graph::EdgeList edges = pa_shaped_edges(10000);
  const std::string path = dir_ + "/shard.pcs";
  CompressedEdgeWriter writer(path, /*block_edges=*/1024);
  // Mixed single/batch appends, leaving a partial final block.
  writer.append(edges[0]);
  writer.append(std::span(edges).subspan(1));
  EXPECT_EQ(writer.edges_written(), edges.size());
  const ShardSummary summary = writer.finish();
  EXPECT_EQ(summary.edges, edges.size());
  EXPECT_EQ(summary.blocks, (edges.size() + 1023) / 1024);
  EXPECT_EQ(summary.bytes, std::filesystem::file_size(path));
  EXPECT_LT(static_cast<double>(summary.bytes) /
                static_cast<double>(edges.size()),
            8.0);

  // The incrementally computed checksum equals a from-scratch file pass.
  std::uint64_t fnv = 0;
  ASSERT_TRUE(streaming_file_fnv1a(path, fnv));
  EXPECT_EQ(fnv, summary.file_checksum);

  EdgeShardReader reader(path, /*max_block_edges=*/1024);
  EXPECT_EQ(reader.read_all(), edges);
}

TEST_F(StoreWriterTest, EmptyShardRoundTrips) {
  const std::string path = dir_ + "/empty.pcs";
  CompressedEdgeWriter writer(path);
  const ShardSummary summary = writer.finish();
  EXPECT_EQ(summary.edges, 0u);
  EXPECT_EQ(summary.blocks, 0u);
  EdgeShardReader reader(path);
  EXPECT_TRUE(reader.read_all().empty());
}

TEST_F(StoreWriterTest, AppendAfterFinishThrows) {
  CompressedEdgeWriter writer(dir_ + "/s.pcs");
  writer.append({1, 0});
  (void)writer.finish();
  EXPECT_THROW(writer.append({2, 0}), CheckError);
}

TEST_F(StoreWriterTest, StoreWriterManifestRoundTrip) {
  StoreWriter writer(dir_ + "/store", 3, /*block_edges=*/256);
  const graph::EdgeList edges = pa_shaped_edges(900);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    writer.append(static_cast<Rank>(i % 3), std::span(&edges[i], 1));
  }
  const StoreManifest manifest = writer.finish(/*num_nodes=*/2000);

  EXPECT_TRUE(std::filesystem::exists(manifest_path(dir_ + "/store")));
  const StoreManifest loaded = load_manifest(dir_ + "/store");
  EXPECT_EQ(loaded.num_nodes, 2000u);
  EXPECT_EQ(loaded.num_shards, 3);
  EXPECT_EQ(loaded.block_edges, 256u);
  EXPECT_EQ(loaded.total_edges(), edges.size());
  EXPECT_EQ(loaded.total_bytes(), manifest.total_bytes());
  ASSERT_EQ(loaded.shards.size(), 3u);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(loaded.shards[static_cast<std::size_t>(r)].file_checksum,
              manifest.shards[static_cast<std::size_t>(r)].file_checksum);
    EdgeShardReader reader(shard_path(dir_ + "/store", r), 256);
    EXPECT_EQ(reader.read_all().size(),
              loaded.shards[static_cast<std::size_t>(r)].edges);
  }
}

TEST_F(StoreWriterTest, ManifestMissingOrForeignDirRejected) {
  EXPECT_FALSE(std::filesystem::exists(manifest_path(dir_)));
  EXPECT_THROW((void)load_manifest(dir_), CheckError);
}

}  // namespace
}  // namespace pagen::store
