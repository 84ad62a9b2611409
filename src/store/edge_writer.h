// Streaming writers of the compressed edge store (docs/storage.md).
//
// CompressedEdgeWriter turns an append stream of edges into one compressed
// shard file: edges buffer until a block fills, the block is delta+varint
// encoded (store/format.h), and the header+payload bytes go straight to
// disk — memory held is one block, regardless of how many billions of
// edges pass through. finish() seals the file with the trailer and returns
// the shard's summary (counts, bytes, whole-file FNV-1a, computed
// incrementally while writing, so sealing never re-reads the file).
//
// StoreWriter fans a multi-rank generation run into one writer per rank —
// the drop-in consumer for ParallelOptions::edge_batch_sink, where each
// rank thread appends only to its own slot (no locking, matching the
// paper's "processors write their files independently" model) — and
// finalizes the directory with the v3 manifest.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/edge_list.h"
#include "store/format.h"
#include "util/types.h"

namespace pagen::store {

/// Per-shard outcome recorded in the manifest.
struct ShardSummary {
  Count edges = 0;
  Count blocks = 0;
  std::uint64_t bytes = 0;          ///< file size, magic through trailer
  std::uint64_t file_checksum = 0;  ///< FNV-1a over the whole file
};

/// The v3 store manifest (file `store.manifest`).
struct StoreManifest {
  NodeId num_nodes = 0;
  int num_shards = 0;
  std::size_t block_edges = kDefaultBlockEdges;
  std::vector<ShardSummary> shards;

  [[nodiscard]] Count total_edges() const {
    Count total = 0;
    for (const ShardSummary& s : shards) total += s.edges;
    return total;
  }
  [[nodiscard]] std::uint64_t total_bytes() const {
    std::uint64_t total = 0;
    for (const ShardSummary& s : shards) total += s.bytes;
    return total;
  }
};

/// Path of compressed shard `rank` inside `dir` (edges.<rank>.pcs).
[[nodiscard]] std::string shard_path(const std::string& dir, int rank);

/// Path of the v3 manifest inside `dir`.
[[nodiscard]] std::string manifest_path(const std::string& dir);

/// Write the manifest atomically (temp + rename).
void write_manifest(const std::string& dir, const StoreManifest& manifest);

/// Read and strictly parse the manifest; throws CheckError when absent or
/// malformed.
[[nodiscard]] StoreManifest load_manifest(const std::string& dir);

/// Streaming FNV-1a of a file's raw bytes in fixed-size chunks (never loads
/// the file); false when it cannot be opened.
[[nodiscard]] bool streaming_file_fnv1a(const std::string& path,
                                        std::uint64_t& out);

class CompressedEdgeWriter {
 public:
  /// Opens (truncates) `path` and writes the shard magic. `block_edges`
  /// must be in [1, kMaxBlockEdges].
  explicit CompressedEdgeWriter(const std::string& path,
                                std::size_t block_edges = kDefaultBlockEdges);

  CompressedEdgeWriter(const CompressedEdgeWriter&) = delete;
  CompressedEdgeWriter& operator=(const CompressedEdgeWriter&) = delete;

  void append(const graph::Edge& edge);
  void append(std::span<const graph::Edge> edges);

  /// Flush the partial block, write the trailer, close, and return the
  /// summary. Must be called exactly once; append after finish throws.
  ShardSummary finish();

  /// Edges appended so far, including those still buffered in the open
  /// block.
  [[nodiscard]] Count edges_written() const {
    return edges_ + pending_.size();
  }

 private:
  void flush_block();
  void write_bytes(const std::vector<std::uint8_t>& bytes);

  std::ofstream os_;
  std::string path_;
  std::size_t block_edges_;
  graph::EdgeList pending_;
  std::vector<std::uint8_t> payload_;  // encode scratch
  std::vector<std::uint8_t> buf_;      // serialized header/trailer scratch
  std::uint64_t file_fnv_ = kFnvOffset;
  std::uint64_t header_chain_ = kFnvOffset;
  Count edges_ = 0;
  Count blocks_ = 0;
  std::uint64_t bytes_ = 0;
  bool finished_ = false;
};

class StoreWriter {
 public:
  /// Creates `dir` (and parents) and opens one truncating shard writer per
  /// rank, so a retried run replaces any earlier partial store.
  StoreWriter(const std::string& dir, int num_shards,
              std::size_t block_edges = kDefaultBlockEdges);

  /// Append a batch to rank `r`'s shard. Thread-safe for distinct ranks
  /// (each rank owns its writer); matches the edge_batch_sink contract.
  void append(Rank r, std::span<const graph::Edge> edges);

  /// Seal every shard and write the manifest. Returns the manifest.
  StoreManifest finish(NodeId num_nodes);

 private:
  std::string dir_;
  std::size_t block_edges_;
  std::vector<std::unique_ptr<CompressedEdgeWriter>> writers_;
};

}  // namespace pagen::store
