// ShardedGraphView: a compressed store re-opened as a streamable graph.
//
// The view loads only the manifest; edges stay on disk until a kernel
// pulls them through an EdgeSource, one decoded block per active shard
// stream. The constructor's memory budget is a *guarantee check*: the view
// computes the worst-case working set of streaming all shards concurrently
// (what the distributed kernels do — one rank thread per shard) and
// refuses to open when it would not fit, instead of drifting over the
// budget at runtime. docs/storage.md §4 spells out the accounting.
#pragma once

#include <cstdint>
#include <string>

#include "graph/edge_list.h"
#include "graph/edge_source.h"
#include "store/edge_writer.h"
#include "util/types.h"

namespace pagen::store {

class ShardedGraphView {
 public:
  /// Opens `dir`'s manifest. `memory_budget_bytes` bounds the decoded +
  /// compressed working set of streaming every shard concurrently; 0 means
  /// unbudgeted. Throws CheckError when the manifest is missing/malformed
  /// or the budget cannot hold one block per shard.
  explicit ShardedGraphView(std::string dir,
                            std::uint64_t memory_budget_bytes = 0);

  [[nodiscard]] const StoreManifest& manifest() const { return manifest_; }

  /// Worst-case bytes one shard stream holds (one decoded block + one
  /// compressed block at the varint bound, plus I/O slack).
  [[nodiscard]] std::uint64_t per_shard_stream_bytes() const;

  /// The store as a kernel-ready source: num_shards streams, each decoding
  /// its shard block by block and verifying every checksum plus the
  /// manifest's edge count. Safe for concurrent distinct-shard visits
  /// (every visit opens its own reader). The source owns copies of what it
  /// needs and stays valid after the view is destroyed.
  [[nodiscard]] graph::EdgeSource edge_source() const;

  /// The store as a single merged stream (shard 0..P-1 in rank order) —
  /// num_shards == 1, so a kernel consumes it on one rank with zero
  /// message traffic. Same verification and budget profile as one shard
  /// stream.
  [[nodiscard]] graph::EdgeSource merged_edge_source() const;

  /// Decode one whole shard (tests / small stores; ignores the budget).
  [[nodiscard]] graph::EdgeList load_shard(int rank) const;

  /// Decode every shard, concatenated in rank order — the gather order of
  /// the run that wrote the store (small stores; ignores the budget).
  [[nodiscard]] graph::EdgeList load_all() const;

 private:
  std::string dir_;
  std::uint64_t budget_;
  StoreManifest manifest_;
};

}  // namespace pagen::store
