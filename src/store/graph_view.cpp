#include "store/graph_view.h"

#include <utility>

#include "store/shard_reader.h"
#include "util/error.h"

namespace pagen::store {
namespace {

/// One shard stream, verified against the manifest's per-shard count.
void stream_shard(const std::string& dir, const StoreManifest& manifest,
                  int shard, const graph::EdgeVisitor& visit) {
  EdgeShardReader reader(
      shard_path(dir, shard),
      static_cast<std::uint32_t>(manifest.block_edges));
  const ShardTrailer trailer = reader.visit(visit);
  PAGEN_CHECK_MSG(
      trailer.num_edges ==
          manifest.shards[static_cast<std::size_t>(shard)].edges,
      "shard " << shard << " edge count disagrees with the manifest");
}

}  // namespace

ShardedGraphView::ShardedGraphView(std::string dir,
                                   std::uint64_t memory_budget_bytes)
    : dir_(std::move(dir)),
      budget_(memory_budget_bytes),
      manifest_(load_manifest(dir_)) {
  if (budget_ > 0) {
    const std::uint64_t working_set =
        static_cast<std::uint64_t>(manifest_.num_shards) *
        per_shard_stream_bytes();
    PAGEN_CHECK_MSG(
        working_set <= budget_,
        "memory budget " << budget_ << " cannot hold one block per shard ("
                         << working_set
                         << " bytes for " << manifest_.num_shards
                         << " shards of " << manifest_.block_edges
                         << "-edge blocks); raise the budget or rebuild the "
                            "store with smaller blocks");
  }
}

std::uint64_t ShardedGraphView::per_shard_stream_bytes() const {
  const auto block = static_cast<std::uint64_t>(manifest_.block_edges);
  return block * sizeof(graph::Edge) + block * kMaxBytesPerEdge + 4096;
}

graph::EdgeSource ShardedGraphView::edge_source() const {
  graph::EdgeSource source;
  source.num_nodes = manifest_.num_nodes;
  source.num_shards = manifest_.num_shards;
  source.visit_shard = [dir = dir_, manifest = manifest_](
                           int shard, const graph::EdgeVisitor& visit) {
    stream_shard(dir, manifest, shard, visit);
  };
  return source;
}

graph::EdgeSource ShardedGraphView::merged_edge_source() const {
  graph::EdgeSource source;
  source.num_nodes = manifest_.num_nodes;
  source.num_shards = 1;
  source.visit_shard = [dir = dir_, manifest = manifest_](
                           int shard, const graph::EdgeVisitor& visit) {
    PAGEN_CHECK_MSG(shard == 0, "merged source has exactly one shard");
    for (int r = 0; r < manifest.num_shards; ++r) {
      stream_shard(dir, manifest, r, visit);
    }
  };
  return source;
}

graph::EdgeList ShardedGraphView::load_shard(int rank) const {
  PAGEN_CHECK_MSG(rank >= 0 && rank < manifest_.num_shards,
                  "shard " << rank << " out of range");
  graph::EdgeList all;
  all.reserve(manifest_.shards[static_cast<std::size_t>(rank)].edges);
  stream_shard(dir_, manifest_, rank, [&all](std::span<const graph::Edge> b) {
    all.insert(all.end(), b.begin(), b.end());
  });
  return all;
}

graph::EdgeList ShardedGraphView::load_all() const {
  graph::EdgeList all;
  all.reserve(manifest_.total_edges());
  merged_edge_source().visit_shard(
      0, [&all](std::span<const graph::Edge> b) {
        all.insert(all.end(), b.begin(), b.end());
      });
  return all;
}

}  // namespace pagen::store
