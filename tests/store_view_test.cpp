// ShardedGraphView tests (docs/storage.md §3-4): a generation run taps its
// edge stream into the compressed store, and the re-opened view must feed
// every distributed kernel the exact same graph the run produced in memory
// — plus the constructor's budget check and the merged single-stream source.
#include "store/graph_view.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/distributed_bfs.h"
#include "core/distributed_cc.h"
#include "core/distributed_degree.h"
#include "core/distributed_triangles.h"
#include "core/generate.h"
#include "util/error.h"

namespace pagen::store {
namespace {

graph::EdgeList normalized(graph::EdgeList edges) {
  graph::normalize(edges);
  return edges;
}

class StoreViewTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("pagen_store_view_" + std::to_string(counter_++)))
               .string();

    cfg_.n = 600;
    cfg_.x = 4;
    cfg_.seed = 17;
    opt_.ranks = 3;
    opt_.scheme = partition::Scheme::kRrp;
    opt_.gather_edges = true;
    opt_.keep_shards = true;
    opt_.store_dir = dir_;
    opt_.store_block_edges = 128;  // many blocks at this scale
    result_ = core::generate(cfg_, opt_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  PaConfig cfg_;
  core::ParallelOptions opt_;
  core::ParallelResult result_;
  static int counter_;
};
int StoreViewTest::counter_ = 0;

TEST_F(StoreViewTest, ManifestMatchesGenerationRun) {
  const ShardedGraphView view(dir_);
  EXPECT_EQ(view.manifest().num_nodes, cfg_.n);
  EXPECT_EQ(view.manifest().num_shards, opt_.ranks);
  EXPECT_EQ(view.manifest().block_edges, opt_.store_block_edges);
  EXPECT_EQ(view.manifest().total_edges(), result_.total_edges);
  EXPECT_EQ(view.manifest().total_bytes(), result_.store_bytes);
}

TEST_F(StoreViewTest, ShardsRoundTripTheGeneratedEdges) {
  const ShardedGraphView view(dir_);
  graph::EdgeList reloaded;
  for (int r = 0; r < opt_.ranks; ++r) {
    const graph::EdgeList shard = view.load_shard(r);
    EXPECT_EQ(normalized(shard),
              normalized(result_.shards[static_cast<std::size_t>(r)]))
        << "shard " << r << " must hold exactly rank " << r << "'s edges";
    reloaded.insert(reloaded.end(), shard.begin(), shard.end());
  }
  EXPECT_EQ(normalized(reloaded), normalized(result_.edges));
  EXPECT_EQ(view.load_all(), reloaded) << "load_all concatenates rank order";
}

TEST_F(StoreViewTest, ManifestVersionAndShardCountsChecked) {
  // A manifest whose per-shard count disagrees with the shard is caught
  // when the shard streams, even though every block checksum holds.
  StoreManifest lying = load_manifest(dir_);
  ++lying.shards[1].edges;
  write_manifest(dir_, lying);
  const ShardedGraphView view(dir_);
  EXPECT_NO_THROW((void)view.load_shard(0));
  EXPECT_THROW((void)view.load_shard(1), CheckError);

  // Any other manifest version is rejected at open.
  std::string text;
  {
    std::ifstream is(manifest_path(dir_));
    text.assign(std::istreambuf_iterator<char>(is), {});
  }
  ASSERT_EQ(text.rfind("pagen-store 3\n", 0), 0u);
  {
    std::ofstream os(manifest_path(dir_), std::ios::trunc);
    os << "pagen-store 99\n" << text.substr(text.find('\n') + 1);
  }
  EXPECT_THROW(ShardedGraphView{dir_}, CheckError);
}

TEST_F(StoreViewTest, KernelsMatchInMemoryShardsExactly) {
  // The four distributed kernels consume the store through its EdgeSource
  // and must produce results identical to the in-memory shard overloads.
  const ShardedGraphView view(dir_);
  const graph::EdgeSource source = view.edge_source();

  EXPECT_EQ(core::distributed_degree_distribution(source,
                                                  partition::Scheme::kRrp),
            core::distributed_degree_distribution(result_.shards, cfg_.n,
                                                  partition::Scheme::kRrp));

  const auto bfs_store =
      core::distributed_bfs(source, partition::Scheme::kRrp, /*source=*/0);
  const auto bfs_mem = core::distributed_bfs(result_.shards, cfg_.n,
                                             partition::Scheme::kRrp, 0);
  EXPECT_EQ(bfs_store.distances, bfs_mem.distances);
  EXPECT_EQ(bfs_store.levels, bfs_mem.levels);
  EXPECT_EQ(bfs_store.visited, bfs_mem.visited);

  const auto cc_store = core::distributed_connected_components(
      source, partition::Scheme::kRrp);
  const auto cc_mem = core::distributed_connected_components(
      result_.shards, cfg_.n, partition::Scheme::kRrp);
  EXPECT_EQ(cc_store.components, cc_mem.components);

  const auto tri_store =
      core::distributed_triangle_count(source, partition::Scheme::kRrp);
  const auto tri_mem = core::distributed_triangle_count(
      result_.shards, cfg_.n, partition::Scheme::kRrp);
  EXPECT_EQ(tri_store.triangles, tri_mem.triangles);
}

TEST_F(StoreViewTest, InMemoryEdgeSourceOverloadMatchesVectorOverload) {
  // The vector overloads now delegate through make_edge_source; the
  // wrapper itself must be transparent.
  const graph::EdgeSource source = graph::make_edge_source(cfg_.n,
                                                           result_.shards);
  EXPECT_EQ(core::distributed_degree_distribution(source,
                                                  partition::Scheme::kRrp),
            core::distributed_degree_distribution(result_.shards, cfg_.n,
                                                  partition::Scheme::kRrp));
}

TEST_F(StoreViewTest, MergedSourceRunsSingleRank) {
  const ShardedGraphView view(dir_);
  const graph::EdgeSource merged = view.merged_edge_source();
  EXPECT_EQ(merged.num_shards, 1);
  EXPECT_EQ(core::distributed_degree_distribution(merged,
                                                  partition::Scheme::kRrp),
            core::distributed_degree_distribution(result_.shards, cfg_.n,
                                                  partition::Scheme::kRrp));
}

TEST_F(StoreViewTest, BudgetGuaranteeCheckedAtOpen) {
  // Ample budget opens; a budget that cannot hold one block stream per
  // shard must refuse at construction, not drift over it at runtime.
  const ShardedGraphView ample(dir_, std::uint64_t{64} << 20);
  EXPECT_GT(ample.per_shard_stream_bytes(), 0u);
  EXPECT_LE(static_cast<std::uint64_t>(ample.manifest().num_shards) *
                ample.per_shard_stream_bytes(),
            std::uint64_t{64} << 20);
  EXPECT_THROW(ShardedGraphView(dir_, 1024), CheckError);
  const ShardedGraphView unbudgeted(dir_, 0);  // 0 = no budget
  EXPECT_EQ(unbudgeted.manifest().total_edges(), result_.total_edges);
}

TEST_F(StoreViewTest, SourceOutlivesView) {
  graph::EdgeSource source;
  {
    const ShardedGraphView view(dir_);
    source = view.edge_source();
  }
  Count streamed = 0;
  for (int r = 0; r < opt_.ranks; ++r) {
    source.visit_shard(r, [&streamed](std::span<const graph::Edge> batch) {
      streamed += batch.size();
    });
  }
  EXPECT_EQ(streamed, result_.total_edges);
}

TEST_F(StoreViewTest, MissingManifestRejected) {
  EXPECT_THROW(ShardedGraphView("/nonexistent/pagen/store"), CheckError);
}

}  // namespace
}  // namespace pagen::store
