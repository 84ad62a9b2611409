// External-memory spill tests (docs/storage.md §5): the ExternalArray
// paging primitive, and the commfree engine's guarantee that spilling its
// derivation state to disk is a pure memory optimization — at x > 1 the
// emitted edge set is identical with and without spill (paged completed
// rows) under a budget tiny enough to force heavy eviction; at x = 1 there
// is no state to spill, and the options are accepted and change nothing.
#include "store/ext_array.h"

#include <cstdint>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "baseline/copy_model_seq.h"
#include "core/generate.h"
#include "util/error.h"

namespace pagen::store {
namespace {

class SpillTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("pagen_spill_" + std::to_string(counter_++)))
               .string();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  static int counter_;
};
int SpillTest::counter_ = 0;

TEST_F(SpillTest, FillValueReadsWithoutWrites) {
  ExternalArray<std::uint64_t> a(dir_ + "/a.spill", 100000, 42,
                                 /*budget_bytes=*/1 << 20);
  EXPECT_EQ(a.size(), 100000u);
  EXPECT_EQ(a.get(0), 42u);
  EXPECT_EQ(a.get(99999), 42u);
}

TEST_F(SpillTest, ValuesSurviveEvictionUnderOnePageBudget) {
  // budget < one page => max_pages clamps to 1: every page switch evicts.
  ExternalArray<std::uint64_t> a(dir_ + "/a.spill", 1 << 16, 0,
                                 /*budget_bytes=*/1);
  EXPECT_EQ(a.cached_pages(), 0u);
  for (std::uint64_t i = 0; i < a.size(); i += 997) {
    a.set(i, i * 3 + 1);
  }
  for (std::uint64_t i = 0; i < a.size(); i += 997) {
    EXPECT_EQ(a.get(i), i * 3 + 1);
  }
  // Untouched slots still read the fill value after all that paging.
  EXPECT_EQ(a.get(998), 0u);
  EXPECT_GT(a.page_faults(), 0u);
  EXPECT_GT(a.pages_spilled(), 0u);
  EXPECT_EQ(a.cached_pages(), 1u);
}

TEST_F(SpillTest, SparseIndexSpaceCostsOnlyTouchedPages) {
  // A huge index space with a few touched slots: the cache holds the two
  // touched pages, nothing else is ever materialized.
  ExternalArray<std::uint32_t> a(dir_ + "/sparse.spill",
                                 std::uint64_t{1} << 32, 7,
                                 /*budget_bytes=*/1 << 20);
  a.set(0, 1);
  a.set((std::uint64_t{1} << 32) - 1, 2);
  EXPECT_EQ(a.get(0), 1u);
  EXPECT_EQ(a.get((std::uint64_t{1} << 32) - 1), 2u);
  EXPECT_EQ(a.get(std::uint64_t{1} << 31), 7u);
  EXPECT_LE(a.cached_pages(), 3u);
}

TEST_F(SpillTest, OutOfRangeIndexRejected) {
  ExternalArray<std::uint32_t> a(dir_ + "/r.spill", 10, 0, 1 << 16);
  EXPECT_THROW((void)a.get(10), CheckError);
  EXPECT_THROW(a.set(10, 1), CheckError);
}

graph::EdgeList normalized(graph::EdgeList edges) {
  graph::normalize(edges);
  return edges;
}

core::ParallelOptions commfree_options(int ranks) {
  core::ParallelOptions opt;
  opt.engine = "commfree";
  opt.ranks = ranks;
  opt.gather_edges = true;
  return opt;
}

TEST_F(SpillTest, CommfreeWalkMatchesCopyModelAtXOneWithSpillAccepted) {
  // x = 1 keeps no derivation state, so spill_dir / spill_budget_bytes are
  // accepted and change nothing: the chain walk reproduces the sequential
  // copy model exactly, and no spill file is written.
  PaConfig cfg;
  cfg.n = 4000;
  cfg.x = 1;
  cfg.seed = 23;
  const auto oracle = baseline::copy_model_targets(cfg);
  const auto oracle_edges = normalized(baseline::copy_model_x1(cfg));

  for (int ranks : {1, 3}) {
    core::ParallelOptions opt = commfree_options(ranks);
    opt.spill_dir = dir_;
    opt.spill_budget_bytes = 1;  // one cached page, were there state to page
    const auto result = core::generate(cfg, opt);
    EXPECT_EQ(result.targets, oracle) << "ranks " << ranks;
    EXPECT_EQ(normalized(result.edges), oracle_edges) << "ranks " << ranks;
  }
  EXPECT_TRUE(std::filesystem::is_empty(dir_));
}

TEST_F(SpillTest, CommfreeSpillIsOutputIdenticalAtXFour) {
  PaConfig cfg;
  cfg.n = 1500;
  cfg.x = 4;
  cfg.seed = 29;
  const auto baseline = core::generate(cfg, commfree_options(3));

  core::ParallelOptions spilled = commfree_options(3);
  spilled.spill_dir = dir_;
  spilled.spill_budget_bytes = 1;  // one cached page: maximal eviction
  const auto with_spill = core::generate(cfg, spilled);

  EXPECT_EQ(normalized(with_spill.edges), normalized(baseline.edges));
  // Spill files are per rank and must actually exist.
  int spill_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    spill_files += entry.path().extension() == ".spill" ? 1 : 0;
  }
  EXPECT_EQ(spill_files, 3);
}

TEST_F(SpillTest, SpillRejectedOnEnginesWithoutTheCapability) {
  PaConfig cfg;
  cfg.n = 200;
  cfg.x = 1;
  core::ParallelOptions opt;
  opt.engine = "mps";
  opt.ranks = 2;
  opt.spill_dir = dir_;
  EXPECT_THROW((void)core::generate(cfg, opt), CheckError)
      << "only engines advertising state_spill may take spill_dir";
}

}  // namespace
}  // namespace pagen::store
