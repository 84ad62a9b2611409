// Distributed end-to-end pipeline: generate straight into a compressed
// store, each rank writing its own shard (the paper's independent
// file-writes model), compute degree distribution and connected components
// over the per-shard streams WITHOUT gathering the edges, then reload the
// store centrally and cross-check.
//
//   ./distributed_pipeline --n=500000 --x=4 --ranks=8 --dir=/tmp/pagen_store
#include <filesystem>
#include <iostream>

#include "analysis/degree_dist.h"
#include "core/distributed_cc.h"
#include "core/distributed_degree.h"
#include "core/generate.h"
#include "graph/edge_list.h"
#include "store/graph_view.h"
#include "util/cli.h"
#include "util/table.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace pagen;
  const Cli cli(argc, argv, {"n", "x", "ranks", "seed", "dir", "keep"});
  if (cli.help()) {
    std::cout << cli.usage("distributed_pipeline") << "\n";
    return 0;
  }
  PaConfig cfg;
  cfg.n = cli.get_u64("n", 200000);
  cfg.x = cli.get_u64("x", 4);
  cfg.seed = cli.get_u64("seed", 77);
  core::ParallelOptions opt;
  opt.ranks = static_cast<int>(cli.get_u64("ranks", 8));
  opt.gather_edges = false;
  opt.store_dir = cli.get_str(
      "dir",
      (std::filesystem::temp_directory_path() / "pagen_pipeline_store")
          .string());
  const std::string& dir = opt.store_dir;

  // 1. Generate; each rank streams its edges into its own store shard.
  Timer timer;
  const auto result = core::generate(cfg, opt);
  std::cout << "1. generated " << fmt_count(result.total_edges)
            << " edges into " << opt.ranks << " shards of compressed store "
            << dir << " (" << fmt_count(result.store_bytes) << " bytes) in "
            << fmt_f(timer.seconds(), 2) << " s\n";

  // 2. Distributed analytics over the per-shard streams.
  timer.restart();
  const store::ShardedGraphView view(dir);
  const auto hist =
      core::distributed_degree_distribution(view.edge_source(), opt.scheme);
  const auto cc =
      core::distributed_connected_components(view.edge_source(), opt.scheme);
  std::cout << "2. distributed analytics in " << fmt_f(timer.seconds(), 2)
            << " s: " << hist.size() << " distinct degrees, "
            << cc.components << " component(s) in " << cc.rounds
            << " label rounds\n";

  // 3. Reload the store centrally and cross-check.
  timer.restart();
  const auto reloaded = view.load_all();
  const auto deg = graph::degree_sequence(reloaded, cfg.n);
  const auto central = analysis::degree_distribution(deg);
  bool match = central.size() == hist.size();
  for (std::size_t i = 0; match && i < central.size(); ++i) {
    match = central[i].degree == hist[i].first &&
            central[i].count == hist[i].second;
  }
  std::cout << "3. reloaded " << fmt_count(reloaded.size())
            << " edges and cross-checked in " << fmt_f(timer.seconds(), 2)
            << " s: distributed histogram "
            << (match ? "MATCHES" : "DIFFERS FROM")
            << " the centralized one\n";

  if (!cli.get_bool("keep", false)) {
    std::filesystem::remove_all(dir);
    std::cout << "   (store removed; pass --keep to retain it)\n";
  }
  return match ? 0 : 1;
}
