// Model comparison pipeline: preferential attachment vs. Erdős–Rényi.
//
// The introduction's point in one program: ER graphs do not exhibit the
// heavy-tailed structure of real complex networks, PA graphs do. Generates
// both at matched size/density, persists them as compressed stores
// (src/store/), reloads, and contrasts their structure.
#include <algorithm>
#include <filesystem>
#include <iostream>

#include "analysis/degree_dist.h"
#include "analysis/powerlaw_fit.h"
#include "baseline/er_gen.h"
#include "core/generate.h"
#include "graph/csr.h"
#include "store/edge_writer.h"
#include "store/graph_view.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace pagen;
  const Cli cli(argc, argv, {"n", "x", "ranks", "seed"});
  if (cli.help()) {
    std::cout << cli.usage("graph_pipeline") << "\n";
    return 0;
  }
  PaConfig cfg;
  cfg.n = cli.get_u64("n", 100000);
  cfg.x = cli.get_u64("x", 4);
  cfg.seed = cli.get_u64("seed", 8);
  const auto dir = std::filesystem::temp_directory_path();
  const std::string pa_dir = (dir / "pagen_pipeline_pa").string();
  const std::string er_dir = (dir / "pagen_pipeline_er").string();
  core::ParallelOptions opt;
  opt.ranks = static_cast<int>(cli.get_u64("ranks", 4));
  opt.gather_edges = false;
  opt.store_dir = pa_dir;

  // PA network via the distributed generator, each rank streaming its
  // edges into its own shard of the store.
  const auto pa = core::generate(cfg, opt);

  // ER network with the same expected number of edges.
  baseline::ErConfig er_cfg;
  er_cfg.n = cfg.n;
  er_cfg.p = 2.0 * static_cast<double>(pa.total_edges) /
             (static_cast<double>(cfg.n) * static_cast<double>(cfg.n - 1));
  er_cfg.seed = cfg.seed;
  const auto er = baseline::erdos_renyi(er_cfg);

  // Persist ER as a one-shard store, then reload both.
  store::StoreWriter er_writer(er_dir, 1, store::kDefaultBlockEdges);
  er_writer.append(0, er);
  er_writer.finish(cfg.n);
  const auto pa_edges = store::ShardedGraphView(pa_dir).load_all();
  const auto er_edges = store::ShardedGraphView(er_dir).load_all();
  std::filesystem::remove_all(pa_dir);
  std::filesystem::remove_all(er_dir);

  const auto deg_pa = graph::degree_sequence(pa_edges, cfg.n);
  const auto deg_er = graph::degree_sequence(er_edges, cfg.n);

  auto hub = [](const std::vector<Count>& deg) {
    return *std::max_element(deg.begin(), deg.end());
  };
  auto frac_ge = [&](const std::vector<Count>& deg, Count bound) {
    Count c = 0;
    for (Count d : deg) c += (d >= bound);
    return 100.0 * static_cast<double>(c) / static_cast<double>(deg.size());
  };

  std::cout << "== preferential attachment vs Erdős–Rényi at matched density ==\n"
            << "n=" << fmt_count(cfg.n) << ", ~" << fmt_count(pa.total_edges)
            << " edges each\n\n";
  Table t({"metric", "PA", "ER"});
  t.add_row({"edges", fmt_count(pa_edges.size()), fmt_count(er_edges.size())});
  t.add_row({"max degree", fmt_count(hub(deg_pa)), fmt_count(hub(deg_er))});
  t.add_row({"% nodes with degree >= 3x mean",
             fmt_f(frac_ge(deg_pa, 3 * 2 * pa_edges.size() / cfg.n), 3),
             fmt_f(frac_ge(deg_er, 3 * 2 * er_edges.size() / cfg.n), 3)});
  t.add_row({"connected components",
             fmt_count(graph::connected_components(pa_edges, cfg.n)),
             fmt_count(graph::connected_components(er_edges, cfg.n))});
  const auto fit_pa = analysis::fit_gamma_mle(deg_pa, cfg.x);
  t.add_row({"power-law gamma (MLE)", fmt_f(fit_pa.gamma, 2), "n/a (no tail)"});
  t.print(std::cout);

  std::cout << "\nPA shows hubs orders of magnitude above the mean degree and\n"
            << "a power-law tail; ER concentrates around its mean — the\n"
            << "paper's motivation for scale-free generators.\n";
  return 0;
}
