// Graph analyzer CLI: load an edge list ("u v" text rows, or a compressed
// store directory) — or generate a demo PA network if no input is given —
// and print the full structural report.
//
//   ./analyze_graph --in=edges.txt
//   ./analyze_graph --shards=/tmp/pcs   # a massive_generation --store-dir
//   ./analyze_graph            # self-generates a 100k-node demo network
#include <fstream>
#include <iostream>

#include "analysis/degree_dist.h"
#include "analysis/powerlaw_fit.h"
#include "core/generate.h"
#include "graph/csr.h"
#include "graph/io.h"
#include "graph/metrics.h"
#include "store/graph_view.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace pagen;
  const Cli cli(argc, argv, {"in", "shards", "n", "x", "seed"});
  if (cli.help()) {
    std::cout << cli.usage("analyze_graph") << "\n";
    return 0;
  }

  graph::EdgeList edges;
  const std::string in = cli.get_str("in", "");
  const std::string shards = cli.get_str("shards", "");
  if (!in.empty()) {
    std::ifstream is(in);
    if (!is.is_open()) {
      std::cerr << "cannot open " << in << "\n";
      return 1;
    }
    edges = graph::read_text(is);
    std::cout << "loaded " << fmt_count(edges.size()) << " edges from " << in
              << "\n";
  } else if (!shards.empty()) {
    edges = store::ShardedGraphView(shards).load_all();
    std::cout << "loaded " << fmt_count(edges.size())
              << " edges from compressed store " << shards << "\n";
  } else {
    PaConfig cfg;
    cfg.n = cli.get_u64("n", 100000);
    cfg.x = cli.get_u64("x", 4);
    cfg.seed = cli.get_u64("seed", 1);
    core::ParallelOptions opt;
    opt.ranks = 4;
    edges = core::generate(cfg, opt).edges;
    std::cout << "no --in/--shards given; generated a demo PA network ("
              << fmt_count(edges.size()) << " edges)\n";
  }
  if (edges.empty()) {
    std::cerr << "empty edge list\n";
    return 1;
  }

  const NodeId n = graph::num_nodes(edges);
  const graph::CsrGraph g(edges, n);
  const auto deg = graph::degree_sequence(edges, n);

  Table t({"metric", "value"});
  t.add_row({"nodes", fmt_count(n)});
  t.add_row({"edges", fmt_count(edges.size())});
  t.add_row({"self loops", fmt_count(graph::count_self_loops(edges))});
  t.add_row({"duplicate edges", fmt_count(graph::count_duplicates(edges))});
  t.add_row({"connected components",
             fmt_count(graph::connected_components(edges, n))});
  const NodeId hub = g.max_degree_node();
  t.add_row({"max degree (hub)", fmt_count(g.degree(hub)) + " @ node " +
                                     std::to_string(hub)});
  t.add_row({"mean degree",
             fmt_f(2.0 * static_cast<double>(edges.size()) /
                       static_cast<double>(n),
                   2)});
  t.add_row({"assortativity", fmt_f(graph::degree_assortativity(g), 3)});
  t.add_row({"clustering (sampled local)",
             fmt_f(graph::sampled_local_clustering(g, 2000, 1), 4)});
  t.add_row(
      {"diameter (double-sweep >=)",
       fmt_count(graph::double_sweep_diameter(g, hub))});
  t.add_row({"mean distance (sampled)",
             fmt_f(graph::sampled_mean_distance(g, 3, 1), 2)});
  try {
    // Fit the tail from the modal degree upward (for a PA network the mode
    // is x, the paper's d_min choice).
    const auto dist = analysis::degree_distribution(deg);
    Count d_min = 2, best = 0;
    for (const auto& p : dist) {
      if (p.degree >= 1 && p.count > best) {
        best = p.count;
        d_min = std::max<Count>(p.degree, 2);
      }
    }
    const auto fit = analysis::fit_gamma_mle(deg, d_min);
    t.add_row({"power-law gamma (MLE, d_min=" + std::to_string(d_min) + ")",
               fmt_f(fit.gamma, 2)});
  } catch (const CheckError&) {
    t.add_row({"power-law gamma", "n/a (tail too small)"});
  }
  t.print(std::cout);
  return 0;
}
