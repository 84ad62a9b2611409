// End-to-end pipelines across modules: generate -> persist -> reload ->
// analyze, mirroring what the examples do.
#include <filesystem>
#include <sstream>

#include <gtest/gtest.h>

#include "analysis/degree_dist.h"
#include "analysis/load_balance.h"
#include "analysis/powerlaw_fit.h"
#include "baseline/copy_model_seq.h"
#include "core/generate.h"
#include "core/scaling_model.h"
#include "graph/csr.h"
#include "graph/io.h"
#include "store/graph_view.h"

namespace pagen {
namespace {

TEST(Integration, GeneratePersistReloadAnalyze) {
  const PaConfig cfg{.n = 30000, .x = 4, .p = 0.5, .seed = 99};
  core::ParallelOptions opt;
  opt.ranks = 8;
  opt.scheme = partition::Scheme::kRrp;
  opt.store_dir =
      (std::filesystem::temp_directory_path() / "pagen_integration_store")
          .string();
  const auto result = core::generate(cfg, opt);
  ASSERT_EQ(result.edges.size(), expected_edge_count(cfg));

  const auto reloaded = store::ShardedGraphView(opt.store_dir).load_all();
  std::filesystem::remove_all(opt.store_dir);
  ASSERT_EQ(reloaded, result.edges) << "rank-order shards == gather order";

  const auto deg = graph::degree_sequence(reloaded, cfg.n);
  const auto fit = analysis::fit_gamma_mle(deg, cfg.x);
  EXPECT_GT(fit.gamma, 2.0);
  EXPECT_LT(fit.gamma, 4.0);

  const graph::CsrGraph g(reloaded, cfg.n);
  const NodeId hub = g.max_degree_node();
  EXPECT_LT(hub, NodeId{200}) << "hubs concentrate among the oldest nodes";
  EXPECT_GT(g.degree(hub), Count{100});
}

TEST(Integration, LoadCountersFeedScalingModel) {
  const PaConfig cfg{.n = 40000, .x = 2, .p = 0.5, .seed = 5};
  core::ParallelOptions opt;
  opt.ranks = 16;
  opt.scheme = partition::Scheme::kUcp;
  opt.gather_edges = false;
  const auto ucp = core::generate(cfg, opt);
  opt.scheme = partition::Scheme::kRrp;
  const auto rrp = core::generate(cfg, opt);

  // UCP's total-load imbalance must exceed RRP's (Fig. 7(d)).
  const auto imb_ucp =
      analysis::summarize_metric(ucp.loads, analysis::LoadMetric::kTotalLoad)
          .imbalance;
  const auto imb_rrp =
      analysis::summarize_metric(rrp.loads, analysis::LoadMetric::kTotalLoad)
          .imbalance;
  EXPECT_GT(imb_ucp, imb_rrp);

  // And the scaling model must therefore favor RRP.
  const core::CostModel model = core::calibrate_cost_model(1.0, cfg.n, 1.0);
  EXPECT_GT(core::modeled_parallel_seconds(model, ucp.loads),
            core::modeled_parallel_seconds(model, rrp.loads));
}

TEST(Integration, DegreeDistributionPipelineMatchesAcrossPaths) {
  // The analysis must see the same distribution whether edges come from the
  // parallel or the sequential generator (x = 1 is bitwise identical).
  const PaConfig cfg{.n = 50000, .x = 1, .p = 0.5, .seed = 31};
  core::ParallelOptions opt;
  opt.ranks = 8;
  const auto par = core::generate(cfg, opt);
  const auto seq = baseline::copy_model_x1(cfg);
  const auto deg_par = graph::degree_sequence(par.edges, cfg.n);
  const auto deg_seq = graph::degree_sequence(seq, cfg.n);
  EXPECT_EQ(deg_par, deg_seq);

  const auto pdf = analysis::log_binned_pdf(deg_par);
  EXPECT_GE(pdf.size(), 5u) << "tail spans multiple log bins";
}

TEST(Integration, TextAndStoreAgree) {
  const PaConfig cfg{.n = 2000, .x = 3, .p = 0.5, .seed = 55};
  core::ParallelOptions opt;
  opt.ranks = 3;
  opt.store_dir =
      (std::filesystem::temp_directory_path() / "pagen_integration_text")
          .string();
  const auto result = core::generate(cfg, opt);

  std::stringstream text;
  graph::write_text(text, result.edges);
  EXPECT_EQ(graph::read_text(text),
            store::ShardedGraphView(opt.store_dir).load_all());
  std::filesystem::remove_all(opt.store_dir);
}

}  // namespace
}  // namespace pagen
