// Massive-generation CLI: the tool a user actually runs to produce a
// scale-free edge list on disk (Section 4.5 as a utility).
//
//   ./massive_generation --n=5000000 --x=4 --ranks=8 --store-dir=/tmp/pcs
//   ./massive_generation --n=5000000 --engine=commfree   # zero-message run
//   ./massive_generation --n=1000000000 --x=1 --engine=commfree
//       --store-dir=/tmp/pcs --store-budget=$((8<<30))  # out-of-core store
//   ./massive_generation --n=200000 --out=/tmp/edges.txt  # text for tools
//   ./massive_generation --fault-plan=seed=7,drop=0.01 --checkpoint-dir=/tmp/ck
//
// --store-dir=DIR is the persisted form: each rank streams its edges into
// its own shard of the compressed block store (src/store/,
// docs/storage.md) without gathering them — the paper's independent
// file-writes model — and the finished store is verified by re-opening it
// under --store-budget bytes. --out=PATH gathers the edges and writes them
// as "u v" text rows for external tools. --spill-dir/--spill-budget page
// the commfree engine's x > 1 derivation rows to disk, bounding peak RSS;
// its x = 1 chain walk keeps O(1) state and ignores them. Without --out
// the edges are consumed in-flight through the batched span sink
// (ParallelOptions::edge_batch_sink), so the run demonstrates streaming
// consumption without ever materializing the edge list; the report
// includes the process's peak RSS (VmHWM) to make the memory claim
// checkable.
#include <fstream>
#include <iostream>
#include <numeric>
#include <optional>
#include <span>
#include <vector>

#include "core/engine/engine_cli.h"
#include "core/generate.h"
#include "core/robustness_cli.h"
#include "graph/io.h"
#include "obs/config.h"
#include "obs/session.h"
#include "store/graph_view.h"
#include "util/cli.h"
#include "util/rss.h"
#include "util/table.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace pagen;
  std::vector<std::string> keys{
      "n",         "x",           "ranks",        "seed",
      "scheme",    "out",         "p",            "store-dir",
      "store-budget", "store-block-edges", "spill-dir", "spill-budget"};
  for (const std::string& k : core::engine_cli_keys()) keys.push_back(k);
  for (const std::string& k : core::robustness_cli_keys()) keys.push_back(k);
  for (const std::string& k : obs::cli_keys()) keys.push_back(k);
  const Cli cli(argc, argv, keys);
  if (cli.help()) {
    std::cout << cli.usage("massive_generation") << "\n";
    return 0;
  }
  PaConfig cfg;
  cfg.n = cli.get_u64("n", 2000000);
  cfg.x = cli.get_u64("x", 4);
  cfg.p = cli.get_double("p", 0.5);
  cfg.seed = cli.get_u64("seed", 1);
  core::ParallelOptions opt;
  opt.ranks = static_cast<int>(cli.get_u64("ranks", 8));
  opt.scheme = partition::scheme_from_string(cli.get_str("scheme", "RRP"));
  const std::string out = cli.get_str("out", "");
  opt.gather_edges = !out.empty();
  opt.store_dir = cli.get_str("store-dir", "");
  opt.store_block_edges = cli.get_u64("store-block-edges", 65536);
  opt.spill_dir = cli.get_str("spill-dir", "");
  opt.spill_budget_bytes =
      cli.get_u64("spill-budget", opt.spill_budget_bytes);
  const std::uint64_t store_budget = cli.get_u64("store-budget", 0);
  core::apply_engine_cli(cli, opt);
  core::apply_robustness_cli(cli, opt);

  // Observability: --trace-out/--metrics-out/--prom-out instrument the run
  // (optionally with --causal=1 dependency-chain stamps) at zero cost when
  // none of the flags is given.
  const obs::Config obs_cfg = obs::config_from_cli(cli);
  std::optional<obs::Session> session;
  if (obs_cfg.enabled) {
    session.emplace(opt.ranks, obs_cfg);
    opt.obs = &*session;
  }

  // Statistics mode: no gather — stream the edges through the batched
  // span sink instead (alongside the store, when one is written). Each rank
  // thread owns its slot, so the order-insensitive checksum (sum of
  // per-edge mixes) needs no locking and is independent of emission order.
  std::vector<std::uint64_t> rank_sums;
  std::vector<Count> rank_edges;
  if (out.empty()) {
    rank_sums.assign(static_cast<std::size_t>(opt.ranks), 0);
    rank_edges.assign(static_cast<std::size_t>(opt.ranks), 0);
    opt.edge_batch_sink = [&rank_sums, &rank_edges](
                              Rank rank, std::span<const graph::Edge> edges) {
      std::uint64_t sum = 0;
      for (const graph::Edge& e : edges) {
        std::uint64_t w = (std::min(e.u, e.v) << 32) ^ std::max(e.u, e.v);
        w *= 0x9e3779b97f4a7c15ULL;  // splitmix-style mix per edge
        w ^= w >> 29;
        sum += w;
      }
      rank_sums[static_cast<std::size_t>(rank)] += sum;
      rank_edges[static_cast<std::size_t>(rank)] +=
          static_cast<Count>(edges.size());
    };
  }

  Timer gen_timer;
  const auto result = core::generate(cfg, opt);
  const double gen_secs = gen_timer.seconds();

  std::cout << "generated " << fmt_count(result.total_edges) << " edges ("
            << fmt_count(cfg.n) << " nodes, x=" << cfg.x << ", p=" << cfg.p
            << ") on " << opt.ranks << " ranks ["
            << partition::to_string(opt.scheme) << "] in "
            << fmt_f(gen_secs, 2) << " s — "
            << fmt_count(static_cast<Count>(
                   static_cast<double>(result.total_edges) / gen_secs))
            << " edges/s\n";
  if (result.respawns > 0) {
    std::cout << "recovered from " << result.respawns
              << " injected crash(es) via respawn\n";
  }
  if (session) {
    for (const std::string& path : session->export_files()) {
      std::cout << "wrote observability artifact " << path << "\n";
    }
  }

  if (!opt.store_dir.empty()) {
    // Re-open under the budget: proves the store round-trips and that its
    // concurrent-stream working set fits the declared bytes.
    const store::ShardedGraphView view(opt.store_dir, store_budget);
    const double bytes_per_edge =
        result.total_edges == 0
            ? 0.0
            : static_cast<double>(result.store_bytes) /
                  static_cast<double>(result.total_edges);
    std::cout << "wrote compressed store " << opt.store_dir << " ("
              << view.manifest().num_shards << " shards, "
              << fmt_count(result.store_bytes) << " bytes, "
              << fmt_f(bytes_per_edge, 2) << " bytes/edge";
    if (store_budget > 0) {
      std::cout << "; re-opened under " << fmt_count(store_budget)
                << "-byte budget";
    }
    std::cout << ")\n";
  }

  if (!out.empty()) {
    Timer io_timer;
    std::ofstream os(out);
    if (!os.is_open()) {
      std::cerr << "cannot open " << out << " for writing\n";
      return 1;
    }
    graph::write_text(os, result.edges);
    std::cout << "wrote " << out << " (text) in "
              << fmt_f(io_timer.seconds(), 2) << " s\n";
  } else {
    const std::uint64_t checksum =
        std::accumulate(rank_sums.begin(), rank_sums.end(), std::uint64_t{0});
    const Count streamed =
        std::accumulate(rank_edges.begin(), rank_edges.end(), Count{0});
    std::cout << "streamed " << fmt_count(streamed)
              << " edges through the batched sink (batch capacity "
              << opt.edge_batch_capacity << "), order-insensitive checksum 0x"
              << std::hex << checksum << std::dec << "\n"
              << "peak RSS " << fmt_count(peak_rss_bytes() >> 20)
              << " MiB (VmHWM)\n";
    if (opt.store_dir.empty()) {
      std::cout << "(pass --store-dir=DIR to persist the edges; generation\n"
                << " ran without gathering, like the paper's timed runs,\n"
                << " which exclude disk I/O)\n";
    }
  }
  return 0;
}
