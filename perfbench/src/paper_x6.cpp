// paper-x6: the paper's own x = 6 protocol. mps engine (genrt driver +
// mailboxes), x = 6, p = 0.5, P = 3, RRP, n = 2e6 (1.2e7 edges), shards
// kept in memory; then degree distribution, power-law fit and connected
// components over the in-memory EdgeSource. The store layer and commfree
// derivation are bypassed.
#include <algorithm>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "analysis/powerlaw_fit.h"
#include "common.h"
#include "core/distributed_cc.h"
#include "core/distributed_degree.h"
#include "core/generate.h"
#include "graph/edge_source.h"
#include "partition/partition.h"
#include "util/error.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using namespace pagen;

/// Generation passes per untraced run (at least: 14 passes of 15 rounds
/// put at least 10 rounds beyond p95) and connected-components passes on
/// the last one.
constexpr std::size_t kGenPasses = 14;
constexpr int kCcPasses = 4;

struct Params {
  NodeId n = 2'000'000;
  NodeId x = 6;
  int ranks = 3;
  NodeId warmup_n = 300'000;  // fixed prefix generated during setup
  // Edges per rank in a streaming consumer's round (BatchClock). mps
  // stalls on unresolved requests for a few ms at a time; a round this long
  // spans many stalls, so the tail is set by the wait for each pass's first
  // round (generate start-up), not by single stalls.
  Count window_edges = Count{1} << 18;
  Count rng_pairs = 20'000'000;
};

Params params_for(const Options& o) {
  Params p;
  if (o.smoke) {
    p.n = 50'000;
    p.warmup_n = 5'000;
    p.window_edges = Count{1} << 12;
    p.rng_pairs = 200'000;
  }
  return p;
}

core::ParallelOptions base_options(const Params& p) {
  core::ParallelOptions opt;
  opt.engine = "mps";
  opt.ranks = p.ranks;
  opt.scheme = partition::Scheme::kRrp;
  opt.gather_edges = false;
  return opt;
}

/// What setup_s times: building the run's partition and a warm-up generate
/// of a fixed small prefix (thread start-up, allocator and page-cache
/// warm-up that every later run reuses).
double prepare(const Params& p, const PaConfig& cfg,
               std::shared_ptr<const partition::Partition>& part) {
  Timer timer;
  part = partition::make_partition(partition::Scheme::kRrp, cfg.n, p.ranks);
  PaConfig warm = cfg;
  warm.n = p.warmup_n;
  const core::ParallelResult r = core::generate(warm, base_options(p));
  PAGEN_CHECK_MSG(r.total_edges == expected_edge_count(warm),
                  "warm-up generate produced a wrong edge count");
  return timer.seconds();
}

/// One generate-and-analyze pass. The shards stay alive until the pass
/// is dropped, so connected components can run on the last one.
struct Rep {
  double gen_s = 0.0;
  double degree_s = 0.0;
  double fit_s = 0.0;
  double gamma = 0.0;
  Count edges = 0;
  std::vector<double> rounds_ms;
  core::ParallelResult result;
  core::DegreeHistogram hist;
};

/// Per node t: exactly min(t, x) edges (t, v) with v < t, all distinct.
/// Sorts the shards in place (they are not used afterwards); one thread per
/// shard. Returns {nodes with a wrong edge set, self-loops}.
std::pair<Count, Count> check_structure(std::vector<graph::EdgeList>& shards,
                                        NodeId n, NodeId x) {
  std::vector<std::uint8_t> out_degree(n, 0);
  std::vector<Count> bad(shards.size(), 0);
  std::vector<Count> loops(shards.size(), 0);
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    threads.emplace_back([&, s] {
      graph::EdgeList& edges = shards[s];
      std::sort(edges.begin(), edges.end(),
                [](const graph::Edge& a, const graph::Edge& b) {
                  return a.u != b.u ? a.u < b.u : a.v < b.v;
                });
      for (std::size_t i = 0; i < edges.size(); ++i) {
        const graph::Edge& e = edges[i];
        if (e.u == e.v) ++loops[s];
        const bool dup = i > 0 && edges[i - 1] == e;
        if (e.u >= n || e.v >= e.u || dup) {
          ++bad[s];
          continue;
        }
        // Nodes are owned by exactly one rank, so no two threads write
        // the same counter.
        if (out_degree[e.u] < 255) ++out_degree[e.u];
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Count wrong_nodes = 0;
  for (const Count b : bad) wrong_nodes += b;
  for (NodeId t = 0; t < n; ++t) {
    if (out_degree[t] != std::min<NodeId>(t, x)) ++wrong_nodes;
  }
  Count self_loops = 0;
  for (const Count l : loops) self_loops += l;
  return {wrong_nodes, self_loops};
}

Rep run_rep(const Params& p, const PaConfig& cfg,
            const std::shared_ptr<const partition::Partition>& part,
            SpanLog* log, Checker& checks) {
  Rep rep;
  core::ParallelOptions opt = base_options(p);
  opt.custom_partition = part;
  opt.keep_shards = true;
  BatchClock clock(p.ranks, p.window_edges, now_ns());
  Timer gen_timer;
  {
    const Scope gen(log, "engine.generate");
    const SpanLog::Id parent = gen.id();
    opt.edge_batch_sink = [&clock, log, parent](
                              Rank r, std::span<const graph::Edge> edges) {
      const Scope sink(log, "sink", parent);
      clock.tick(r, edges.size());
    };
    rep.result = core::generate(cfg, opt);
  }
  rep.gen_s = gen_timer.seconds();
  rep.edges = rep.result.total_edges;
  rep.rounds_ms = clock.rounds_ms();

  {
    const Scope degree(log, "kernel.degree");
    const graph::EdgeSource memory =
        graph::make_edge_source(cfg.n, rep.result.shards);
    const graph::EdgeSource source =
        log != nullptr ? traced_source(memory, log, degree.id()) : memory;
    const Timer degree_timer;
    rep.hist = core::distributed_degree_distribution(source,
                                                     partition::Scheme::kRrp);
    rep.degree_s = degree_timer.seconds();
  }
  {
    const Scope fit(log, "analysis.fit");
    const Timer fit_timer;
    const std::vector<Count> degrees = expand_degrees(rep.hist, cfg.x);
    rep.gamma = analysis::fit_gamma_mle(degrees, cfg.x).gamma;
    rep.fit_s = fit_timer.seconds();
  }

  // Output checks (outside every timed span).
  const Count want_edges =
      expected_edge_count(cfg) + (checks.wrong("edge_count") ? 1 : 0);
  Count kept = 0;
  for (const graph::EdgeList& s : rep.result.shards) kept += s.size();
  checks.expect("edge_count", rep.edges == want_edges && kept == want_edges,
                std::to_string(rep.edges) + " generated, " +
                    std::to_string(kept) + " kept, " +
                    std::to_string(want_edges) + " expected");
  Count degree_sum = 0;
  Count nodes = 0;
  for (const auto& [d, c] : rep.hist) {
    degree_sum += d * c;
    nodes += c;
  }
  checks.expect("degree_sum",
                degree_sum == 2 * rep.edges +
                                  (checks.wrong("degree_sum") ? 1 : 0) &&
                    nodes == cfg.n,
                "degree sum " + std::to_string(degree_sum) + " over " +
                    std::to_string(nodes) + " nodes");
  const double lo = checks.wrong("gamma_range") ? 3.6 : 2.5;
  checks.expect("gamma_range", rep.gamma >= lo && rep.gamma <= 3.5,
                "gamma " + std::to_string(rep.gamma));
  return rep;
}

/// Connected components over the pass's in-memory shards, checked to be
/// one component; returns {seconds, rounds}.
std::pair<double, Count> run_cc(const Rep& rep, const PaConfig& cfg,
                                SpanLog* log, Checker& checks) {
  const Scope cc(log, "kernel.cc");
  const Timer timer;
  const core::DistributedCcResult r = core::distributed_connected_components(
      graph::make_edge_source(cfg.n, rep.result.shards),
      partition::Scheme::kRrp);
  const double secs = timer.seconds();
  checks.expect("one_component",
                r.components == (checks.wrong("one_component") ? 2U : 1U),
                std::to_string(r.components) + " components");
  return {secs, r.rounds};
}

/// Structure checks on a pass's shards (sorts them: run last).
void check_pass(Rep& rep, const PaConfig& cfg, Checker& checks) {
  const auto [wrong_nodes, self_loops] =
      check_structure(rep.result.shards, cfg.n, cfg.x);
  checks.expect("distinct_older_targets",
                wrong_nodes == (checks.wrong("distinct_older_targets") ? 1 : 0),
                std::to_string(wrong_nodes) + " nodes without " +
                    std::to_string(cfg.x) + " distinct older targets");
  checks.expect("no_self_loops",
                self_loops == (checks.wrong("no_self_loops") ? 1 : 0),
                std::to_string(self_loops) + " self-loops");
}

}  // namespace

Report run_paper_x6(const Options& o) {
  Report report(o);
  const Params p = params_for(o);
  PaConfig cfg;
  cfg.n = p.n;
  cfg.x = p.x;
  cfg.p = 0.5;
  cfg.seed = derive_seed(o.seed, 6);
  report.param("engine", "mps");
  report.param("n", cfg.n);
  report.param("x", cfg.x);
  report.param("p", cfg.p);
  report.param("graph_seed", cfg.seed);
  report.param("ranks", p.ranks);
  report.param("scheme", "RRP (prebuilt partition)");
  report.param("keep_shards", "true");
  report.param("warmup_n", p.warmup_n);
  report.param("analysis", "degree + MLE fit (d_min = x) + CC, in-memory");

  std::shared_ptr<const partition::Partition> part;
  std::vector<double> setups;

  if (!o.trace) {
    // Passes of generate + degree + fit repeat (mps x = 6 timing is
    // jittery, so the median needs many); connected components, the
    // costliest kernel, runs kCcPasses times on the last pass's shards.
    std::vector<double> gen, reload, degree_fit, pass, rounds, jps, cc;
    std::vector<double> msg_bytes;
    const Timer measured;
    Rep last;
    do {
      last = Rep{};  // free the previous pass's shards first
      // Set-up is repeated before every pass rather than all at the start,
      // so its median is not at the mercy of one moment of the machine.
      setups.push_back(prepare(p, cfg, part));
      last = run_rep(p, cfg, part, nullptr, report.checks);
      const auto e = static_cast<double>(last.edges);
      gen.push_back(e / last.gen_s * 1e-6);
      reload.push_back(e / last.degree_s * 1e-6);
      degree_fit.push_back(last.degree_s + last.fit_s);
      pass.push_back(last.gen_s + degree_fit.back());
      rounds.insert(rounds.end(), last.rounds_ms.begin(),
                    last.rounds_ms.end());
      jps.push_back(static_cast<double>(last.rounds_ms.size()) / last.gen_s);
      double bytes = 0.0;
      for (const auto& c : last.result.comm_stats) {
        bytes += static_cast<double>(c.bytes_sent);
      }
      msg_bytes.push_back(bytes / e);
      std::cerr << "paper-x6 pass " << gen.size() << ": gen " << last.gen_s
                << " s, degree " << last.degree_s << " s\n";
    } while (more_reps(gen.size(), kGenPasses, measured.seconds(), o.seconds));
    for (int i = 0; i < kCcPasses; ++i) {
      cc.push_back(run_cc(last, cfg, nullptr, report.checks).first);
    }
    check_pass(last, cfg, report.checks);

    EndToEnd m;
    m.setup_s = median(setups);
    m.wall_s = median(pass) + median(cc);
    m.gen_meps = median(gen);
    m.reload_meps = median(reload);
    m.analyze_s = median(degree_fit) + median(cc);
    m.peak_rss_mb = peak_rss_mb();
    // No store here: the bytes per edge this pipeline moves are the mps
    // messages' (a benchmark-defined stand-in, see README.md).
    m.store_bytes_per_edge = median(msg_bytes);
    m.job_p50_ms = percentile(rounds, 0.50);
    m.job_p95_ms = percentile(rounds, 0.95);
    m.jobs_per_s = median(jps);
    m.emit(report);
    report.param("passes", gen.size());
    report.param("cc_passes", kCcPasses);
    return report;
  }

  // Traced run: one untraced pass (with CC) for the overhead base, then the
  // same traced.
  prepare(p, cfg, part);
  const auto timed_pass = [&](SpanLog* log) {
    const Timer wall;
    Rep rep = run_rep(p, cfg, part, log, report.checks);
    const Count rounds = run_cc(rep, cfg, log, report.checks).second;
    const double secs = wall.seconds();
    check_pass(rep, cfg, report.checks);
    return std::make_tuple(std::move(rep), rounds, secs);
  };
  const double base_s = std::get<2>(timed_pass(nullptr));
  SpanLog log;
  auto [traced, rounds, traced_s] = timed_pass(&log);

  Layers l;
  l.rng_draw_meps = rng_draw_meps(cfg, p.rng_pairs, &log, report.checks);
  l.engine_generate_s = log.total_s("engine.generate");
  l.engine_self_s = log.self_s("engine.generate");
  l.engine_edges = static_cast<double>(traced.edges);
  fill_engine_counters(traced.result, l);
  l.sink_calls = static_cast<double>(log.count("sink"));
  l.sink_self_s = log.self_s("sink");
  l.kernel_degree_s = log.total_s("kernel.degree");
  l.kernel_degree_self_s = l.kernel_degree_s - log.self_s("source.visit");
  l.kernel_cc_s = log.total_s("kernel.cc");
  l.kernel_cc_rounds = static_cast<double>(rounds);
  l.analysis_fit_s = log.total_s("analysis.fit");
  l.analysis_gamma = traced.gamma;
  l.trace_overhead_ratio = traced_s / base_s;
  l.emit(report);
  if (!o.trace_out.empty()) log.write_trace(o.trace_out);
  return report;
}

}  // namespace perfbench
