// massive-x1: the full massive pipeline (generate -> compressed store ->
// reload -> exact degree check) at n = 2e7 + 1, 1/50 of the 1e9-edge
// acceptance run. commfree, x = 1, P = 3, RRP, bounded x = 1 memo.
//
// Untraced pass: core::generate streams into the store through its own
// store tap while the benchmark's batch sink feeds an atomic-u32 degree
// oracle. Traced pass: the benchmark drives store::StoreWriter from its own
// batch sink instead, exactly as generate()'s tap does, so the store write
// can be timed as a child of the sink; both stores must be byte-identical.
#include <atomic>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/powerlaw_fit.h"
#include "common.h"
#include "core/distributed_degree.h"
#include "core/generate.h"
#include "store/edge_writer.h"
#include "store/graph_view.h"
#include "util/rss.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using namespace pagen;

/// Reps per untraced run (at least): each is one full pipeline pass, with
/// the reload repeated kReloadPasses times.
constexpr std::size_t kMinReps = 3;
constexpr int kReloadPasses = 2;

struct Params {
  NodeId n = 20'000'001;
  int ranks = 3;
  std::size_t block_edges = 65536;
  std::uint64_t spill_budget = std::uint64_t{256} << 20;  // per rank
  std::uint64_t budget = std::uint64_t{1536} << 20;  // reload + RSS bound
  Count rng_pairs = 20'000'000;
};

Params params_for(const Options& o) {
  Params p;
  if (o.smoke) {
    p.n = 200'001;
    p.spill_budget = std::uint64_t{4} << 20;
    p.rng_pairs = 200'000;
  }
  return p;
}

/// What setup_s times: fresh store/spill directories and an allocated,
/// first-touched (zeroed) n-entry degree oracle.
struct Prepared {
  std::string store_dir;
  std::string spill_dir;
  std::vector<std::atomic<std::uint32_t>> oracle;
};

double prepare(Prepared& p, NodeId n) {
  Timer timer;
  fresh_dir(p.store_dir);
  fresh_dir(p.spill_dir);
  std::vector<std::atomic<std::uint32_t>>().swap(p.oracle);
  std::vector<std::atomic<std::uint32_t>>(n).swap(p.oracle);
  return timer.seconds();
}

struct Rep {
  double wall_s = 0.0;
  double gen_s = 0.0;
  std::vector<double> reload_s;  // one per reload pass
  double fit_s = 0.0;
  double gamma = 0.0;
  Count edges = 0;
  std::vector<double> rounds_ms;
  store::StoreManifest manifest;
  core::ParallelResult result;  // counters only (no edges gathered)
};

Rep run_rep(const Params& p, const PaConfig& cfg, Prepared& prep,
            int reload_passes, SpanLog* log, Checker& checks) {
  Rep rep;
  Timer wall;
  core::ParallelOptions opt;
  opt.engine = "commfree";
  opt.ranks = p.ranks;
  opt.scheme = partition::Scheme::kRrp;
  opt.gather_edges = false;
  opt.store_block_edges = p.block_edges;
  opt.spill_dir = prep.spill_dir;
  opt.spill_budget_bytes = p.spill_budget;

  auto& oracle = prep.oracle;
  const auto feed = [&oracle](std::span<const graph::Edge> edges) {
    for (const graph::Edge& e : edges) {
      oracle[e.u].fetch_add(1, std::memory_order_relaxed);
      oracle[e.v].fetch_add(1, std::memory_order_relaxed);
    }
  };
  BatchClock clock(p.ranks, p.block_edges, now_ns());  // a block per rank
  Timer gen_timer;
  std::optional<store::StoreWriter> writer;
  if (log != nullptr) writer.emplace(prep.store_dir, p.ranks, p.block_edges);
  {
    const Scope gen(log, "engine.generate");
    if (log == nullptr) {
      opt.store_dir = prep.store_dir;
      opt.edge_batch_sink = [&](Rank r, std::span<const graph::Edge> edges) {
        clock.tick(r, edges.size());
        feed(edges);
      };
    } else {
      const SpanLog::Id parent = gen.id();
      opt.edge_batch_sink = [&, parent](Rank r,
                                        std::span<const graph::Edge> edges) {
        clock.tick(r, edges.size());
        const Scope sink(log, "sink", parent);
        feed(edges);
        const Scope write(log, "store.write", sink.id());
        writer->append(r, edges);
      };
    }
    rep.result = core::generate(cfg, opt);
  }
  if (writer) {
    const Scope seal(log, "store.seal");
    rep.manifest = writer->finish(cfg.n);
  } else {
    rep.manifest = store::load_manifest(prep.store_dir);
  }
  rep.gen_s = gen_timer.seconds();
  rep.edges = rep.result.total_edges;
  rep.rounds_ms = clock.rounds_ms();

  // Fold and free the oracle before the reload, as the 1e9 run must.
  core::DegreeHistogram expected;
  {
    std::map<Count, Count> fold;
    for (const auto& d : oracle) ++fold[d.load(std::memory_order_relaxed)];
    expected.assign(fold.begin(), fold.end());
    std::vector<std::atomic<std::uint32_t>>().swap(oracle);
  }
  if (checks.wrong("degree_histogram") && !expected.empty()) {
    expected.front().second += 1;
  }

  // Reopen + verify + decode + degree-count, `reload_passes` times over the
  // same store: the pass is memory-bound and jitters, so the measuring run
  // repeats it and reports the median.
  core::DegreeHistogram reloaded;
  for (int pass = 0; pass < reload_passes; ++pass) {
    Timer reload_timer;
    {
      std::optional<store::ShardedGraphView> view;
      {
        const Scope open(log, "store.open");
        view.emplace(prep.store_dir, p.budget);
      }
      // Merged source: one rank streams every shard in rank order, so the
      // working set is one block stream plus the kernel's degree array.
      const Scope degree(log, "kernel.degree");
      graph::EdgeSource source = view->merged_edge_source();
      if (log != nullptr) source = traced_source(source, log, degree.id());
      reloaded = core::distributed_degree_distribution(
          source, partition::Scheme::kRrp);
    }
    rep.reload_s.push_back(reload_timer.seconds());
    checks.expect("degree_histogram", reloaded == expected,
                  "reloaded store's degree histogram differs from the oracle");
  }

  Timer fit_timer;
  {
    const Scope fit(log, "analysis.fit");
    const std::vector<Count> degrees = expand_degrees(reloaded, 1);
    rep.gamma = analysis::fit_gamma_mle(degrees, 1).gamma;
  }
  rep.fit_s = fit_timer.seconds();
  // One pipeline pass: the repeated reloads are not part of it.
  rep.wall_s = wall.seconds();
  for (std::size_t i = 1; i < rep.reload_s.size(); ++i) {
    rep.wall_s -= rep.reload_s[i];
  }

  // Output checks (outside every timed span).
  const Count want_edges = expected_edge_count(cfg) +
                           (checks.wrong("edge_count") ? 1 : 0);
  checks.expect("edge_count",
                rep.edges == want_edges &&
                    rep.manifest.total_edges() == want_edges,
                std::to_string(rep.edges) + " edges generated, " +
                    std::to_string(rep.manifest.total_edges()) +
                    " stored, " + std::to_string(want_edges) + " expected");
  const double bpe = static_cast<double>(rep.manifest.total_bytes()) /
                     static_cast<double>(rep.edges);
  const double bpe_limit = checks.wrong("bytes_per_edge") ? 1.0 : 8.0;
  checks.expect("bytes_per_edge", bpe < bpe_limit,
                std::to_string(bpe) + " bytes/edge");
  const std::uint64_t rss = peak_rss_bytes();
  const std::uint64_t rss_limit =
      checks.wrong("rss_budget") ? std::uint64_t{1} << 20 : p.budget;
  checks.expect("rss_budget", rss > 0 && rss < rss_limit,
                "peak RSS " + std::to_string(rss) + " B");
  return rep;
}

void record_params(Report& r, const Params& p, const PaConfig& cfg) {
  r.param("engine", "commfree");
  r.param("n", cfg.n);
  r.param("x", cfg.x);
  r.param("p", cfg.p);
  r.param("graph_seed", cfg.seed);
  r.param("ranks", p.ranks);
  r.param("scheme", "RRP");
  r.param("block_edges", p.block_edges);
  r.param("spill_budget_bytes_per_rank", p.spill_budget);
  r.param("reload_budget_bytes", p.budget);
  r.param("degree_source", "merged store stream, 1 rank");
}

}  // namespace

Report run_massive_x1(const Options& o) {
  Report report(o);
  const Params p = params_for(o);
  PaConfig cfg;
  cfg.n = p.n;
  cfg.x = 1;
  cfg.p = 0.5;
  cfg.seed = derive_seed(o.seed, 1);
  record_params(report, p, cfg);

  Prepared prep{o.work_dir + "/massive/store", o.work_dir + "/massive/spill",
                {}};

  if (!o.trace) {
    std::vector<double> setups;
    std::vector<Rep> reps;
    const Timer measured;
    do {
      for (std::size_t i = 0; i < kSetupsPerPass; ++i) {
        setups.push_back(prepare(prep, cfg.n));
      }
      reps.push_back(
          run_rep(p, cfg, prep, kReloadPasses, nullptr, report.checks));
      std::cerr << "massive-x1 rep " << reps.size() << ": gen "
                << reps.back().gen_s << " s, reload "
                << median(reps.back().reload_s) << " s\n";
    } while (more_reps(reps.size(), kMinReps, measured.seconds(), o.seconds));

    std::vector<double> wall, gen, reload, analyze, rounds, jps;
    for (const Rep& r : reps) {
      const auto e = static_cast<double>(r.edges);
      wall.push_back(r.wall_s);
      gen.push_back(e / r.gen_s * 1e-6);
      for (const double t : r.reload_s) {
        reload.push_back(e / t * 1e-6);
        analyze.push_back(t + r.fit_s);
      }
      rounds.insert(rounds.end(), r.rounds_ms.begin(), r.rounds_ms.end());
      jps.push_back(static_cast<double>(r.rounds_ms.size()) / r.gen_s);
    }
    EndToEnd m;
    m.setup_s = median(setups);
    m.wall_s = median(wall);
    m.gen_meps = median(gen);
    m.reload_meps = median(reload);
    m.analyze_s = median(analyze);
    m.peak_rss_mb = peak_rss_mb();
    m.store_bytes_per_edge =
        static_cast<double>(reps.front().manifest.total_bytes()) /
        static_cast<double>(reps.front().edges);
    m.job_p50_ms = percentile(rounds, 0.50);
    m.job_p95_ms = percentile(rounds, 0.95);
    m.jobs_per_s = median(jps);
    m.emit(report);
    report.param("reps", reps.size());
    return report;
  }

  // Traced run: one untraced rep for the overhead base, one traced rep.
  prepare(prep, cfg.n);
  const Rep base = run_rep(p, cfg, prep, 1, nullptr, report.checks);
  SpanLog log;
  prepare(prep, cfg.n);
  const Rep traced = run_rep(p, cfg, prep, 1, &log, report.checks);

  bool same_store = base.manifest.shards.size() ==
                    traced.manifest.shards.size();
  for (std::size_t i = 0; same_store && i < base.manifest.shards.size(); ++i) {
    same_store = base.manifest.shards[i].file_checksum ==
                     traced.manifest.shards[i].file_checksum &&
                 base.manifest.shards[i].bytes == traced.manifest.shards[i].bytes;
  }
  if (report.checks.wrong("trace_store_checksums")) same_store = !same_store;
  report.checks.expect("trace_store_checksums", same_store,
                       "traced store differs from the untraced store");

  // Probes outside the traced wall: draw rate and a decode-only pass.
  Layers l;
  l.rng_draw_meps = rng_draw_meps(cfg, p.rng_pairs, &log, report.checks);
  const Count decoded = decode_store(prep.store_dir, &log);
  report.checks.expect("decode_count",
                       decoded == traced.edges +
                                      (report.checks.wrong("decode_count")
                                           ? 1
                                           : 0),
                       std::to_string(decoded) + " edges decoded");

  const auto edges = static_cast<double>(traced.edges);
  const auto bytes = static_cast<double>(traced.manifest.total_bytes());
  l.engine_generate_s = log.total_s("engine.generate");
  l.engine_self_s = log.self_s("engine.generate");
  l.engine_edges = edges;
  fill_engine_counters(traced.result, l);
  l.sink_calls = static_cast<double>(log.count("sink"));
  l.sink_self_s = log.self_s("sink");
  l.store_write_s = log.total_s("store.write");
  l.store_seal_s = log.total_s("store.seal");
  l.store_bytes = bytes;
  for (const auto& s : traced.manifest.shards) {
    l.store_blocks += static_cast<double>(s.blocks);
  }
  l.store_write_mbps = bytes / (l.store_write_s + l.store_seal_s) * 1e-6;
  l.store_open_s = log.total_s("store.open");
  l.store_decode_s = log.total_s("store.decode");
  l.store_decode_meps = edges / l.store_decode_s * 1e-6;
  l.store_read_mbps = bytes / l.store_decode_s * 1e-6;
  l.kernel_degree_s = log.total_s("kernel.degree");
  l.kernel_degree_self_s = l.kernel_degree_s - log.self_s("source.visit");
  l.analysis_fit_s = log.total_s("analysis.fit");
  l.analysis_gamma = traced.gamma;
  l.trace_overhead_ratio = traced.wall_s / base.wall_s;
  l.emit(report);
  if (!o.trace_out.empty()) log.write_trace(o.trace_out);
  return report;
}

}  // namespace perfbench
