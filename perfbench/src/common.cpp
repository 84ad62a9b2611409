#include "common.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iostream>

#include "baseline/pa_draws.h"
#include "core/load_stats.h"
#include "rng/splitmix.h"
#include "store/edge_writer.h"
#include "store/shard_reader.h"
#include "util/rss.h"
#include "util/timer.h"

namespace perfbench {

bool Checker::expect(std::string_view name, bool ok,
                     const std::string& detail) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "CHECK FAILED " << name << (detail.empty() ? "" : ": ")
              << detail << "\n";
  }
  return ok;
}

void EndToEnd::emit(Report& r) const {
  r.add("setup_s", setup_s, "s");
  r.add("wall_s", wall_s, "s");
  r.add("gen_meps", gen_meps, "Me/s");
  r.add("reload_meps", reload_meps, "Me/s");
  r.add("analyze_s", analyze_s, "s");
  r.add("peak_rss_mb", peak_rss_mb, "MiB");
  r.add("store_bytes_per_edge", store_bytes_per_edge, "B/edge");
  r.add("job_p50_ms", job_p50_ms, "ms");
  r.add("job_p95_ms", job_p95_ms, "ms");
  r.add("jobs_per_s", jobs_per_s, "1/s");
}

void Layers::emit(Report& r) const {
  r.add("rng.draw_meps", rng_draw_meps, "Me/s");
  r.add("engine.generate_s", engine_generate_s, "s");
  r.add("engine.self_s", engine_self_s, "s");
  r.add("engine.edges", engine_edges, "count");
  r.add("mps.envelopes", mps_envelopes, "count");
  r.add("mps.bytes", mps_bytes, "B");
  r.add("mps.requests", mps_requests, "count");
  r.add("mps.resolved", mps_resolved, "count");
  r.add("mps.retries", mps_retries, "count");
  r.add("mps.max_queue_depth", mps_max_queue_depth, "count");
  r.add("partition.load_max_over_mean", partition_load_max_over_mean,
        "ratio");
  r.add("sink.calls", sink_calls, "count");
  r.add("sink.self_s", sink_self_s, "s");
  r.add("store.write_s", store_write_s, "s");
  r.add("store.seal_s", store_seal_s, "s");
  r.add("store.bytes", store_bytes, "B");
  r.add("store.blocks", store_blocks, "count");
  r.add("store.write_mbps", store_write_mbps, "MB/s");
  r.add("store.open_s", store_open_s, "s");
  r.add("store.decode_s", store_decode_s, "s");
  r.add("store.decode_meps", store_decode_meps, "Me/s");
  r.add("store.read_mbps", store_read_mbps, "MB/s");
  r.add("kernel.degree_s", kernel_degree_s, "s");
  r.add("kernel.degree_self_s", kernel_degree_self_s, "s");
  r.add("kernel.cc_s", kernel_cc_s, "s");
  r.add("kernel.cc_rounds", kernel_cc_rounds, "count");
  r.add("analysis.fit_s", analysis_fit_s, "s");
  r.add("analysis.gamma", analysis_gamma, "1");
  r.add("svc.submit_us_p50", svc_submit_us_p50, "us");
  r.add("svc.queue_wait_ms_p50", svc_queue_wait_ms_p50, "ms");
  r.add("svc.run_ms_p50", svc_run_ms_p50, "ms");
  r.add("svc.serve_ms_p50", svc_serve_ms_p50, "ms");
  r.add("svc.cache_hits", svc_cache_hits, "count");
  r.add("svc.store_hits", svc_store_hits, "count");
  r.add("svc.cold_runs", svc_cold_runs, "count");
  r.add("svc.hit_ratio", svc_hit_ratio, "ratio");
  r.add("trace.overhead_ratio", trace_overhead_ratio, "ratio");
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  return static_cast<double>(pagen::peak_rss_bytes()) / (1024.0 * 1024.0);
}

std::uint64_t derive_seed(std::uint64_t bench_seed, std::uint64_t salt) {
  return pagen::rng::splitmix64_mix(bench_seed * 0x9e3779b97f4a7c15ULL +
                                    salt);
}

void fresh_dir(const std::string& dir) {
  remove_dir(dir);
  std::filesystem::create_directories(dir);
}

void remove_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

std::uint64_t multiset_hash(std::span<const pagen::graph::Edge> edges) {
  std::uint64_t sum = 0;
  std::uint64_t mix = 0;
  for (const pagen::graph::Edge& e : edges) {
    const std::uint64_t lo = std::min(e.u, e.v);
    const std::uint64_t hi = std::max(e.u, e.v);
    const std::uint64_t h =
        pagen::rng::splitmix64_mix(lo * 0x9e3779b97f4a7c15ULL ^
                                   pagen::rng::splitmix64_mix(hi));
    sum += h;
    mix ^= pagen::rng::splitmix64_mix(h);
  }
  return pagen::rng::splitmix64_mix(sum ^ (mix << 1) ^ edges.size());
}

std::vector<Count> expand_degrees(const pagen::core::DegreeHistogram& h,
                                  Count d_min) {
  std::vector<Count> out;
  Count total = 0;
  for (const auto& [deg, nodes] : h) total += deg >= d_min ? nodes : 0;
  out.reserve(total);
  for (const auto& [deg, nodes] : h) {
    if (deg >= d_min) out.insert(out.end(), nodes, deg);
  }
  return out;
}

pagen::graph::EdgeSource traced_source(pagen::graph::EdgeSource inner,
                                       SpanLog* log, SpanLog::Id parent) {
  pagen::graph::EdgeSource out = inner;
  out.visit_shard = [fn = std::move(inner.visit_shard), log, parent](
                        int shard, const pagen::graph::EdgeVisitor& visit) {
    const Scope span(log, "source.visit", parent);
    const SpanLog::Id id = span.id();
    fn(shard, [&visit, log, id](std::span<const pagen::graph::Edge> edges) {
      const Scope kernel(log, "kernel.visit", id);
      visit(edges);
    });
  };
  return out;
}

double rng_draw_meps(const pagen::PaConfig& config, Count pairs,
                     SpanLog* log, Checker& checks) {
  const pagen::DrawSchema schema(config);
  const pagen::NodeId first = config.x == 1 ? 2 : config.x + 1;
  const pagen::NodeId lo = config.x == 1 ? 1 : config.x;
  Count out_of_range = 0;
  Count direct = 0;
  pagen::Timer timer;
  {
    const Scope span(log, "rng.draw");
    for (pagen::NodeId t = first; t < first + pairs; ++t) {
      const pagen::NodeId k = schema.pick_k(t, 0, 0);
      direct += schema.pick_direct(t, 0, 0) ? 1 : 0;
      out_of_range += (k < lo || k >= t) ? 1 : 0;
    }
  }
  const double secs = timer.seconds();
  checks.expect("rng_draw_range",
                out_of_range == (checks.wrong("rng_draw_range") ? 1 : 0),
                std::to_string(out_of_range) + " picks out of range");
  // The coin's share must sit near p (binomial sd is far below 1%).
  const double share = static_cast<double>(direct) /
                       static_cast<double>(std::max<Count>(pairs, 1));
  const double p = checks.wrong("rng_coin_share") ? config.p + 0.25 : config.p;
  checks.expect("rng_coin_share", share > p - 0.01 && share < p + 0.01,
                "direct share " + std::to_string(share));
  return static_cast<double>(pairs) / secs * 1e-6;
}

Count decode_store(const std::string& dir, SpanLog* log) {
  const pagen::store::StoreManifest manifest = pagen::store::load_manifest(dir);
  Count decoded = 0;
  const Scope span(log, "store.decode");
  for (int r = 0; r < manifest.num_shards; ++r) {
    pagen::store::EdgeShardReader reader(
        pagen::store::shard_path(dir, r),
        static_cast<std::uint32_t>(manifest.block_edges));
    reader.visit([&decoded](std::span<const pagen::graph::Edge> e) {
      decoded += e.size();
    });
  }
  return decoded;
}

void fill_engine_counters(const pagen::core::ParallelResult& result,
                          Layers& layers) {
  for (const auto& c : result.comm_stats) {
    layers.mps_envelopes += static_cast<double>(c.envelopes_sent);
    layers.mps_bytes += static_cast<double>(c.bytes_sent);
  }
  const pagen::core::RankLoad total =
      pagen::core::merge_across_ranks(result.loads);
  layers.mps_requests = static_cast<double>(total.requests_sent);
  layers.mps_resolved = static_cast<double>(total.resolved_sent);
  layers.mps_retries = static_cast<double>(total.retries);
  layers.mps_max_queue_depth = static_cast<double>(total.max_queue_depth);
  double max_load = 0.0;
  double sum_load = 0.0;
  for (const auto& l : result.loads) {
    max_load = std::max(max_load, static_cast<double>(l.total_load()));
    sum_load += static_cast<double>(l.total_load());
  }
  if (sum_load > 0.0) {
    layers.partition_load_max_over_mean =
        max_load / (sum_load / static_cast<double>(result.loads.size()));
  }
}

BatchClock::BatchClock(int ranks, Count window_edges, std::int64_t start_ns)
    : window_edges_(window_edges),
      start_ns_(start_ns),
      lanes_(static_cast<std::size_t>(ranks)) {}

void BatchClock::tick(pagen::Rank r, std::size_t edges) {
  Lane& l = lanes_[static_cast<std::size_t>(r)];
  l.edges += edges;
  if (l.edges < window_edges_) return;
  l.window_end_ns.push_back(pagen::now_ns());
  l.edges -= window_edges_;
}

std::vector<double> BatchClock::rounds_ms() const {
  std::size_t rounds = SIZE_MAX;
  for (const Lane& l : lanes_) {
    rounds = std::min(rounds, l.window_end_ns.size());
  }
  if (lanes_.empty()) rounds = 0;
  std::vector<double> out;
  std::int64_t prev = start_ns_;
  for (std::size_t k = 0; k < rounds; ++k) {
    std::int64_t done = prev;
    for (const Lane& l : lanes_) done = std::max(done, l.window_end_ns[k]);
    out.push_back(static_cast<double>(done - prev) * 1e-6);
    prev = done;
  }
  return out;
}

}  // namespace perfbench
