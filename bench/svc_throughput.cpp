// Generation-as-a-service load driver (ISSUE 5 acceptance bench).
//
// Replays a seeded mixed workload against svc::Server: hot repeated specs
// (result-cache serves), cold unique specs (full generation), and mid-flight
// cancels — with backpressure handled the way a real client would (wait for
// the oldest outstanding job, then resubmit). Every completed gather job's
// normalized edge hash is verified against a direct core::generate() golden
// hash for the same spec, so the run proves end-to-end determinism, not
// just liveness. Reports jobs/sec and tail latency to BENCH_svc.json.
//
//   ./svc_throughput                          # default: 96 jobs, 8 workers
//   ./svc_throughput --jobs=64 --scale=1000   # CI TSan stress size
//   ./svc_throughput --fault-plan=seed=9,drop=0.02 --reliable --rto=5:80
//       --checkpoint-dir=/tmp/ckpt --attempts=3    # degraded-transport drill
//
// The workload sequence is a pure function of --seed (SplitMix64 draws);
// wall-clock is measured for the report but never consulted for a decision.
#include <algorithm>
#include <cstdint>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/engine/engine_cli.h"
#include "core/generate.h"
#include "core/robustness_cli.h"
#include "graph/edge_list.h"
#include "obs/config.h"
#include "obs/session.h"
#include "rng/splitmix.h"
#include "svc/server.h"
#include "util/cli.h"
#include "util/hash.h"
#include "util/timer.h"

namespace {

using namespace pagen;

/// FNV-1a of the normalized edge list — the golden-identity fingerprint
/// (same construction as tests/genrt_golden_test.cpp).
std::uint64_t hash_edges(graph::EdgeList edges) {
  graph::normalize(edges);
  Fnv1a h;
  for (const graph::Edge& e : edges) {
    h.word(e.u);
    h.word(e.v);
  }
  return h.digest();
}

/// Direct-generate golden hash for a spec, computed (and memoized) with the
/// exact ParallelOptions a Server worker would derive.
class GoldenBook {
 public:
  std::uint64_t of(const svc::JobSpec& spec) {
    const std::uint64_t key = svc::spec_hash(spec);
    const auto it = book_.find(key);
    if (it != book_.end()) return it->second;
    core::ParallelOptions opt;
    opt.engine = spec.engine;
    opt.ranks = spec.ranks;
    opt.scheme = spec.scheme;
    opt.buffer_capacity = spec.buffer_capacity;
    opt.node_batch = spec.node_batch;
    const std::uint64_t h = hash_edges(core::generate(spec.config, opt).edges);
    book_.emplace(key, h);
    return h;
  }

 private:
  std::map<std::uint64_t, std::uint64_t> book_;
};

/// The reproducible-spec family (docs/serving.md §5): x = 1 on any rank
/// count, x > 1 single-rank — the specs whose regeneration is bitwise
/// repeatable, so served output can be checked against a golden hash.
svc::JobSpec make_spec(NodeId scale, std::uint64_t variant,
                       std::uint64_t seed) {
  svc::JobSpec spec;
  spec.sink = svc::Sink::kGather;
  spec.config.seed = seed;
  switch (variant % 4) {
    case 0:
      spec.config.n = scale;
      spec.config.x = 1;
      spec.ranks = 4;
      spec.scheme = partition::Scheme::kRrp;
      break;
    case 1:
      spec.config.n = scale + scale / 2;
      spec.config.x = 1;
      spec.ranks = 2;
      spec.scheme = partition::Scheme::kUcp;
      break;
    case 2:
      spec.config.n = scale / 2;
      spec.config.x = 4;
      spec.ranks = 1;  // x > 1 is only repeatable single-rank
      break;
    default:
      spec.config.n = scale;
      spec.config.x = 1;
      spec.ranks = 3;
      spec.scheme = partition::Scheme::kLcp;
      break;
  }
  return spec;
}

std::uint64_t percentile(std::vector<std::uint64_t>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> keys = {"jobs",         "workers",   "queue",
                                   "cache",        "scale",     "seed",
                                   "cancel-every", "hot-specs", "attempts",
                                   "out"};
  for (const std::string& k : core::engine_cli_keys()) keys.push_back(k);
  for (const std::string& k : obs::cli_keys()) keys.push_back(k);
  for (const std::string& k : core::robustness_cli_keys()) keys.push_back(k);
  const Cli cli(argc, argv, std::move(keys));
  if (cli.help()) {
    std::cout << cli.usage("svc_throughput") << "\n";
    return 0;
  }
  const auto jobs = cli.get_u64("jobs", 96);
  const int workers = static_cast<int>(cli.get_u64("workers", 8));
  const auto queue_cap = cli.get_u64("queue", 24);
  const auto cache_entries = cli.get_u64("cache", 16);
  const auto scale = static_cast<NodeId>(cli.get_u64("scale", 4000));
  const std::uint64_t seed = cli.get_u64("seed", 1);
  const auto cancel_every = cli.get_u64("cancel-every", 9);
  const auto hot_specs = cli.get_u64("hot-specs", 4);
  const auto attempts = static_cast<std::uint32_t>(cli.get_u64("attempts", 1));
  const std::string out_path = cli.get_str("out", "BENCH_svc.json");

  // Robustness flags (docs/robustness.md): collected into a ParallelOptions
  // scratch, then split by scope — the fault plan's transport keys plus
  // --reliable/--rto ride on every JobSpec, the svc-scope keys drive the
  // server's chaos injection, and --checkpoint-dir roots per-job retry
  // checkpoints.
  core::ParallelOptions robust;
  core::apply_robustness_cli(cli, robust);

  svc::ServerOptions server_options;
  server_options.workers = workers;
  server_options.queue_capacity = queue_cap;
  server_options.cache_entries = cache_entries;
  server_options.checkpoint_root = robust.checkpoint_dir;
  server_options.chaos = robust.fault_plan;
  svc::Server server(server_options);

  const std::string engine = cli.get_str("engine", "mps");
  const auto arm_spec = [&](svc::JobSpec spec) {
    spec.engine = engine;
    spec.max_attempts = attempts;
    spec.fault_plan = robust.fault_plan;
    spec.fault_plan.jobfail = 0.0;  // svc-scope keys stay server-side
    spec.fault_plan.storecorrupt = 0.0;
    spec.fault_plan.ckptcorrupt = 0.0;
    spec.reliable = robust.reliable;
    spec.rto_base_ms = robust.rto_base_ms;
    spec.rto_max_ms = robust.rto_max_ms;
    return spec;
  };
  GoldenBook golden;
  rng::SplitMix64 draw(seed);

  struct InFlight {
    svc::JobId id;
    svc::JobSpec spec;
    std::int64_t submit_ns;
    bool cancelled;
  };
  std::deque<InFlight> outstanding;
  std::vector<std::uint64_t> latencies_ns;
  Count verified = 0;
  Count mismatched = 0;
  Count cancels_sent = 0;
  Count full_retries = 0;

  const auto settle = [&](const InFlight& job) {
    const svc::JobStatus status = server.wait(job.id);
    if (status.state != svc::JobState::kCompleted) return;
    latencies_ns.push_back(
        static_cast<std::uint64_t>(now_ns() - job.submit_ns));
    if (status.output != nullptr && !status.output->edges.empty()) {
      if (hash_edges(status.output->edges) == golden.of(job.spec)) {
        ++verified;
      } else {
        ++mismatched;
        std::cerr << "HASH MISMATCH for job " << job.id << "\n";
      }
    }
  };

  Timer wall;
  for (std::uint64_t j = 0; j < jobs; ++j) {
    // ~2/3 hot repeats over a small spec pool, ~1/3 cold unique specs.
    const std::uint64_t r = draw.next();
    const bool hot = r % 3 != 0;
    const svc::JobSpec spec =
        arm_spec(hot ? make_spec(scale, r, /*seed=*/1 + r % hot_specs)
                     : make_spec(scale, r, /*seed=*/1000 + j));

    svc::Server::Submitted sub = server.submit(spec);
    while (sub.reject == svc::Reject::kQueueFull) {
      // Backpressure: the client drains its oldest outstanding job and
      // retries — admission control sheds load without buffering it.
      ++full_retries;
      if (outstanding.empty()) break;
      settle(outstanding.front());
      outstanding.pop_front();
      sub = server.submit(spec);
    }
    if (sub.reject != svc::Reject::kNone) continue;

    InFlight job{sub.id, spec, now_ns(), false};
    if (!sub.from_cache && cancel_every != 0 && j % cancel_every == 2) {
      // Mid-flight (or still-queued) cancel of a job just admitted.
      job.cancelled = server.cancel(sub.id);
      cancels_sent += job.cancelled ? 1 : 0;
    }
    outstanding.push_back(job);
  }
  for (const InFlight& job : outstanding) settle(job);
  server.shutdown(true);
  const double wall_secs = wall.seconds();

  // Live service telemetry exports: the server's own svc.* registry (latency
  // stage histograms, admission counters) as deterministic JSON and/or
  // Prometheus text, plus an instrumented replay of one representative spec
  // when a causal trace was requested.
  const obs::Config obs_cfg = obs::config_from_cli(cli);
  if (!obs_cfg.metrics_out.empty()) {
    std::ofstream ms(obs_cfg.metrics_out, std::ios::trunc);
    server.write_metrics(ms);
  }
  if (!obs_cfg.prom_out.empty()) {
    std::ofstream ps(obs_cfg.prom_out, std::ios::trunc);
    server.write_prometheus(ps);
  }
  if (!obs_cfg.trace_out.empty()) {
    // The replay session owns only the trace artifact — metrics/prom above
    // come from the server's own registry, and a Session pre-truncates
    // every output path it is configured with.
    obs::Config replay_cfg = obs_cfg;
    replay_cfg.metrics_out.clear();
    replay_cfg.prom_out.clear();
    const svc::JobSpec spec = make_spec(scale, /*variant=*/0, /*seed=*/1);
    obs::Session session(spec.ranks, replay_cfg);
    core::ParallelOptions opt;
    opt.engine = spec.engine;
    opt.ranks = spec.ranks;
    opt.scheme = spec.scheme;
    opt.buffer_capacity = spec.buffer_capacity;
    opt.node_batch = spec.node_batch;
    opt.obs = &session;
    (void)core::generate(spec.config, opt);
    (void)session.export_files();
  }

  const svc::ServerStats stats = server.stats();
  const std::vector<std::string> incidents = server.incidents();
  const Count terminal = stats.completed + stats.cancelled + stats.expired +
                         stats.failed;
  const bool all_terminal = terminal == stats.accepted;
  const bool ok = mismatched == 0 && stats.failed == 0 && all_terminal &&
                  stats.cache_hits > 0 && verified > 0 &&
                  stats.queue_depth == 0 && stats.running == 0;

  const std::uint64_t p50 = percentile(latencies_ns, 0.50);
  const std::uint64_t p99 = percentile(latencies_ns, 0.99);
  const double jobs_per_sec =
      wall_secs > 0.0 ? static_cast<double>(stats.completed) / wall_secs : 0.0;

  std::ofstream os(out_path, std::ios::trunc);
  os << "{\n"
     << "  \"schema\": \"pagen.bench.svc.v1\",\n"
     << "  \"workload\": {\"jobs\": " << jobs << ", \"workers\": " << workers
     << ", \"queue_capacity\": " << queue_cap
     << ", \"cache_entries\": " << cache_entries
     << ", \"scale\": " << scale << ", \"seed\": " << seed
     << ", \"cancel_every\": " << cancel_every
     << ", \"hot_specs\": " << hot_specs << "},\n"
     << "  \"results\": {\n"
     << "    \"wall_seconds\": " << wall_secs << ",\n"
     << "    \"jobs_per_sec\": " << jobs_per_sec << ",\n"
     << "    \"latency_p50_ns\": " << p50 << ",\n"
     << "    \"latency_p99_ns\": " << p99 << ",\n"
     << "    \"submitted\": " << stats.submits << ",\n"
     << "    \"accepted\": " << stats.accepted << ",\n"
     << "    \"completed\": " << stats.completed << ",\n"
     << "    \"cancelled\": " << stats.cancelled << ",\n"
     << "    \"expired\": " << stats.expired << ",\n"
     << "    \"failed\": " << stats.failed << ",\n"
     << "    \"queue_full_retries\": " << full_retries << ",\n"
     << "    \"cancels_sent\": " << cancels_sent << ",\n"
     << "    \"cache_hits\": " << stats.cache_hits << ",\n"
     << "    \"cache_store_hits\": " << stats.cache_store_hits << ",\n"
     << "    \"cache_misses\": " << stats.cache_misses << ",\n"
     << "    \"hashes_verified\": " << verified << ",\n"
     << "    \"hashes_mismatched\": " << mismatched << ",\n"
     << "    \"incidents\": " << incidents.size() << "\n"
     << "  },\n"
     << "  \"acceptance\": \"" << (ok ? "PASS" : "FAIL")
     << ": zero wedged workers, cache hits > 0, every completed gather job "
        "hash-equal to direct generate\"\n"
     << "}\n";

  std::cout << "svc_throughput: " << stats.completed << " completed / "
            << stats.cancelled << " cancelled / " << stats.expired
            << " expired / " << stats.failed << " failed in "
            << wall_secs << " s (" << jobs_per_sec << " jobs/s); "
            << "cache hits " << stats.cache_hits << ", verified "
            << verified << ", mismatched " << mismatched << ", incidents "
            << incidents.size() << " -> "
            << (ok ? "PASS" : "FAIL") << " (" << out_path << ")\n";
  return ok ? 0 : 1;
}
