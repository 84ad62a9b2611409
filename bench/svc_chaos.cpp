// Deterministic svc chaos harness (ISSUE 8 acceptance bench).
//
// Replays a seeded mixed workload against svc::Server while the service's
// own chaos plan injects job-attempt failures, result-store corruption, and
// checkpoint corruption, and every fourth cold spec additionally carries a
// transport-scope plan (rank crash + drop/dup) absorbed in-run by the
// respawn/reliable machinery. Around the main workload, two scripted
// drills exercise the overload ladder (shed + reject-with-hint against a
// paused queue) and the per-spec circuit breaker (a doomed spec fast-failed
// after k consecutive failures).
//
// The acceptance bar is the robustness determinism contract
// (docs/robustness.md §6): every non-shed, non-doomed job completes, every
// completed gather job's normalized edge hash equals the fault-free golden
// for its spec, at least one job provably resumed from checkpoints, and the
// breaker/shed paths both engaged. Reports to BENCH_svc_chaos.json.
//
//   ./svc_chaos                       # default: 48 jobs, 4 workers
//   ./svc_chaos --jobs=24 --scale=600 # CI TSan stress size
//
// The workload sequence, every chaos decision, and every job id are pure
// functions of --seed and the submission order (single-threaded submits),
// so a run replays exactly from its flags; wall-clock is measured for the
// report but never consulted for a decision.
#include <algorithm>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/generate.h"
#include "core/robustness_cli.h"
#include "graph/edge_list.h"
#include "rng/splitmix.h"
#include "svc/server.h"
#include "util/cli.h"
#include "util/hash.h"
#include "util/timer.h"

namespace {

using namespace pagen;

/// FNV-1a of the normalized edge list (same construction as
/// tests/genrt_golden_test.cpp and svc_throughput).
std::uint64_t hash_edges(graph::EdgeList edges) {
  graph::normalize(edges);
  Fnv1a h;
  for (const graph::Edge& e : edges) {
    h.word(e.u);
    h.word(e.v);
  }
  return h.digest();
}

/// Fault-free golden hashes, memoized by spec identity (the robustness
/// block is not part of spec_hash, so an armed spec shares its clean
/// golden).
class GoldenBook {
 public:
  std::uint64_t of(const svc::JobSpec& spec) {
    const std::uint64_t key = svc::spec_hash(spec);
    const auto it = book_.find(key);
    if (it != book_.end()) return it->second;
    core::ParallelOptions opt;
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

/// The reproducible-spec family (docs/serving.md §5).
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
  std::vector<std::string> keys = {"jobs",   "workers", "queue",
                                   "scale",  "seed",    "attempts",
                                   "crash-every", "stores", "out",
                                   "incidents-out"};
  for (const std::string& k : core::robustness_cli_keys()) keys.push_back(k);
  const Cli cli(argc, argv, std::move(keys));
  if (cli.help()) {
    std::cout << cli.usage("svc_chaos") << "\n";
    return 0;
  }
  const auto jobs = cli.get_u64("jobs", 48);
  const int workers = static_cast<int>(cli.get_u64("workers", 4));
  const auto queue_cap = cli.get_u64("queue", 8);
  const auto scale = static_cast<NodeId>(cli.get_u64("scale", 1200));
  const std::uint64_t seed = cli.get_u64("seed", 3);
  const auto attempts = static_cast<std::uint32_t>(cli.get_u64("attempts", 3));
  const auto crash_every = cli.get_u64("crash-every", 4);
  const auto stores = cli.get_u64("stores", 4);
  const std::string out_path = cli.get_str("out", "BENCH_svc_chaos.json");
  // Optional post-mortem dump: the server's bounded incident ring (flight
  // records of retries, quarantines, sheds) — CI uploads it on failure.
  const std::string incidents_out = cli.get_str("incidents-out", "");

  // Robustness flags: --fault-plan is the service chaos plan (default
  // covers all three svc-scope faults, with the injection window one
  // attempt short of the default budget so every chaos-hit job still
  // completes); --checkpoint-dir roots the per-job retry checkpoints
  // (default: a scratch dir wiped at start).
  core::ParallelOptions robust;
  robust.fault_plan = mps::FaultPlan::parse(
      "seed=9,jobfail=0.6@2,storecorrupt=0.5,ckptcorrupt=0.5");
  core::apply_robustness_cli(cli, robust);
  std::string ckpt_root = robust.checkpoint_dir;
  if (ckpt_root.empty()) {
    ckpt_root = (std::filesystem::temp_directory_path() / "pagen_svc_chaos")
                    .string();
  }
  std::filesystem::remove_all(ckpt_root);
  const std::string store_root = ckpt_root + "/stores";

  svc::ServerOptions server_options;
  server_options.workers = workers;
  server_options.queue_capacity = queue_cap;
  server_options.cache_entries = 0;  // every repeat probes disk integrity
  server_options.start_paused = true;  // for the scripted overload drill
  server_options.checkpoint_root = ckpt_root;
  server_options.checkpoint_every = 64;
  server_options.breaker_threshold = 2;
  server_options.breaker_cooldown = 1000;  // stays open for this run
  server_options.chaos = robust.fault_plan;
  svc::Server server(server_options);
  GoldenBook golden;
  rng::SplitMix64 draw(seed);

  struct InFlight {
    svc::JobId id;
    svc::JobSpec spec;
    std::int64_t submit_ns;
  };
  std::deque<InFlight> outstanding;
  std::vector<std::uint64_t> latencies_ns;
  Count verified = 0;
  Count mismatched = 0;
  Count completed_jobs = 0;
  Count unexpected_terminal = 0;
  Count full_retries = 0;

  const auto settle = [&](const InFlight& job) {
    const svc::JobStatus status = server.wait(job.id);
    if (status.state != svc::JobState::kCompleted) {
      ++unexpected_terminal;
      std::cerr << "job " << job.id << " ended " << to_string(status.state)
                << ": " << status.error << "\n";
      return;
    }
    ++completed_jobs;
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
  const auto submit_tracked = [&](const svc::JobSpec& spec) {
    svc::Server::Submitted sub = server.submit(spec);
    while (sub.reject == svc::Reject::kQueueFull) {
      ++full_retries;
      if (outstanding.empty()) break;
      settle(outstanding.front());
      outstanding.pop_front();
      sub = server.submit(spec);
    }
    if (sub.reject == svc::Reject::kNone) {
      outstanding.push_back({sub.id, spec, now_ns()});
    }
    return sub;
  };

  Timer wall;

  // --- Drill 1: the overload ladder, against the still-paused queue ---
  // Fill the queue with priority-0 work, then let higher-priority arrivals
  // shed the youngest of them; one more equal-priority submit earns a
  // reject with a retry-after hint. Scripted while paused so the shed set
  // is exact, not racing dispatch.
  std::vector<svc::JobId> shed_expected;
  Count overload_rejects = 0;
  {
    std::vector<svc::JobId> fillers;
    for (std::uint64_t q = 0; q < queue_cap; ++q) {
      svc::JobSpec spec = make_spec(scale / 4, q, 50 + q);
      spec.max_attempts = attempts;
      const auto sub = server.submit(spec);
      if (sub.reject != svc::Reject::kNone) break;
      fillers.push_back(sub.id);
      outstanding.push_back({sub.id, spec, now_ns()});
    }
    for (std::uint64_t h = 0; h < 2 && !fillers.empty(); ++h) {
      svc::JobSpec vip = make_spec(scale / 4, h, 70 + h);
      vip.max_attempts = attempts;
      vip.priority = 1;
      const auto sub = server.submit(vip);
      if (sub.reject == svc::Reject::kNone) {
        shed_expected.push_back(fillers.back());  // youngest lowest-priority
        fillers.pop_back();
        outstanding.push_back({sub.id, vip, now_ns()});
      }
    }
    svc::JobSpec extra = make_spec(scale / 4, 2, 90);
    extra.max_attempts = attempts;
    const auto rejected = server.submit(extra);
    if (rejected.reject == svc::Reject::kQueueFull &&
        rejected.retry_after > 0) {
      ++overload_rejects;
    }
  }
  // The shed victims are terminal before dispatch ever resumes; drop them
  // from the settle queue.
  for (const svc::JobId victim : shed_expected) {
    outstanding.erase(
        std::find_if(outstanding.begin(), outstanding.end(),
                     [&](const InFlight& f) { return f.id == victim; }));
    if (server.poll(victim).state != svc::JobState::kShed) {
      ++unexpected_terminal;
    }
  }
  server.resume();

  // --- Main workload: seeded mix under the chaos plan ---
  // Every crash_every-th job additionally rides a degraded transport
  // (scripted rank crash + drop/dup) absorbed in-run by respawn + reliable
  // delivery — faults below the job layer that must not consume attempts.
  for (std::uint64_t j = 0; j < jobs; ++j) {
    const std::uint64_t r = draw.next();
    svc::JobSpec spec = make_spec(scale, r, 1 + r % 6);
    spec.max_attempts = attempts;
    if (crash_every != 0 && j % crash_every == 1 && spec.ranks > 1) {
      spec.fault_plan = mps::FaultPlan::parse(
          "seed=" + std::to_string(11 + j) + ",crash=1@3,drop=0.02,dup=0.01");
      spec.max_respawns = 3;
    }
    (void)submit_tracked(spec);
  }

  // --- Store integrity segment: write, rot, quarantine, regenerate ---
  // Compressed-store producers run under storecorrupt chaos; each store is
  // then consumed twice via the probe path, which must quarantine a rotted
  // store and regenerate rather than serve poison.
  for (std::uint64_t s = 0; s < stores; ++s) {
    svc::JobSpec produce = make_spec(scale / 2, s, 200 + s);
    produce.max_attempts = attempts;
    produce.sink = svc::Sink::kCompressedStore;
    produce.store_dir = store_root + "/s" + std::to_string(s);
    (void)submit_tracked(produce);
  }
  while (!outstanding.empty()) {
    settle(outstanding.front());
    outstanding.pop_front();
  }
  for (std::uint64_t s = 0; s < stores; ++s) {
    for (int round = 0; round < 2; ++round) {
      svc::JobSpec consume = make_spec(scale / 2, s, 200 + s);
      consume.max_attempts = attempts;
      consume.store_dir = store_root + "/s" + std::to_string(s);
      (void)submit_tracked(consume);
      while (!outstanding.empty()) {
        settle(outstanding.front());
        outstanding.pop_front();
      }
    }
  }

  // --- Drill 2: the circuit breaker, on a doomed spec ---
  // A rank-crash with no respawn budget and no retry budget fails
  // terminally every time; after breaker_threshold consecutive failures
  // the spec is fast-failed at admission.
  Count doomed_failed = 0;
  Count breaker_rejects = 0;
  {
    svc::JobSpec doomed = make_spec(scale / 4, 0, 999);
    doomed.fault_plan = mps::FaultPlan::parse("crash=0@2");
    doomed.max_respawns = 0;
    doomed.max_attempts = 1;
    for (int k = 0; k < 3; ++k) {
      const auto sub = server.submit(doomed);
      if (sub.reject == svc::Reject::kCircuitOpen) {
        ++breaker_rejects;
        continue;
      }
      if (sub.reject != svc::Reject::kNone) continue;
      if (server.wait(sub.id).state == svc::JobState::kFailed) {
        ++doomed_failed;
      }
    }
  }

  server.shutdown(true);
  const double wall_secs = wall.seconds();

  const svc::ServerStats stats = server.stats();
  const std::vector<std::string> incidents = server.incidents();
  if (!incidents_out.empty()) {
    std::ofstream ilog(incidents_out, std::ios::trunc);
    for (const std::string& line : incidents) ilog << line << "\n";
  }
  const std::uint64_t p50 = percentile(latencies_ns, 0.50);
  const std::uint64_t p99 = percentile(latencies_ns, 0.99);

  // Acceptance: every non-shed, non-doomed job completed; every completed
  // gather hash matched its fault-free golden; at least one retry provably
  // resumed from checkpoints; the shed, breaker, and quarantine paths all
  // engaged.
  const bool ok = unexpected_terminal == 0 && mismatched == 0 &&
                  verified > 0 && stats.retries > 0 && stats.resumed > 0 &&
                  stats.shed == shed_expected.size() &&
                  !shed_expected.empty() && overload_rejects > 0 &&
                  breaker_rejects > 0 && doomed_failed == 2 &&
                  stats.failed == doomed_failed &&
                  stats.quarantined_stores > 0 && stats.queue_depth == 0 &&
                  stats.running == 0;

  std::ofstream os(out_path, std::ios::trunc);
  os << "{\n"
     << "  \"schema\": \"pagen.bench.svc_chaos.v1\",\n"
     << "  \"workload\": {\"jobs\": " << jobs << ", \"workers\": " << workers
     << ", \"queue_capacity\": " << queue_cap << ", \"scale\": " << scale
     << ", \"seed\": " << seed << ", \"attempts\": " << attempts
     << ", \"crash_every\": " << crash_every << ", \"stores\": " << stores
     << ",\n    \"chaos_plan\": \"" << server_options.chaos.to_string()
     << "\"},\n"
     << "  \"results\": {\n"
     << "    \"wall_seconds\": " << wall_secs << ",\n"
     << "    \"latency_p50_ns\": " << p50 << ",\n"
     << "    \"latency_p99_ns\": " << p99 << ",\n"
     << "    \"submitted\": " << stats.submits << ",\n"
     << "    \"accepted\": " << stats.accepted << ",\n"
     << "    \"jobs_completed\": " << stats.completed << ",\n"
     << "    \"retries\": " << stats.retries << ",\n"
     << "    \"resumptions\": " << stats.resumed << ",\n"
     << "    \"shed\": " << stats.shed << ",\n"
     << "    \"overload_rejects\": " << overload_rejects << ",\n"
     << "    \"circuit_open_rejects\": " << stats.circuit_open_rejects
     << ",\n"
     << "    \"doomed_failed\": " << doomed_failed << ",\n"
     << "    \"stores_quarantined\": " << stats.quarantined_stores << ",\n"
     << "    \"checkpoints_quarantined\": " << stats.quarantined_checkpoints
     << ",\n"
     << "    \"store_serves\": " << stats.cache_store_hits << ",\n"
     << "    \"queue_full_retries\": " << full_retries << ",\n"
     << "    \"hashes_verified\": " << verified << ",\n"
     << "    \"hashes_mismatched\": " << mismatched << ",\n"
     << "    \"unexpected_terminal\": " << unexpected_terminal << ",\n"
     << "    \"incidents\": " << incidents.size() << "\n"
     << "  },\n"
     << "  \"acceptance\": \"" << (ok ? "PASS" : "FAIL")
     << ": all non-shed jobs completed with golden hashes under chaos, >= 1 "
        "checkpoint resumption, shed + breaker + quarantine engaged\"\n"
     << "}\n";

  std::cout << "svc_chaos: " << stats.completed << " completed, "
            << stats.retries << " retries, " << stats.resumed
            << " resumed, " << stats.shed << " shed, "
            << stats.quarantined_stores << " stores + "
            << stats.quarantined_checkpoints
            << " checkpoints quarantined, breaker rejects "
            << stats.circuit_open_rejects << ", verified " << verified
            << ", mismatched " << mismatched << " in " << wall_secs
            << " s -> " << (ok ? "PASS" : "FAIL") << " (" << out_path
            << ")\n";
  std::filesystem::remove_all(ckpt_root);
  return ok ? 0 : 1;
}
