// svc-closed: generation as a service under a closed loop. One
// svc::Server (2 workers), 2 client threads that each submit a job, wait
// for it, then submit the next. Each client deals its jobs from a fixed
// deck, the same for every seed; the benchmark seed picks the order and
// the graph seeds. The kinds of job:
//
//   cold        x = 1 gather job, unique seed (mps or commfree, ranks = 1,
//               n spread over [2e5, 1e6])
//   cold-store  the same shape with Sink::kCompressedStore into a fresh
//               directory: the edges stream into a sealed compressed store
//   hot         a repeat of a gather spec this client completed: served
//               from the in-memory result cache
//   store-serve a gather repeat of a spec whose compressed store this
//               client sealed (in setup or as a cold-store job): served by
//               block-decoding the sealed store
//
// A client repeats only specs it has itself completed and the cache never
// evicts, so which submits hit is known exactly in advance. Every gather
// and store-served output's hash is checked against a direct generate()
// golden after the timed phase.
#include <algorithm>
#include <cmath>
#include <atomic>
#include <deque>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/powerlaw_fit.h"
#include "common.h"
#include "core/distributed_degree.h"
#include "core/generate.h"
#include "rng/splitmix.h"
#include "store/edge_writer.h"
#include "store/graph_view.h"
#include "svc/server.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using namespace pagen;

/// Phases per untraced run (at least); each gets a fresh server.
constexpr std::size_t kMinPhases = 2;

struct Params {
  int workers = 2;
  int clients = 2;
  std::size_t jobs_per_client = 100;
  NodeId n_min = 200'000;  // cold job sizes span [n_min, n_max]
  NodeId n_max = 1'000'000;
  NodeId preseal_n = 500'000;
  int preseals_per_client = 2;
  Count rng_pairs = 20'000'000;
};

Params params_for(const Options& o) {
  Params p;
  if (o.smoke) {
    p.jobs_per_client = 12;
    p.n_min = 20'000;
    p.n_max = 100'000;
    p.preseal_n = 50'000;
    p.rng_pairs = 200'000;
  }
  return p;
}

enum class Kind { kCold, kColdStore, kHot, kStoreServe };

bool is_hit(Kind k) { return k == Kind::kHot || k == Kind::kStoreServe; }

svc::JobSpec cold_spec(NodeId n, bool mps, std::uint64_t seed) {
  svc::JobSpec spec;
  spec.config.n = n;
  spec.config.x = 1;
  spec.config.p = 0.5;
  spec.config.seed = seed;
  spec.engine = mps ? "mps" : "commfree";
  // One rank: at these sizes a second rank does not shorten a job, and two
  // concurrent 2-rank jobs would keep every core of a 4-core machine busy.
  spec.ranks = 1;
  spec.scheme = partition::Scheme::kRrp;
  spec.sink = svc::Sink::kGather;
  return spec;
}

template <typename T>
void shuffle(std::vector<T>& v, rng::SplitMix64& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next() % i]);
  }
}

/// One card of a client's job deck.
struct Entry {
  Kind kind = Kind::kCold;
  NodeId n = 0;      // cold kinds only
  bool mps = false;  // cold kinds only: mps, else commfree
};

struct Job {
  svc::JobSpec spec;
  Kind kind = Kind::kCold;
  svc::Reject reject = svc::Reject::kNone;
  svc::JobState state = svc::JobState::kQueued;
  bool from_cache = false;
  double latency_ms = 0.0;
  double submit_us = 0.0;
  Count total_edges = 0;
  std::shared_ptr<const svc::JobOutput> output;  // dropped after hashing
  std::uint64_t hash = 0;
  bool has_edges = false;
};

struct Client {
  int id = 0;
  rng::SplitMix64 rng{0};
  std::vector<Entry> deck;
  std::vector<svc::JobSpec> gathered;  // repeatable from the memory cache
  std::deque<svc::JobSpec> sealed;     // sealed stores not yet served
  int stores = 0;
  std::vector<Job> jobs;
};

/// Per client: 12% store-serve, 18% hot, 42% cold-store and 28% cold.
/// Each cold kind's sizes spread over [n_min, n_max] (denser toward n_min,
/// which bounds memory) and alternate mps / commfree, so the latency
/// distribution has no gaps for p50 or p95 to straddle. Only the order
/// depends on the seed.
void deal(Client& c, const Params& p) {
  const auto share = [&p](double f) {
    return static_cast<std::size_t>(
        std::lround(f * static_cast<double>(p.jobs_per_client)));
  };
  const std::size_t serves = share(0.12);
  const std::size_t hot = share(0.18);
  const std::size_t stores = share(0.42);
  const std::size_t colds = p.jobs_per_client - serves - hot - stores;
  c.deck.assign(serves, Entry{Kind::kStoreServe, 0, false});
  c.deck.insert(c.deck.end(), hot, Entry{Kind::kHot, 0, false});
  for (const auto& [kind, count] :
       {std::pair{Kind::kColdStore, stores}, std::pair{Kind::kCold, colds}}) {
    for (std::size_t i = 0; i < count; ++i) {
      const double f =
          count > 1 ? static_cast<double>(i) / static_cast<double>(count - 1)
                    : 0.0;
      const auto span = static_cast<double>(p.n_max - p.n_min);
      const NodeId n = p.n_min + static_cast<NodeId>(span * f * f) / 1000 * 1000;
      c.deck.push_back(Entry{kind, n, i % 2 == 0});
    }
  }
  shuffle(c.deck, c.rng);
}

/// One server lifetime: setup, the closed-loop phase, and what it produced.
struct Phase {
  std::string root;
  std::unique_ptr<svc::Server> server;
  std::vector<Client> clients;
  std::vector<std::string> presealed;  // store dirs sealed during setup
  std::vector<std::string> sealed;     // every store sealed (setup + phase)
  double wall_s = 0.0;
  double jobs_s = 0.0;
  double reload_s = 0.0;
  double analyze_s = 0.0;
  Count analyzed_edges = 0;  // per analysis pass
  double gamma = 0.0;
  double store_bytes = 0.0;  // over every sealed store
  double store_edges = 0.0;
  double store_blocks = 0.0;
  svc::ServerStats stats;
  std::string metrics_json;
};

std::string store_dir(const Phase& ph, int client, const std::string& tag) {
  return ph.root + "/c" + std::to_string(client) + "-" + tag;
}

/// What setup_s times: constructing the Server and pre-sealing the
/// compressed stores that the phase's first store-served jobs reuse.
double prepare(Phase& ph, const Params& p, std::uint64_t seed,
               Checker& checks) {
  ph.server.reset();
  remove_dir(ph.root);
  ph.clients.clear();
  ph.presealed.clear();
  ph.sealed.clear();
  Timer timer;
  svc::ServerOptions so;
  so.workers = p.workers;
  so.queue_capacity = 16;
  so.cache_entries = 1 << 16;  // never evicts: hit counts stay exact
  ph.server = std::make_unique<svc::Server>(so);
  std::vector<std::pair<svc::JobId, svc::JobSpec>> pending;
  for (int c = 0; c < p.clients; ++c) {
    Client client;
    client.id = c;
    client.rng = rng::SplitMix64(derive_seed(seed, 100 + c));
    for (int k = 0; k < p.preseals_per_client; ++k) {
      svc::JobSpec spec = cold_spec(p.preseal_n, k % 2 == 0, client.rng.next());
      spec.sink = svc::Sink::kCompressedStore;
      spec.store_dir = store_dir(ph, c, "pre" + std::to_string(k));
      const svc::Server::Submitted sub = ph.server->submit(spec);
      const svc::Reject want = checks.wrong("preseal_accepted")
                                   ? svc::Reject::kQueueFull
                                   : svc::Reject::kNone;
      checks.expect("preseal_accepted", sub.reject == want,
                    svc::to_string(sub.reject));
      if (sub.reject == svc::Reject::kNone) pending.emplace_back(sub.id, spec);
      client.sealed.push_back(spec);
      ph.presealed.push_back(spec.store_dir);
    }
    deal(client, p);
    ph.clients.push_back(std::move(client));
  }
  for (const auto& [id, spec] : pending) {
    const svc::JobStatus st = ph.server->wait(id);
    const svc::JobState want = checks.wrong("preseal_completed")
                                   ? svc::JobState::kFailed
                                   : svc::JobState::kCompleted;
    checks.expect("preseal_completed", st.state == want,
                  svc::to_string(st.state));
  }
  const double secs = timer.seconds();
  ph.sealed = ph.presealed;
  return secs;
}

void client_loop(svc::Server& server, Client& c, const Phase& ph,
                 SpanLog* log) {
  for (std::size_t j = 0; j < c.deck.size(); ++j) {
    // A hit needs something to repeat: until then, swap in the deck's next
    // cold entry (the counts per kind stay fixed).
    const auto ready = [&c](Kind k) {
      return k == Kind::kStoreServe ? !c.sealed.empty()
             : k == Kind::kHot      ? !c.gathered.empty()
                                    : true;
    };
    for (std::size_t k = j + 1; !ready(c.deck[j].kind) && k < c.deck.size();
         ++k) {
      if (!is_hit(c.deck[k].kind)) std::swap(c.deck[j], c.deck[k]);
    }
    const Entry& card = c.deck[j];
    if (!ready(card.kind)) continue;  // no cold entry left to swap in
    Job job;
    job.kind = card.kind;
    if (job.kind == Kind::kStoreServe) {
      job.spec = c.sealed.front();
      job.spec.sink = svc::Sink::kGather;  // same graph, now delivered
      c.sealed.pop_front();
    } else if (job.kind == Kind::kHot) {
      job.spec = c.gathered[c.rng.next() % c.gathered.size()];
    } else {
      job.spec = cold_spec(card.n, card.mps, c.rng.next());
      if (job.kind == Kind::kColdStore) {
        job.spec.sink = svc::Sink::kCompressedStore;
        job.spec.store_dir = store_dir(ph, c.id, std::to_string(c.stores++));
      }
    }
    const Scope span(log, "svc.job");
    const Timer latency;
    svc::Server::Submitted sub;
    {
      const Scope submit(log, "svc.submit", span.id());
      const Timer t;
      sub = server.submit(job.spec);
      job.submit_us = t.seconds() * 1e6;
    }
    job.reject = sub.reject;
    if (sub.reject == svc::Reject::kNone) {
      const Scope wait(log, "svc.wait", span.id());
      const svc::JobStatus st = server.wait(sub.id);
      job.state = st.state;
      job.from_cache = st.from_cache;
      job.output = st.output;
    }
    job.latency_ms = latency.millis();
    if (job.output != nullptr) job.total_edges = job.output->total_edges;
    if (job.state == svc::JobState::kCompleted) {
      if (job.kind == Kind::kColdStore) {
        c.sealed.push_back(job.spec);
      } else if (job.kind != Kind::kHot) {
        c.gathered.push_back(job.spec);
      }
    }
    c.jobs.push_back(std::move(job));
  }
}

/// The closed-loop phase, then the client-side analysis of the pre-sealed
/// stores: reopen, degree distribution and fit, in kAnalysisPasses passes of
/// which the median counts (the pass is short, so one pass is noisy).
void run_phase(Phase& ph, SpanLog* log) {
  constexpr int kAnalysisPasses = 9;
  const Timer wall;
  {
    std::vector<std::thread> threads;
    for (Client& c : ph.clients) {
      threads.emplace_back(
          [&ph, &c, log] { client_loop(*ph.server, c, ph, log); });
    }
    for (std::thread& t : threads) t.join();
  }
  ph.jobs_s = wall.seconds();

  std::vector<double> reload_s;
  std::vector<double> analyze_s;
  for (int pass = 0; pass < kAnalysisPasses; ++pass) {
    const Timer analyze;
    double reload = 0.0;
    Count edges = 0;
    std::vector<double> gammas;
    for (const std::string& dir : ph.presealed) {
      const Timer timer;
      core::DegreeHistogram hist;
      {
        std::optional<store::ShardedGraphView> view;
        {
          const Scope open(log, "store.open");
          view.emplace(dir, std::uint64_t{256} << 20);
        }
        const Scope degree(log, "kernel.degree");
        graph::EdgeSource source = view->merged_edge_source();
        if (log != nullptr) source = traced_source(source, log, degree.id());
        hist = core::distributed_degree_distribution(source,
                                                     partition::Scheme::kRrp);
        edges += view->manifest().total_edges();
      }
      reload += timer.seconds();
      const Scope fit(log, "analysis.fit");
      gammas.push_back(
          analysis::fit_gamma_mle(expand_degrees(hist, 1), 1).gamma);
    }
    reload_s.push_back(reload);
    analyze_s.push_back(analyze.seconds());
    ph.analyzed_edges = edges;
    ph.gamma = median(gammas);
  }
  ph.reload_s = median(reload_s);
  ph.analyze_s = median(analyze_s);
  ph.wall_s = wall.seconds();
  ph.stats = ph.server->stats();
  std::ostringstream os;
  ph.server->write_metrics(os);
  ph.metrics_json = os.str();
}

/// Hash every delivered edge list, drop the outputs, total the sealed
/// stores, and free the server (it keeps every output it produced).
void settle(Phase& ph) {
  for (Client& c : ph.clients) {
    for (Job& job : c.jobs) {
      if (job.output != nullptr && !job.output->edges.empty()) {
        job.hash = multiset_hash(job.output->edges);
        job.has_edges = true;
      }
      job.output.reset();
      if (job.kind == Kind::kColdStore &&
          job.state == svc::JobState::kCompleted) {
        ph.sealed.push_back(job.spec.store_dir);
      }
    }
  }
  ph.server.reset();
  for (const std::string& dir : ph.sealed) {
    const store::StoreManifest m = store::load_manifest(dir);
    ph.store_bytes += static_cast<double>(m.total_bytes());
    ph.store_edges += static_cast<double>(m.total_edges());
    for (const auto& shard : m.shards) {
      ph.store_blocks += static_cast<double>(shard.blocks);
    }
  }
}

/// A field of one histogram in the server's metrics JSON.
double metric_field(const std::string& json, const std::string& name,
                    const std::string& field) {
  const std::size_t at = json.find("\"" + name + "\": {");
  if (at == std::string::npos) return 0.0;
  const std::size_t f = json.find("\"" + field + "\": ", at);
  if (f == std::string::npos) return 0.0;
  return std::stod(json.substr(f + field.size() + 4));
}

/// Direct-generate golden hashes of every distinct spec a gather output
/// was delivered for, computed with the options a Server worker derives.
std::map<std::uint64_t, std::uint64_t> goldens(const std::deque<Phase>& phases) {
  std::map<std::uint64_t, svc::JobSpec> specs;
  for (const Phase& ph : phases) {
    for (const Client& c : ph.clients) {
      for (const Job& j : c.jobs) {
        if (j.has_edges) specs.emplace(svc::spec_hash(j.spec), j.spec);
      }
    }
  }
  std::vector<std::pair<std::uint64_t, svc::JobSpec>> todo(specs.begin(),
                                                           specs.end());
  std::vector<std::uint64_t> hashes(todo.size(), 0);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {  // single-rank generates, one core free
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < todo.size(); i = next++) {
        const svc::JobSpec& spec = todo[i].second;
        core::ParallelOptions opt;
        opt.engine = spec.engine;
        opt.ranks = spec.ranks;
        opt.scheme = spec.scheme;
        opt.buffer_capacity = spec.buffer_capacity;
        opt.node_batch = spec.node_batch;
        hashes[i] = multiset_hash(core::generate(spec.config, opt).edges);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::map<std::uint64_t, std::uint64_t> out;
  for (std::size_t i = 0; i < todo.size(); ++i) {
    out.emplace(todo[i].first, hashes[i]);
  }
  return out;
}

struct Tally {
  Count jobs = 0;
  Count hot = 0;
  Count store_serves = 0;
  Count cold = 0;
  Count cold_edges = 0;
  std::vector<double> latency_ms;
  std::vector<double> hit_latency_ms;
  std::vector<double> submit_us;
};

Tally tally(const Phase& ph) {
  Tally t;
  for (const Client& c : ph.clients) {
    for (const Job& j : c.jobs) {
      ++t.jobs;
      t.latency_ms.push_back(j.latency_ms);
      t.submit_us.push_back(j.submit_us);
      if (is_hit(j.kind)) {
        t.hit_latency_ms.push_back(j.latency_ms);
        ++(j.kind == Kind::kHot ? t.hot : t.store_serves);
      } else {
        ++t.cold;
        t.cold_edges += j.total_edges;
      }
    }
  }
  return t;
}

void check_phase(const Phase& ph, const Tally& t,
                 const std::map<std::uint64_t, std::uint64_t>& golden,
                 Checker& checks) {
  for (const Client& c : ph.clients) {
    for (const Job& j : c.jobs) {
      const bool done = j.reject == svc::Reject::kNone &&
                        j.state == svc::JobState::kCompleted;
      const bool want_done = !checks.wrong("job_completed");
      checks.expect("job_completed", done == want_done,
                    std::string(svc::to_string(j.reject)) + " / " +
                        svc::to_string(j.state));
      const bool want_cache = is_hit(j.kind) != checks.wrong("job_served_as_expected");
      checks.expect("job_served_as_expected", j.from_cache == want_cache,
                    "from_cache differs from the client's expectation");
      if (j.kind == Kind::kColdStore) {
        checks.expect("store_job_edges",
                      j.total_edges == expected_edge_count(j.spec.config) +
                                           (checks.wrong("store_job_edges") ? 1 : 0),
                      std::to_string(j.total_edges) + " edges stored");
        continue;
      }
      const auto g = golden.find(svc::spec_hash(j.spec));
      const std::uint64_t want =
          (g == golden.end() ? 0 : g->second) ^
          (checks.wrong("job_hash") ? 1 : 0);
      checks.expect("job_hash", j.has_edges && j.hash == want,
                    "delivered edges differ from direct generate()");
    }
  }
  checks.expect("store_hits_exact",
                ph.stats.cache_store_hits ==
                    t.store_serves + (checks.wrong("store_hits_exact") ? 1 : 0),
                std::to_string(ph.stats.cache_store_hits) + " store hits");
  // A store-served submit first finds the cold-store job's edge-less
  // output in the memory cache (a lookup hit that cannot serve a gather).
  checks.expect("cache_hits_exact",
                ph.stats.cache_hits ==
                    t.hot + t.store_serves +
                        (checks.wrong("cache_hits_exact") ? 1 : 0),
                std::to_string(ph.stats.cache_hits) + " cache hits");
  checks.expect("no_failed_jobs",
                ph.stats.failed == (checks.wrong("no_failed_jobs") ? 1U : 0U),
                std::to_string(ph.stats.failed) + " failed");
}

void record_params(Report& r, const Params& p) {
  r.param("engine", "mps|commfree (per job)");
  r.param("workers", p.workers);
  r.param("clients", p.clients);
  r.param("loop", "closed: submit, wait, submit the next");
  r.param("jobs_per_client", p.jobs_per_client);
  r.param("x", 1);
  r.param("p", 0.5);
  r.param("ranks_per_job", 1);
  r.param("sizes", std::to_string(p.n_min) + ".." + std::to_string(p.n_max) +
                       " (n_min + (n_max - n_min) * f^2, f evenly spaced)");
  r.param("preseal_n", p.preseal_n);
  r.param("preseals_per_client", p.preseals_per_client);
  r.param("mix", "store-serve 12%, hot 18%, cold-store 42%, cold 28%");
}

}  // namespace

Report run_svc_closed(const Options& o) {
  Report report(o);
  const Params p = params_for(o);
  record_params(report, p);

  // Every phase gets a fresh server and fresh stores; set-ups of scratch
  // servers before the phase's own make the set-up median steadier.
  std::vector<double> setups;
  std::deque<Phase> phases;
  const auto next_phase = [&](SpanLog* log) -> Phase& {
    for (std::size_t i = 1; i < kSetupsPerPass; ++i) {
      Phase scratch;
      scratch.root = o.work_dir + "/svc/setup";
      setups.push_back(prepare(scratch, p, o.seed, report.checks));
    }
    Phase& ph = phases.emplace_back();
    ph.root = o.work_dir + "/svc/phase" + std::to_string(phases.size());
    setups.push_back(prepare(ph, p, o.seed, report.checks));
    run_phase(ph, log);
    settle(ph);
    return ph;
  };
  SpanLog log;
  if (!o.trace) {
    const Timer measured;
    do {
      const Phase& ph = next_phase(nullptr);
      std::cerr << "svc-closed phase " << phases.size() << ": jobs "
                << ph.jobs_s << " s, analyze " << ph.analyze_s << " s\n";
    } while (more_reps(phases.size(), kMinPhases, measured.seconds(),
                       o.seconds));
  } else {
    next_phase(nullptr);
    next_phase(&log);
  }

  const auto golden = goldens(phases);
  std::vector<Tally> tallies;
  for (const Phase& ph : phases) {
    tallies.push_back(tally(ph));
    check_phase(ph, tallies.back(), golden, report.checks);
    report.checks.expect(
        "analyzed_edges",
        ph.analyzed_edges ==
            ph.presealed.size() * (p.preseal_n - 1) +
                (report.checks.wrong("analyzed_edges") ? 1 : 0),
        std::to_string(ph.analyzed_edges) + " edges analyzed");
  }

  if (!o.trace) {
    std::vector<double> wall, gen, reload, analyze, p50, p95, jps;
    for (std::size_t i = 0; i < phases.size(); ++i) {
      const Phase& ph = phases[i];
      const Tally& t = tallies[i];
      wall.push_back(ph.wall_s);
      gen.push_back(static_cast<double>(t.cold_edges) / ph.jobs_s * 1e-6);
      reload.push_back(static_cast<double>(ph.analyzed_edges) / ph.reload_s *
                       1e-6);
      analyze.push_back(ph.analyze_s);
      p50.push_back(percentile(t.latency_ms, 0.50));
      p95.push_back(percentile(t.latency_ms, 0.95));
      jps.push_back(static_cast<double>(t.jobs) / ph.jobs_s);
    }
    EndToEnd m;
    m.setup_s = median(setups);
    m.wall_s = median(wall);
    m.gen_meps = median(gen);
    m.reload_meps = median(reload);
    m.analyze_s = median(analyze);
    m.peak_rss_mb = peak_rss_mb();
    m.store_bytes_per_edge =
        phases.front().store_bytes / phases.front().store_edges;
    m.job_p50_ms = median(p50);
    m.job_p95_ms = median(p95);
    m.jobs_per_s = median(jps);
    m.emit(report);
    report.param("phases", phases.size());
    report.param("jobs_per_phase", tallies.front().jobs);
    report.param("hits_per_phase",
                 tallies.front().hot + tallies.front().store_serves);
    return report;
  }

  const Phase& base = phases.front();
  const Phase& tp = phases.back();
  const Tally& t = tallies.back();
  Layers l;
  PaConfig draw_cfg;
  draw_cfg.x = 1;
  draw_cfg.p = 0.5;
  draw_cfg.seed = derive_seed(o.seed, 100);
  l.rng_draw_meps = rng_draw_meps(draw_cfg, p.rng_pairs, &log, report.checks);
  Count decoded = 0;
  for (const std::string& dir : tp.sealed) decoded += decode_store(dir, &log);
  const auto stored = static_cast<Count>(tp.store_edges);
  report.checks.expect(
      "decode_count",
      decoded == stored + (report.checks.wrong("decode_count") ? 1 : 0),
      std::to_string(decoded) + " edges decoded of " + std::to_string(stored));

  l.engine_generate_s =
      metric_field(tp.metrics_json, "svc.run_ns", "sum") * 1e-9;
  l.engine_self_s = l.engine_generate_s;  // no sink of ours runs in jobs
  l.engine_edges = static_cast<double>(t.cold_edges);
  l.store_bytes = tp.store_bytes;
  l.store_blocks = tp.store_blocks;
  l.store_open_s = log.total_s("store.open");
  l.store_decode_s = log.total_s("store.decode");
  l.store_decode_meps = static_cast<double>(decoded) / l.store_decode_s * 1e-6;
  l.store_read_mbps = tp.store_bytes / l.store_decode_s * 1e-6;
  l.kernel_degree_s = log.total_s("kernel.degree");
  l.kernel_degree_self_s = l.kernel_degree_s - log.self_s("source.visit");
  l.analysis_fit_s = log.total_s("analysis.fit");
  l.analysis_gamma = tp.gamma;
  l.svc_submit_us_p50 = percentile(t.submit_us, 0.50);
  l.svc_queue_wait_ms_p50 =
      metric_field(tp.metrics_json, "svc.queue_wait_ns", "p50") * 1e-6;
  l.svc_run_ms_p50 = metric_field(tp.metrics_json, "svc.run_ns", "p50") * 1e-6;
  l.svc_serve_ms_p50 = percentile(t.hit_latency_ms, 0.50);
  l.svc_cache_hits = static_cast<double>(tp.stats.cache_hits);
  l.svc_store_hits = static_cast<double>(tp.stats.cache_store_hits);
  l.svc_cold_runs = static_cast<double>(t.cold);
  l.svc_hit_ratio =
      static_cast<double>(t.hot + t.store_serves) / static_cast<double>(t.jobs);
  l.trace_overhead_ratio = tp.wall_s / base.wall_s;
  l.emit(report);
  if (!o.trace_out.empty()) log.write_trace(o.trace_out);
  return report;
}

}  // namespace perfbench
