// Property oracles for model-checked generator runs (tools/mpsmc and
// tests/mps_modelcheck_test.cpp).
//
// PropertyRunner adapts core::generate into an mps::mc::Runner: each
// invocation builds one ParallelOptions with the given Scheduler as the
// delivery hook, runs the generator, and checks every safety property we
// have an oracle for:
//
//  * termination: the run returns (deadlock/livelock are detected by the
//    Scheduler itself and folded into the verdict by the explorer);
//  * exact edge count (expected_edge_count) and structural sanity
//    (endpoints in range, no self-loops, no duplicate edges);
//  * x = 1: bitwise-identical output across schedules — targets and the
//    normalized edge list hash-match a schedule-free P = 1 reference run
//    (F is a pure function of (seed, n, p); Theorem 3.2's argument);
//  * x > 1: the per-schedule output hash is recorded instead of asserted —
//    distinct_outputs() is the measured schedule-(in)dependence report
//    that ROADMAP item 2 needs (the edge *set* is arrival-order dependent
//    by design today);
//  * optionally (causal_check, x = 1): the merged "pa.chain_length"
//    histogram from causal tracing must exactly equal the
//    baseline::ChainTrace |D_t| oracle — the Theorem 3.3 chain-depth
//    check, valid per schedule because the dependency DAG is
//    schedule-independent.
//
// The runner never throws: WorldAborted (the expected unwind of schedules
// the Scheduler tears down) and any other exception become a failed
// RunOutcome for the explorer to attribute.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baseline/chain_tracer.h"
#include "baseline/pa_config.h"
#include "core/generate.h"
#include "graph/edge_list.h"
#include "mps/collectives.h"
#include "mps/modelcheck.h"
#include "obs/session.h"
#include "partition/partition.h"
#include "util/hash.h"
#include "util/types.h"

namespace pagen::core::mc {

[[nodiscard]] inline std::uint64_t hash_targets(
    const std::vector<NodeId>& targets) {
  Fnv1a h;
  for (const NodeId t : targets) h.word(t);
  return h.digest();
}

/// Hash of the normalized ((min, max), sorted) edge list.
[[nodiscard]] inline std::uint64_t hash_edges(graph::EdgeList edges) {
  graph::normalize(edges);
  Fnv1a h;
  for (const graph::Edge& e : edges) {
    h.word(e.u);
    h.word(e.v);
  }
  return h.digest();
}

class PropertyRunner {
 public:
  struct Options {
    PaConfig pa;
    int ranks = 2;
    partition::Scheme scheme = partition::Scheme::kRrp;
    /// Small buffers and batches on purpose: every flush boundary is a
    /// scheduling point, so small values maximize explorable interleavings
    /// per unit of work.
    std::size_t buffer_capacity = 8;
    std::size_t node_batch = 16;
    /// Set false to re-introduce the RRP flush-rule deadlock (the PR 2
    /// regression) — the model checker's canary.
    bool flush_resolved_after_batch = true;
    /// x = 1 only: verify Theorem 3.3 chain depths via causal tracing.
    bool causal_check = false;
  };

  explicit PropertyRunner(Options options) : options_(std::move(options)) {
    if (options_.pa.x == 1) {
      // Schedule-free reference: F is a pure function of (seed, n, p), so
      // a plain single-rank run pins the expected output of every
      // schedule and every rank count.
      ParallelOptions ref;
      ref.ranks = 1;
      const ParallelResult result = generate(options_.pa, ref);
      ref_targets_hash_ = hash_targets(result.targets);
      ref_edges_hash_ = hash_edges(result.edges);
    }
    if (options_.causal_check && options_.pa.x == 1) {
      const baseline::ChainTrace trace(options_.pa);
      const auto dep = trace.dependency_lengths();
      for (NodeId t = 2; t < options_.pa.n; ++t) oracle_.observe(dep[t]);
    }
  }

  /// The Runner for mps::mc::explore_* / replay_schedule. The returned
  /// callable borrows `this`; keep the PropertyRunner alive.
  [[nodiscard]] mps::mc::Runner runner() {
    return [this](mps::mc::Scheduler& sched) { return run_once(sched); };
  }

  /// Distinct normalized-edge-list hashes seen across all passing runs.
  /// Size 1 after an exploration = the output was schedule-independent for
  /// every schedule explored (proof by exploration, up to the bound).
  [[nodiscard]] const std::set<std::uint64_t>& distinct_outputs() const {
    return distinct_outputs_;
  }
  [[nodiscard]] std::uint64_t runs() const { return runs_; }
  [[nodiscard]] std::uint64_t ref_targets_hash() const {
    return ref_targets_hash_;
  }
  [[nodiscard]] std::uint64_t ref_edges_hash() const {
    return ref_edges_hash_;
  }

  /// Record the generator config into a trace's meta block so a dumped
  /// schedule is replayable without the command line that produced it.
  void fill_meta(mps::mc::ScheduleTrace& trace) const {
    trace.meta["n"] = std::to_string(options_.pa.n);
    trace.meta["x"] = std::to_string(options_.pa.x);
    trace.meta["p"] = std::to_string(options_.pa.p);
    trace.meta["seed"] = std::to_string(options_.pa.seed);
    trace.meta["ranks"] = std::to_string(options_.ranks);
    trace.meta["scheme"] = partition::to_string(options_.scheme);
    trace.meta["buffer_capacity"] = std::to_string(options_.buffer_capacity);
    trace.meta["node_batch"] = std::to_string(options_.node_batch);
    trace.meta["flush_resolved_after_batch"] =
        options_.flush_resolved_after_batch ? "1" : "0";
  }

  /// Rebuild runner options from a dumped trace's meta block (the inverse
  /// of fill_meta). Returns false with `error` set on a missing key.
  static bool options_from_meta(const mps::mc::ScheduleTrace& trace,
                                Options& out, std::string& error) {
    const auto need = [&](const char* key, std::string& into) {
      const auto it = trace.meta.find(key);
      if (it == trace.meta.end()) {
        error = std::string("trace meta is missing \"") + key + '"';
        return false;
      }
      into = it->second;
      return true;
    };
    std::string v;
    if (!need("n", v)) return false;
    out.pa.n = std::stoull(v);
    if (!need("x", v)) return false;
    out.pa.x = std::stoull(v);
    if (!need("p", v)) return false;
    out.pa.p = std::stod(v);
    if (!need("seed", v)) return false;
    out.pa.seed = std::stoull(v);
    if (!need("ranks", v)) return false;
    out.ranks = std::stoi(v);
    if (!need("scheme", v)) return false;
    out.scheme = partition::scheme_from_string(v);
    if (!need("buffer_capacity", v)) return false;
    out.buffer_capacity = std::stoull(v);
    if (!need("node_batch", v)) return false;
    out.node_batch = std::stoull(v);
    if (!need("flush_resolved_after_batch", v)) return false;
    out.flush_resolved_after_batch = v == "1";
    return true;
  }

 private:
  mps::mc::RunOutcome run_once(mps::mc::Scheduler& sched) {
    ++runs_;
    ParallelOptions opt;
    opt.ranks = options_.ranks;
    opt.scheme = options_.scheme;
    opt.buffer_capacity = options_.buffer_capacity;
    opt.node_batch = options_.node_batch;
    opt.flush_resolved_after_batch = options_.flush_resolved_after_batch;
    opt.delivery_hook = &sched;

    const bool causal = options_.causal_check && options_.pa.x == 1;
    std::optional<obs::Session> session;
    if (causal) {
      session.emplace(options_.ranks, causal_config());
      opt.obs = &*session;
    }

    ParallelResult result;
    try {
      result = generate(options_.pa, opt);
    } catch (const mps::WorldAborted&) {
      // Expected unwind of schedules the Scheduler tears down (deadlock,
      // prune, step limit); the explorer attributes the real reason.
      return {true, "world aborted"};
    } catch (const std::exception& e) {
      return {true, std::string("exception: ") + e.what()};
    }
    return check(result, causal ? &*session : nullptr);
  }

  [[nodiscard]] static obs::Config causal_config() {
    obs::Config cfg;
    cfg.enabled = true;
    cfg.causal = true;
    cfg.ring_capacity = 1 << 12;
    return cfg;
  }

  mps::mc::RunOutcome check(const ParallelResult& result,
                            const obs::Session* session) {
    const Count expected = expected_edge_count(options_.pa);
    if (result.edges.size() != expected) {
      return {true, "edge count " + std::to_string(result.edges.size()) +
                        " != expected " + std::to_string(expected)};
    }
    graph::EdgeList normalized = result.edges;
    graph::normalize(normalized);
    for (std::size_t i = 0; i < normalized.size(); ++i) {
      const graph::Edge& e = normalized[i];
      if (e.u >= options_.pa.n || e.v >= options_.pa.n) {
        return {true, "edge endpoint out of range"};
      }
      if (e.u == e.v) {
        return {true, "self-loop at node " + std::to_string(e.u)};
      }
      if (i > 0 && normalized[i - 1] == e) {
        return {true, "duplicate edge (" + std::to_string(e.u) + ", " +
                          std::to_string(e.v) + ")"};
      }
    }
    const std::uint64_t edge_hash = hash_edges(result.edges);
    distinct_outputs_.insert(edge_hash);
    if (options_.pa.x == 1) {
      if (hash_targets(result.targets) != ref_targets_hash_) {
        return {true,
                "x=1 targets differ from the schedule-free reference "
                "(output is schedule-dependent)"};
      }
      if (edge_hash != ref_edges_hash_) {
        return {true,
                "x=1 edges differ from the schedule-free reference "
                "(output is schedule-dependent)"};
      }
    }
    if (session != nullptr) {
      if (const std::string err = check_chain_lengths(*session);
          !err.empty()) {
        return {true, err};
      }
    }
    return {};
  }

  [[nodiscard]] std::string check_chain_lengths(
      const obs::Session& session) const {
    obs::Histogram merged;
    for (int r = 0; r < session.nranks(); ++r) {
      const auto& hists = session.rank(r).metrics().histograms();
      const auto it = hists.find("pa.chain_length");
      if (it != hists.end()) merged += it->second;
    }
    if (merged.count() == oracle_.count() && merged.sum() == oracle_.sum() &&
        merged.min() == oracle_.min() && merged.max() == oracle_.max()) {
      return {};
    }
    std::ostringstream os;
    os << "causal chain-length mismatch vs Theorem 3.3 oracle: count "
       << merged.count() << "/" << oracle_.count() << ", sum " << merged.sum()
       << "/" << oracle_.sum() << ", max " << merged.max() << "/"
       << oracle_.max();
    return os.str();
  }

  Options options_;
  std::uint64_t ref_targets_hash_ = 0;
  std::uint64_t ref_edges_hash_ = 0;
  obs::Histogram oracle_;
  std::set<std::uint64_t> distinct_outputs_;
  std::uint64_t runs_ = 0;
};

}  // namespace pagen::core::mc
