// CommFreeEngine: communication-free preferential attachment by
// pseudorandomization (Sanders & Schulz, "Scalable Generation of Scale-free
// Graphs", arXiv:1602.07106).
//
// The mps protocol resolves a copy dependency F_t = F_k by *asking* k's
// owner. But every draw of the copy model is a pure function of
// (seed, t, e, attempt) through DrawSchema, so k's owner knows nothing the
// asking rank cannot recompute: instead of a <request>/<resolved> round
// trip, each rank re-derives the remote draw chain locally. No mailboxes,
// no dependency-chain wait queues, no messages of any kind — the RankLoad
// request/resolved counters of a run are identically 0
// (tests/engine_equivalence_test.cpp asserts this; BENCH_engines.json shows
// it next to the mps volumes).
//
// The trade is recomputation: work that mps does once and shares via
// messages is re-derived by every rank that needs it (Theorem 3.3 bounds the
// chains, so the expected overlap is small). RankLoad::retries therefore
// counts the duplicate-retries *performed by this rank*, including those
// re-derived on behalf of remote nodes.
//
// Determinism: because every rank resolves in the canonical sequential
// order, the output is bitwise-identical to the sequential copy model —
// baseline::copy_model_targets for x = 1 and baseline::copy_model_general
// for x > 1 — for EVERY rank count and partition scheme. This is strictly
// stronger than the mps engine, whose x > 1 multi-rank edge set depends on
// message timing (docs/serving.md §5).
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baseline/pa_config.h"
#include "baseline/pa_draws.h"
#include "core/engine/engine.h"
#include "core/genrt/launch.h"
#include "core/load_stats.h"
#include "core/options.h"
#include "core/parallel_pa.h"
#include "graph/edge_list.h"
#include "mps/engine.h"
#include "obs/session.h"
#include "partition/partition.h"
#include "store/ext_array.h"
#include "util/error.h"
#include "util/types.h"

namespace pagen::core {
namespace {

/// Same duplicate-retry cap as baseline::copy_model_general and XkPolicy.
constexpr std::uint64_t kMaxAttempts = 100000;

/// x = 1 derivation: F_t = F_k on a copy draw, so F_t is the k of the first
/// direct draw along the copy chain t -> k -> k' ..., and node 1 (F_1 = 0)
/// ends every chain. Each draw is pure in (seed, node), so the walk keeps no
/// memo: re-walking a chain costs an expected 1/p draws (Theorem 3.3:
/// O(log n) w.h.p.), less than a memo lookup that misses DRAM, and the state
/// is O(1) at any n. The walked node count is |D_t|.
struct ChainWalk {
  NodeId value;
  std::uint32_t length;
};

ChainWalk walk_chain(const DrawSchema& draws, NodeId t) {
  std::uint32_t length = 1;
  for (NodeId cur = t; cur != 1; ++length) {
    const NodeId k = draws.pick_k(cur, 0, 0);
    if (draws.pick_direct(cur, 0, 0)) return {k, length};
    cur = k;  // k in [1, cur-1]: the walk reaches node 1 at the latest
  }
  return {0, length};
}

/// x > 1 re-derivation: whole rows F_u(0..x-1) in the sequential order of
/// baseline::copy_model_general. A row suspends when its copy path needs a
/// node whose row is not derived yet; dependencies are strictly smaller
/// (pick_k range [x, u-1]), so the explicit stack never cycles.
///
/// With a spill path (the state_spill capability), *completed* rows page
/// out to a store::ExternalArray keyed u * x + e — completed rows are
/// immutable and never contain kNil, so the fill value doubles as the
/// "not derived yet" marker — and only in-progress rows stay in the map.
/// Peak RSS is the spill page-cache budget plus the suspended-row
/// frontier, instead of every row ever derived; the derivation order, and
/// therefore the output, is bitwise-unchanged.
class XkDeriver {
 public:
  XkDeriver(const PaConfig& config, const std::string& spill_path,
            std::uint64_t spill_budget_bytes)
      : draws_(config), x_(config.x) {
    if (!spill_path.empty()) {
      spill_.emplace(spill_path, config.n * x_, kNil, spill_budget_bytes);
    }
  }

  /// The fully resolved row of node t (t >= x). Reference stays valid until
  /// the next node_row call.
  [[nodiscard]] const std::vector<NodeId>& node_row(NodeId t) {
    ensure(t);
    if (!spill_) return rows_.find(t)->second.v;
    row_buf_.resize(x_);
    for (NodeId e = 0; e < x_; ++e) row_buf_[e] = spill_->get(t * x_ + e);
    return row_buf_;
  }

  /// Duplicate-retries performed by this deriver (own + re-derived nodes).
  [[nodiscard]] Count retries() const { return retries_; }

 private:
  struct Row {
    std::vector<NodeId> v;         ///< F_u(e); kNil while unresolved
    NodeId next_e = 0;             ///< first unresolved slot; == x when done
    std::uint64_t attempt = 0;     ///< in-progress attempt for slot next_e
    bool locked_copy = false;      ///< Lines 27-29 latch for slot next_e
  };

  Row& row(NodeId u) {
    const auto [it, inserted] = rows_.try_emplace(u);
    if (inserted) {
      it->second.v.assign(x_, kNil);
      if (u == x_) {  // bootstrap convention: F_x(e) = e (DESIGN.md §5)
        for (NodeId e = 0; e < x_; ++e) it->second.v[e] = e;
        it->second.next_e = x_;
      }
    }
    return it->second;
  }

  /// Resolve u's remaining slots exactly as copy_model_general would.
  /// Returns kNil when the row completes, or the dependency node the copy
  /// path is blocked on. The attempt counter is NOT advanced on suspension,
  /// so resuming re-derives the identical (k, l) pair — draws are pure in
  /// (seed, u, e, attempt).
  NodeId advance(Row& r, NodeId u) {
    while (r.next_e < x_) {
      const NodeId e = r.next_e;
      const auto is_dup = [&](NodeId v) {
        for (NodeId j = 0; j < x_; ++j) {
          if (r.v[j] == v) return true;
        }
        return false;
      };
      for (;;) {
        PAGEN_CHECK_MSG(r.attempt < kMaxAttempts,
                        "duplicate-retry cap exceeded at node " << u);
        const NodeId k = draws_.pick_k(u, e, r.attempt);
        if (!r.locked_copy && draws_.pick_direct(u, e, r.attempt)) {
          if (!is_dup(k)) {
            r.v[e] = k;
            break;
          }
        } else {
          const NodeId l = draws_.pick_l(u, e, r.attempt);
          NodeId v = kNil;
          const auto dep = rows_.find(k);
          if (dep != rows_.end()) {
            if (dep->second.next_e < x_) return k;
            v = dep->second.v[l];
          } else if (spill_ && spill_->get(k * x_) != kNil) {
            v = spill_->get(k * x_ + l);
          } else {
            return k;
          }
          if (!is_dup(v)) {
            r.v[e] = v;
            break;
          }
          r.locked_copy = true;
        }
        ++r.attempt;
        ++retries_;
      }
      ++r.next_e;
      r.attempt = 0;
      r.locked_copy = false;
    }
    return kNil;
  }

  void ensure(NodeId t) {
    // Spill invariant: rows_ holds only in-progress rows; every completed
    // row lives in the spill array (slot 0 != kNil marks it derived).
    if (spill_ && !rows_.contains(t) && spill_->get(t * x_) != kNil) return;
    stack_.clear();
    stack_.push_back(t);
    while (!stack_.empty()) {
      const NodeId u = stack_.back();
      const NodeId dep = advance(row(u), u);
      if (dep == kNil) {
        if (spill_) evict(u);
        stack_.pop_back();
      } else {
        stack_.push_back(dep);
      }
    }
  }

  /// Page the completed row out and drop it from the in-RAM map.
  void evict(NodeId u) {
    const auto it = rows_.find(u);
    for (NodeId e = 0; e < x_; ++e) spill_->set(u * x_ + e, it->second.v[e]);
    rows_.erase(it);
  }

  DrawSchema draws_;
  NodeId x_;
  std::unordered_map<NodeId, Row> rows_;
  std::optional<store::ExternalArray<NodeId>> spill_;
  std::vector<NodeId> row_buf_;
  std::vector<NodeId> stack_;
  Count retries_ = 0;
};

/// One rank's derivation pass: walk the rank's own nodes in partition-local
/// order, re-derive each value locally, and emit through the same sink
/// surface as the genrt driver (edge_sink / edge_batch_sink / local shard).
void derive_rank(const PaConfig& config, const ParallelOptions& options,
                 const partition::Partition& part, mps::Comm& comm,
                 std::vector<graph::EdgeList>& edge_slots,
                 std::vector<std::vector<NodeId>>& value_slots,
                 LoadVector& load_slots) {
  const auto slot = static_cast<std::size_t>(comm.rank());
  obs::RankObserver* ob = comm.obs();
  const auto sp = obs::span(ob, "derive");

  const bool store_edges = options.gather_edges || options.keep_shards;
  RankLoad load;
  graph::EdgeList edges;
  graph::EdgeList batch;
  if (options.edge_batch_sink) batch.reserve(options.edge_batch_capacity);

  const auto emit = [&](NodeId t, NodeId v) {
    const graph::Edge e{t, v};
    if (store_edges) edges.push_back(e);
    if (options.edge_sink) options.edge_sink(comm.rank(), e);
    if (options.edge_batch_sink) {
      batch.push_back(e);
      if (batch.size() >= options.edge_batch_capacity) {
        options.edge_batch_sink(comm.rank(), batch);
        batch.clear();
      }
    }
    ++load.edges;
  };
  const auto check_cancel = [&] {
    if (options.cancel_requested && options.cancel_requested()) {
      throw Cancelled();
    }
  };

  const Count own = part.part_size(comm.rank());
  load.nodes = own;

  if (config.x == 1) {
    // spill_dir is accepted but unused: the walk keeps no state to spill.
    const DrawSchema draws(config);
    obs::Histogram* chain_hist =
        ob != nullptr ? &ob->metrics().histogram("pa.chain_length") : nullptr;
    std::vector<NodeId> values;
    if (options.gather_edges) values.assign(own, kNil);
    for (Count idx = 0; idx < own; ++idx) {
      if (idx % options.node_batch == 0) check_cancel();
      const NodeId t = part.node_at(comm.rank(), idx);
      if (t == 0) continue;  // the root has no target
      const ChainWalk w = walk_chain(draws, t);
      // The thm33 oracle counts |D_t| for t in [2, n) only.
      if (chain_hist != nullptr && t >= 2) chain_hist->observe(w.length);
      if (options.gather_edges) values[idx] = w.value;
      emit(t, w.value);
    }
    if (options.gather_edges) value_slots[slot] = std::move(values);
  } else {
    const std::string spill_path =
        options.spill_dir.empty()
            ? std::string{}
            : options.spill_dir + "/commfree-rank-" +
                  std::to_string(comm.rank()) + ".spill";
    XkDeriver derive(config, spill_path, options.spill_budget_bytes);
    for (Count idx = 0; idx < own; ++idx) {
      if (idx % options.node_batch == 0) check_cancel();
      const NodeId t = part.node_at(comm.rank(), idx);
      if (t < config.x) {
        // Initial clique: the newer endpoint emits, as in the mps shards.
        for (NodeId i = 0; i < t; ++i) emit(t, i);
        continue;
      }
      const std::vector<NodeId>& row = derive.node_row(t);
      for (NodeId e = 0; e < config.x; ++e) emit(t, row[e]);
    }
    load.retries = derive.retries();
  }

  if (options.edge_batch_sink && !batch.empty()) {
    options.edge_batch_sink(comm.rank(), batch);
  }
  if (ob != nullptr) record_metrics(ob->metrics(), load);
  load_slots[slot] = load;
  if (store_edges) edge_slots[slot] = std::move(edges);
}

class CommFreeEngine final : public Engine {
 public:
  [[nodiscard]] std::string_view name() const override { return "commfree"; }

  [[nodiscard]] std::string_view description() const override {
    return "communication-free pseudorandomization (re-derive remote draws "
           "locally; zero request/resolved traffic)";
  }

  [[nodiscard]] EngineCaps capabilities() const override {
    return {.checkpointing = false,
            .fault_tolerance = false,
            .delivery_hook = false,
            .multi_rank = true,
            .state_spill = true,
            .determinism = Determinism::kBitwise};
  }

  [[nodiscard]] ParallelResult run(
      const PaConfig& config, const ParallelOptions& options) const override {
    PAGEN_CHECK_MSG(config.x >= 1, "x must be >= 1");
    if (config.x == 1) {
      PAGEN_CHECK_MSG(config.n >= 2, "x == 1 needs n >= 2");
    } else {
      PAGEN_CHECK_MSG(config.n > config.x, "need n > x");
      PAGEN_CHECK_MSG(config.p >= 0.0 && config.p < 1.0,
                      "general model needs p in [0, 1)");
    }
    PAGEN_CHECK_MSG(options.ranks >= 1, "ranks must be >= 1");
    PAGEN_CHECK_MSG(static_cast<NodeId>(options.ranks) <= config.n,
                    "more ranks than nodes");
    PAGEN_CHECK_MSG(options.node_batch >= 1, "node_batch must be >= 1");
    PAGEN_CHECK_MSG(!options.edge_batch_sink || options.edge_batch_capacity >= 1,
                    "edge_batch_capacity must be >= 1");

    if (options.cancel_requested && options.cancel_requested()) {
      throw Cancelled();
    }
    if (config.x > 1 && !options.spill_dir.empty()) {
      std::filesystem::create_directories(options.spill_dir);
    }
    obs::RankObserver* drv = genrt::driver_observer(options);
    const auto part = genrt::make_run_partition(config.n, options, drv);

    const auto nranks = static_cast<std::size_t>(options.ranks);
    std::vector<graph::EdgeList> edge_slots(nranks);
    std::vector<std::vector<NodeId>> value_slots(nranks);
    LoadVector load_slots(nranks);

    mps::RunResult run;
    {
      const auto world_span = obs::span(drv, "run_ranks");
      run = mps::run_ranks(
          options.ranks, mps::WorldOptions{},
          [&](mps::Comm& comm) {
            derive_rank(config, options, *part, comm, edge_slots, value_slots,
                        load_slots);
            // One trailing barrier so wall_seconds covers the slowest
            // rank's derivation; collectives are not logical messages.
            comm.barrier();
          },
          options.obs);
    }

    ParallelResult result;
    result.loads = std::move(load_slots);
    result.comm_stats = run.rank_stats;
    result.wall_seconds = run.wall_seconds;
    for (const RankLoad& l : result.loads) result.total_edges += l.edges;

    if (options.gather_edges) {
      result.edges.reserve(result.total_edges);
      for (auto& es : edge_slots) {
        result.edges.insert(result.edges.end(), es.begin(), es.end());
        if (!options.keep_shards) es.clear();
      }
      if (config.x == 1) {
        // Scatter each rank's value row back to global node order.
        result.targets.assign(config.n, kNil);
        for (Rank r = 0; r < options.ranks; ++r) {
          const auto& values = value_slots[static_cast<std::size_t>(r)];
          for (Count idx = 0; idx < values.size(); ++idx) {
            result.targets[part->node_at(r, idx)] = values[idx];
          }
        }
      }
    }
    if (options.keep_shards) result.shards = std::move(edge_slots);
    return result;
  }
};

}  // namespace

std::unique_ptr<Engine> make_comm_free_engine() {
  return std::make_unique<CommFreeEngine>();
}

}  // namespace pagen::core
