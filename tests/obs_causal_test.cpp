// Causal dependency-chain tracing (obs/causal.h) against the Theorem 3.3
// oracle: on deterministic x = 1 runs, the chain lengths the instrumented
// driver records — and the reconstruction from merged per-rank traces —
// must exactly match baseline::ChainTrace's |D_t| recursion, for every
// rank count; so must the commfree engine's chain-walk lengths. Plus the
// zero-cost contract of the disabled path.
#include "obs/causal.h"

#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "baseline/chain_tracer.h"
#include "core/generate.h"
#include "json_lint.h"
#include "obs/session.h"

namespace pagen::obs {
namespace {

using pagen::testing::JsonLint;

/// The oracle: |D_t| for t in [2, n) from the draw-replaying chain tracer,
/// folded into the same power-of-two histogram the driver uses.
Histogram oracle_histogram(const PaConfig& pa) {
  const baseline::ChainTrace trace(pa);
  const auto dep = trace.dependency_lengths();
  Histogram h;
  for (NodeId t = 2; t < pa.n; ++t) h.observe(dep[t]);
  return h;
}

/// Merge "pa.chain_length" across every rank registry of a finished run.
Histogram merged_chain_lengths(const Session& session) {
  Histogram merged;
  for (int r = 0; r < session.nranks(); ++r) {
    const auto& hists = session.rank(r).metrics().histograms();
    const auto it = hists.find("pa.chain_length");
    if (it != hists.end()) merged += it->second;
  }
  return merged;
}

/// Count, sum, min, max and every bucket must agree exactly.
void expect_same_histogram(const Histogram& got, const Histogram& oracle,
                           int ranks) {
  EXPECT_EQ(got.count(), oracle.count()) << "ranks " << ranks;
  EXPECT_EQ(got.sum(), oracle.sum()) << "ranks " << ranks;
  EXPECT_EQ(got.min(), oracle.min()) << "ranks " << ranks;
  EXPECT_EQ(got.max(), oracle.max()) << "ranks " << ranks;
  const auto gb = got.buckets();
  const auto ob = oracle.buckets();
  ASSERT_EQ(gb.size(), ob.size()) << "ranks " << ranks;
  for (std::size_t i = 0; i < gb.size(); ++i) {
    EXPECT_EQ(gb[i].upper, ob[i].upper) << "ranks " << ranks;
    EXPECT_EQ(gb[i].count, ob[i].count) << "ranks " << ranks;
  }
}

TEST(CausalChains, ExactlyMatchTheorem33OracleAcrossRankCounts) {
  PaConfig pa;
  pa.n = 20000;
  pa.x = 1;
  pa.p = 0.5;
  pa.seed = 33;
  const Histogram oracle = oracle_histogram(pa);

  for (int ranks : {1, 2, 4, 7}) {
    Config cfg;
    cfg.enabled = true;
    cfg.causal = true;
    cfg.ring_capacity = 1 << 17;
    Session session(ranks, cfg);
    core::ParallelOptions opt;
    opt.ranks = ranks;
    opt.gather_edges = false;
    opt.obs = &session;
    (void)core::generate(pa, opt);

    expect_same_histogram(merged_chain_lengths(session), oracle, ranks);

    const ChainReport report = reconstruct_chains(session);
    EXPECT_EQ(report.chain_records, static_cast<Count>(pa.n - 2))
        << "ranks " << ranks;
    EXPECT_EQ(report.max_chain_length, oracle.max()) << "ranks " << ranks;
    EXPECT_EQ(report.chain_length.count(), oracle.count());
    EXPECT_EQ(report.chain_length.sum(), oracle.sum());
    EXPECT_EQ(report.orphan_starts, 0u) << "ranks " << ranks;
    EXPECT_EQ(report.orphan_ends, 0u) << "ranks " << ranks;
    if (ranks > 1) {
      // Some chains must have crossed ranks, and every crossing resolved.
      EXPECT_GT(report.flows, 0u) << "ranks " << ranks;
      EXPECT_GT(report.flow_ns.count(), 0u);
    } else {
      EXPECT_EQ(report.flows, 0u);  // one rank: nothing ever leaves it
    }

    std::ostringstream os;
    write_chain_report(os, report);
    const std::string json = os.str();
    EXPECT_EQ(JsonLint::check(json), "");
    EXPECT_NE(json.find("\"schema\": \"pagen.chains.v1\""), std::string::npos);
  }
}

TEST(CausalChains, CommfreeWalkLengthsMatchTheorem33Oracle) {
  // commfree's x = 1 chain walk visits exactly D_t, so its recorded walk
  // lengths are the oracle's |D_t| on any rank count, with no causal mode.
  PaConfig pa;
  pa.n = 20000;
  pa.x = 1;
  pa.p = 0.5;
  pa.seed = 33;
  const Histogram oracle = oracle_histogram(pa);

  for (int ranks : {1, 2, 4, 7}) {
    Config cfg;
    cfg.enabled = true;
    Session session(ranks, cfg);
    core::ParallelOptions opt;
    opt.engine = "commfree";
    opt.ranks = ranks;
    opt.gather_edges = false;
    opt.obs = &session;
    (void)core::generate(pa, opt);
    expect_same_histogram(merged_chain_lengths(session), oracle, ranks);
  }
}

TEST(CausalChains, GeneralModelFlowsAllResolveAndReportIsValid) {
  PaConfig pa;
  pa.n = 8000;
  pa.x = 3;
  pa.p = 0.4;
  pa.seed = 9;
  Config cfg;
  cfg.enabled = true;
  cfg.causal = true;
  cfg.ring_capacity = 1 << 17;
  Session session(4, cfg);
  core::ParallelOptions opt;
  opt.ranks = 4;
  opt.gather_edges = false;
  opt.obs = &session;
  (void)core::generate(pa, opt);

  const ChainReport report = reconstruct_chains(session);
  EXPECT_GT(report.chain_records, 0u);
  EXPECT_GT(report.flows, 0u);
  // Duplicate-avoidance retries reuse a slot's flow id across rounds; the
  // time-ordered replay must still pair every start with its end.
  EXPECT_EQ(report.orphan_starts, 0u);
  EXPECT_EQ(report.orphan_ends, 0u);
  EXPECT_FALSE(report.critical.phase.empty());

  std::ostringstream os;
  write_chain_report(os, report);
  EXPECT_EQ(JsonLint::check(os.str()), "");
}

/// Run one generation and return (mps.bytes_sent, mps.causal_stamps) from
/// the merged registries (the stamps counter is absent => 0).
std::pair<Count, Count> traffic_of(const PaConfig& pa, bool causal) {
  Config cfg;
  cfg.enabled = true;
  cfg.causal = causal;
  Session session(4, cfg);
  core::ParallelOptions opt;
  opt.ranks = 4;
  opt.gather_edges = false;
  opt.obs = &session;
  (void)core::generate(pa, opt);

  MetricsRegistry totals;
  for (int r = 0; r < session.nranks(); ++r) {
    totals.merge(session.rank(r).metrics());
  }
  const auto& counters = totals.counters();
  const Count bytes = counters.at("mps.bytes_sent").value();
  const auto it = counters.find("mps.causal_stamps");
  const Count stamps = it == counters.end() ? 0 : it->second.value();
  return {bytes, stamps};
}

TEST(CausalChains, DisabledPathAddsNoStampsAndNoWireBytes) {
  PaConfig pa;
  pa.n = 10000;
  pa.x = 1;
  pa.p = 0.5;
  pa.seed = 7;
  const auto [bytes_off, stamps_off] = traffic_of(pa, false);
  const auto [bytes_on, stamps_on] = traffic_of(pa, true);
  EXPECT_EQ(stamps_off, 0u);  // no tracing, no stamps — not one
  EXPECT_GT(stamps_on, 0u);   // remote requests were stamped
  // Stamps ride beside the payload, never in it: payload traffic identical.
  EXPECT_EQ(bytes_off, bytes_on);
}

}  // namespace
}  // namespace pagen::obs
