// Component micro-benchmarks (google-benchmark): RNG draws, mailbox
// throughput, send-buffer aggregation, partition owner lookups, and the
// sequential generators. These are the unit costs behind the cost model of
// scaling_model.h.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <span>

#include "baseline/ba_batagelj_brandes.h"
#include "graph/edge_list.h"
#include "baseline/copy_model_seq.h"
#include "core/generate.h"
#include "core/genrt/protocol.h"
#include "core/genrt/slot_store.h"
#include "mps/mailbox.h"
#include "obs/config.h"
#include "obs/session.h"
#include "partition/partition.h"
#include "rng/counter_rng.h"
#include "rng/xoshiro.h"
#include "store/format.h"
#include "util/harmonic.h"
#include "util/varint.h"

namespace {

using namespace pagen;

void BM_CounterRngRaw(benchmark::State& state) {
  const rng::CounterRng rng(1);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.raw({1, i++, 2, 3}));
  }
}
BENCHMARK(BM_CounterRngRaw);

void BM_CounterRngBelow(benchmark::State& state) {
  const rng::CounterRng rng(1);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.below(1000003, {1, i++, 2, 3}));
  }
}
BENCHMARK(BM_CounterRngBelow);

void BM_Xoshiro(benchmark::State& state) {
  rng::Xoshiro256pp rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng());
  }
}
BENCHMARK(BM_Xoshiro);

void BM_HarmonicTabulated(benchmark::State& state) {
  const Harmonic h(4096);
  std::uint64_t k = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h(k % 4000 + 1));
    ++k;
  }
}
BENCHMARK(BM_HarmonicTabulated);

void BM_HarmonicAsymptotic(benchmark::State& state) {
  const Harmonic h(64);
  std::uint64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h(1000000 + k++));
  }
}
BENCHMARK(BM_HarmonicAsymptotic);

void BM_MailboxPushDrain(benchmark::State& state) {
  mps::Mailbox box;
  std::vector<mps::Envelope> out;
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i) {
      mps::Envelope e;
      e.src = 0;
      e.tag = 1;
      box.push(std::move(e));
    }
    out.clear();
    box.try_drain(out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_MailboxPushDrain)->Arg(1)->Arg(64)->Arg(1024);

void BM_PartitionOwner(benchmark::State& state) {
  const auto scheme = static_cast<partition::Scheme>(state.range(0));
  const auto part = partition::make_partition(scheme, 100000000, 768);
  NodeId u = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(part->owner(u));
    u = (u + 982451653) % 100000000;  // jump around pseudo-randomly
  }
}
BENCHMARK(BM_PartitionOwner)
    ->Arg(static_cast<int>(partition::Scheme::kUcp))
    ->Arg(static_cast<int>(partition::Scheme::kLcp))
    ->Arg(static_cast<int>(partition::Scheme::kRrp));

void BM_SeqCopyModelX1(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const PaConfig cfg{.n = n, .x = 1, .p = 0.5, .seed = seed++};
    benchmark::DoNotOptimize(baseline::copy_model_targets(cfg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SeqCopyModelX1)->Arg(100000);

void BM_SeqCopyModelGeneral(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const PaConfig cfg{.n = n, .x = 4, .p = 0.5, .seed = seed++};
    benchmark::DoNotOptimize(baseline::copy_model_general(cfg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 4);
}
BENCHMARK(BM_SeqCopyModelGeneral)->Arg(100000);

void BM_BatageljBrandesBa(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const PaConfig cfg{.n = n, .x = 4, .p = 0.5, .seed = seed++};
    benchmark::DoNotOptimize(baseline::ba_batagelj_brandes(cfg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 4);
}
BENCHMARK(BM_BatageljBrandesBa)->Arg(100000);

// --- Outstanding-request table: node-keyed std::map (the pre-genrt
// implementation in both PA generators) vs the flat genrt::SlotStore. A
// 10M-slot resolution storm with a sliding in-flight window models a
// crash-tolerant rank issuing requests and retiring answers; the store's
// note_sent / note_answered are O(1) array writes with zero allocation
// where the map paid an rb-tree insert + erase per request. Recorded in
// BENCH_genrt.json.

constexpr Count kStormSlots = 10'000'000;
constexpr Count kStormWindow = 65536;  ///< in-flight requests at any moment

void BM_OutstandingMap(benchmark::State& state) {
  std::map<Count, core::RequestX1> outstanding;
  for (auto _ : state) {
    for (Count s = 0; s < kStormSlots; ++s) {
      outstanding[s] = {s, s / 2};
      if (s >= kStormWindow) outstanding.erase(s - kStormWindow);
    }
    for (Count s = kStormSlots - kStormWindow; s < kStormSlots; ++s) {
      outstanding.erase(s);
    }
    benchmark::DoNotOptimize(outstanding.empty());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kStormSlots));
}
BENCHMARK(BM_OutstandingMap)->Unit(benchmark::kMillisecond);

void BM_OutstandingSlotStore(benchmark::State& state) {
  core::genrt::SlotStore<core::RequestX1> store(kStormSlots,
                                                /*track_requests=*/true,
                                                /*chain_hist=*/nullptr);
  for (auto _ : state) {
    for (Count s = 0; s < kStormSlots; ++s) {
      store.note_sent(s, {s, s / 2});
      if (s >= kStormWindow) store.note_answered(s - kStormWindow);
    }
    for (Count s = kStormSlots - kStormWindow; s < kStormSlots; ++s) {
      store.note_answered(s);
    }
    benchmark::DoNotOptimize(store.outstanding());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kStormSlots));
}
BENCHMARK(BM_OutstandingSlotStore)->Unit(benchmark::kMillisecond);

// --- Edge-sink dispatch: per-edge std::function callback (the original
// ParallelOptions::edge_sink contract) vs the batched span adapter
// (edge_batch_sink), modeling genrt::Driver::emit_edge's sink hand-off. The
// batch adapter pays one indirect call per edge_batch_capacity edges plus a
// buffer append, instead of one indirect call per edge — the difference a
// high-volume sink (sharded writer, streaming checksum) sees.

constexpr Count kSinkEdges = 10'000'000;
constexpr std::size_t kSinkBatch = 4096;  ///< edge_batch_capacity default

graph::Edge sink_edge(Count i) {
  return {static_cast<NodeId>(i), static_cast<NodeId>(i / 2)};
}

void BM_EdgeSinkPerEdge(benchmark::State& state) {
  std::uint64_t acc = 0;
  const std::function<void(Rank, const graph::Edge&)> sink =
      [&acc](Rank, const graph::Edge& e) { acc += e.u ^ e.v; };
  for (auto _ : state) {
    for (Count i = 0; i < kSinkEdges; ++i) sink(0, sink_edge(i));
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSinkEdges));
}
BENCHMARK(BM_EdgeSinkPerEdge)->Unit(benchmark::kMillisecond);

void BM_EdgeSinkBatched(benchmark::State& state) {
  std::uint64_t acc = 0;
  const std::function<void(Rank, std::span<const graph::Edge>)> sink =
      [&acc](Rank, std::span<const graph::Edge> edges) {
        for (const graph::Edge& e : edges) acc += e.u ^ e.v;
      };
  graph::EdgeList buf;
  buf.reserve(kSinkBatch);
  for (auto _ : state) {
    for (Count i = 0; i < kSinkEdges; ++i) {
      buf.push_back(sink_edge(i));
      if (buf.size() >= kSinkBatch) {
        sink(0, buf);
        buf.clear();
      }
    }
    if (!buf.empty()) {
      sink(0, buf);
      buf.clear();
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSinkEdges));
}
BENCHMARK(BM_EdgeSinkBatched)->Unit(benchmark::kMillisecond);

// --- Driver pump with causal stamping off vs on: the full x = 1
// distributed generation (2 ranks, observed session) so the measured loop
// is the real Driver::pump dispatch, not a synthetic one. The "off" run is
// the zero-cost contract of ISSUE 6: with Config::causal unset the driver
// never touches Envelope::causal, so the two runs must move byte-identical
// payload traffic and the "off" run must record zero stamps — asserted
// once at registration, alongside the throughput comparison.

constexpr NodeId kPumpNodes = 50000;

struct PumpTraffic {
  Count bytes = 0;
  Count stamps = 0;
};

PumpTraffic run_observed_pump(bool causal) {
  obs::Config cfg;
  cfg.enabled = true;
  cfg.causal = causal;
  obs::Session session(2, cfg);
  core::ParallelOptions opt;
  opt.ranks = 2;
  opt.gather_edges = false;
  opt.obs = &session;
  const PaConfig pa{.n = kPumpNodes, .x = 1, .p = 0.5, .seed = 7};
  (void)core::generate(pa, opt);
  obs::MetricsRegistry totals;
  for (int r = 0; r < session.nranks(); ++r) {
    totals.merge(session.rank(r).metrics());
  }
  PumpTraffic t;
  t.bytes = totals.counters().at("mps.bytes_sent").value();
  const auto it = totals.counters().find("mps.causal_stamps");
  t.stamps = it == totals.counters().end() ? 0 : it->second.value();
  return t;
}

/// Hard zero-cost check run once before the timed comparison: aborts the
/// bench binary if the disabled path stamped anything or changed traffic.
void assert_causal_zero_cost() {
  static bool checked = false;
  if (checked) return;
  checked = true;
  const PumpTraffic off = run_observed_pump(false);
  const PumpTraffic on = run_observed_pump(true);
  if (off.stamps != 0 || on.stamps == 0 || off.bytes != on.bytes) {
    std::fprintf(stderr,
                 "causal zero-cost contract violated: off {bytes=%llu, "
                 "stamps=%llu} vs on {bytes=%llu, stamps=%llu}\n",
                 static_cast<unsigned long long>(off.bytes),
                 static_cast<unsigned long long>(off.stamps),
                 static_cast<unsigned long long>(on.bytes),
                 static_cast<unsigned long long>(on.stamps));
    std::abort();
  }
}

void BM_DriverPumpCausalOff(benchmark::State& state) {
  assert_causal_zero_cost();
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_observed_pump(false).bytes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPumpNodes));
}
BENCHMARK(BM_DriverPumpCausalOff)->Unit(benchmark::kMillisecond);

void BM_DriverPumpCausalOn(benchmark::State& state) {
  assert_causal_zero_cost();
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_observed_pump(true).bytes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPumpNodes));
}
BENCHMARK(BM_DriverPumpCausalOn)->Unit(benchmark::kMillisecond);

// --- Compressed-store codec costs (src/store/, docs/storage.md). These
// are the per-edge unit costs behind the massive_edges bench: the varint
// primitive (util/varint.h) the block codec sits on, and a full block
// encode+decode round trip including both checksums.

/// Mixed-width values like the zigzag deltas of a PA emission stream:
/// mostly small (consecutive own nodes), occasionally large (chain jumps).
std::vector<std::uint64_t> varint_corpus(std::size_t count) {
  rng::Xoshiro256pp rng(7);
  std::vector<std::uint64_t> values(count);
  for (auto& v : values) v = rng() >> (rng() % 56);
  return values;
}

void BM_VarintEncode(benchmark::State& state) {
  const auto values = varint_corpus(static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint8_t> bytes;
  for (auto _ : state) {
    bytes.clear();
    for (const std::uint64_t v : values) put_varint(bytes, v);
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_VarintEncode)->Arg(65536);

void BM_VarintDecode(benchmark::State& state) {
  const auto values = varint_corpus(static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint8_t> bytes;
  for (const std::uint64_t v : values) put_varint(bytes, v);
  for (auto _ : state) {
    std::size_t pos = 0;
    std::uint64_t sum = 0;
    while (pos < bytes.size()) sum += get_varint(bytes, pos);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_VarintDecode)->Arg(65536);

void BM_EdgeBlockRoundTrip(benchmark::State& state) {
  // One store block of PA-shaped edges: ascending u, targets scattered
  // below — the distribution the delta codec is tuned for.
  const auto block_edges = static_cast<std::size_t>(state.range(0));
  rng::Xoshiro256pp rng(11);
  graph::EdgeList edges(block_edges);
  for (std::size_t i = 0; i < block_edges; ++i) {
    const NodeId u = static_cast<NodeId>(1000 + i);
    edges[i] = {u, rng() % u};
  }
  std::vector<std::uint8_t> payload;
  graph::EdgeList decoded;
  for (auto _ : state) {
    const store::BlockHeader header = store::encode_block(edges, payload);
    decoded.clear();
    store::decode_block(header, payload, decoded);
    benchmark::DoNotOptimize(decoded.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  state.counters["bytes_per_edge"] = benchmark::Counter(
      static_cast<double>(payload.size()) / static_cast<double>(block_edges));
}
BENCHMARK(BM_EdgeBlockRoundTrip)->Arg(65536);

}  // namespace

BENCHMARK_MAIN();
