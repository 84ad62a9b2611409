// Runtime options of the distributed generators.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>

#include "graph/edge_list.h"
#include "mps/fault.h"
#include "partition/partition.h"
#include "util/types.h"

namespace pagen::obs {
class Session;
}

namespace pagen::mps {
class DeliveryHook;
}

namespace pagen::core {

/// Thrown out of generate() when ParallelOptions::cancel_requested fires.
/// Every rank checks the hook in its event-loop phases (genrt/driver.h), so
/// all ranks unwind cooperatively — the world tears down through the mps
/// abort path instead of wedging peers that still wait for answers — and
/// mps::run_ranks rethrows this root cause after all rank threads join.
class Cancelled : public std::runtime_error {
 public:
  Cancelled() : std::runtime_error("generation cancelled") {}
};

struct ParallelOptions {
  /// Which registered generation engine runs the job (core/engine/engine.h):
  /// "mps" is the paper's request/resolved protocol, "commfree" the
  /// communication-free pseudorandomization backend, "seq-copy"/"seq-bb"
  /// the sequential references. generate() rejects unknown names and
  /// capability mismatches (e.g. checkpoint_dir on an engine without
  /// checkpoint support) with a CheckError.
  std::string engine = "mps";

  /// Number of ranks (the paper's P). Ranks are runtime threads and may
  /// exceed hardware cores (DESIGN.md §2).
  int ranks = 4;

  /// Node partitioning scheme (Section 3.5).
  partition::Scheme scheme = partition::Scheme::kRrp;

  /// Override the scheme with an arbitrary Partition (e.g. block-cyclic,
  /// partition/block_cyclic.h). Must cover exactly `n` nodes over exactly
  /// `ranks` parts. When set, `scheme` is ignored.
  std::shared_ptr<const partition::Partition> custom_partition;

  /// Items per (destination, tag) buffer before an automatic flush
  /// ("message buffering", Section 3.5). 1 disables aggregation.
  std::size_t buffer_capacity = 256;

  /// Own nodes processed between message pumps.
  std::size_t node_batch = 1024;

  /// Force-flush resolved buffers after processing every received batch —
  /// the paper's deadlock-avoidance rule for RRP, applied in one place:
  /// genrt::Driver::flush_after_batch(). Always safe; switchable only so
  /// the ablation bench can quantify its cost under CP schemes.
  bool flush_resolved_after_batch = true;

  /// Collect the generated edges into one EdgeList on return. Disable for
  /// throughput runs that only need load statistics.
  bool gather_edges = true;

  /// Also return each rank's local edges separately (ParallelResult::shards)
  /// — the in-memory input of the distributed analytics passes
  /// (core/distributed_degree.h). To persist per-rank shards, set
  /// store_dir instead: the compressed store writes them without keeping
  /// them in memory.
  bool keep_shards = false;

  /// Observability session (src/obs/). Non-owning; must have at least
  /// `ranks` rank observers and outlive the generate call. When set, every
  /// rank emits phase spans (generate / drain / termination), runtime
  /// events, and metrics into session->rank(r), and the driver thread's
  /// partition construction is traced on the session's driver track. Null
  /// (the default) keeps the uninstrumented hot path.
  obs::Session* obs = nullptr;

  /// Streaming consumption: invoked on the generating rank's thread for
  /// every emitted edge, in emission order. Enables "generate on the fly
  /// and analyze without disk I/O" (Section 3.2) with gather_edges = false
  /// and no edge storage at all. Called concurrently from different rank
  /// threads — the callback must be thread-safe (e.g. write to
  /// rank-indexed state). Under a crash plan the sink sees restored edges
  /// again after a recovery (at-least-once); see docs/robustness.md.
  std::function<void(Rank, const graph::Edge&)> edge_sink;

  /// Batched streaming consumption: like edge_sink, but invoked with a span
  /// of edges each time a rank's flush buffer fills (and once at the end of
  /// the rank's run with the remainder), in emission order. One indirect
  /// call per edge_batch_capacity edges instead of one per edge — use this
  /// for high-volume sinks (docs/serving.md measures the difference with
  /// BM_EdgeSink*). Same thread-safety contract as edge_sink; both sinks
  /// may be set and each sees every edge.
  std::function<void(Rank, std::span<const graph::Edge>)> edge_batch_sink;

  /// Edges buffered per rank between edge_batch_sink flushes (>= 1).
  std::size_t edge_batch_capacity = 4096;

  /// Cooperative cancellation hook (generation-as-a-service, src/svc/).
  /// Polled by every rank between node batches and on every drain /
  /// termination pump round; must be thread-safe and cheap (typically one
  /// relaxed atomic load). When it returns true each rank throws
  /// core::Cancelled and the run drains cleanly: the first unwinding rank
  /// aborts the mps world, which wakes peers blocked in polls or
  /// collectives, and run_ranks rethrows Cancelled after the join. Null
  /// (the default) keeps the hook off the hot path entirely.
  std::function<bool()> cancel_requested;

  // --- Out-of-core storage (docs/storage.md) ---

  /// Stream every emitted edge into a compressed sharded store at this
  /// directory (src/store/), one shard per rank, finalized with the v3
  /// manifest when the run completes. Engine-independent: generate() wraps
  /// the batched sink path, so any engine that emits edges feeds the store
  /// without materializing them. Incompatible with crash injection and
  /// checkpoint resume — both re-emit restored edges (at-least-once), which
  /// would duplicate blocks in the store; generate() rejects the combo.
  std::string store_dir;

  /// Edges per compressed block in the store (the seek / integrity /
  /// streaming-memory granularity; store::kDefaultBlockEdges).
  std::size_t store_block_edges = 65536;

  /// Spill per-rank derivation state to files under this directory instead
  /// of holding it all in RAM, bounding peak RSS at any n. Only engines
  /// with the state_spill capability honor it (commfree: x > 1 completed
  /// rows page out through store::ExternalArray; the x = 1 chain walk has
  /// O(1) state, so it accepts the option and writes nothing); generate()
  /// rejects it elsewhere. Output is bitwise-identical with or without
  /// spill.
  std::string spill_dir;

  /// In-RAM bytes each rank's spilled state may cache (>= one page).
  std::uint64_t spill_budget_bytes = std::uint64_t{64} << 20;

  // --- Robustness (docs/robustness.md) ---

  /// Deterministic fault script for the mps transport (mps/fault.h). An
  /// active plan implies `reliable`; a crash entry additionally switches
  /// the generators into crash-tolerant mode (duplicate resolutions are
  /// ignored instead of fatal, and outstanding requests are tracked for
  /// re-offer when a peer respawns).
  mps::FaultPlan fault_plan;

  /// Route sends through the ack/retransmit/dedup layer even without an
  /// active fault plan (mps/reliable.h).
  bool reliable = false;

  /// Directory for per-rank generation checkpoints. Empty (the default)
  /// disables checkpointing: a crashed rank then replays from scratch,
  /// which is still correct, just slower. The directory must exist; files
  /// are named pagen-ckpt-<rank> and overwritten atomically.
  std::string checkpoint_dir;

  /// Resolutions between checkpoint writes (per rank).
  Count checkpoint_every = 4096;

  /// Resume a *fresh* run from existing checkpoints in `checkpoint_dir`
  /// (generation-as-a-service retries, docs/robustness.md §6). Each rank
  /// restores its checkpointed slot slice before the generate phase and
  /// re-emits the restored edges, then continues with only the unresolved
  /// remainder. Unlike an in-run respawn, no peer re-offer broadcast is
  /// needed — all ranks start from their own checkpoints together. Missing
  /// or unreadable checkpoint files make the resume a plain cold start.
  bool resume = false;

  /// In-run crash tolerance budget: how many times a rank scripted to crash
  /// (fault_plan crash=) is respawned before the failure is surfaced to the
  /// caller as a job-level error (mps engine default: 3). Service retries
  /// set this to 0 so an injected crash fails the *attempt*, exercising the
  /// job-level retry path instead of the rank-level one.
  int max_respawns = 3;

  /// Reliable-delivery retransmission timeout, base and cap (milliseconds).
  std::int64_t rto_base_ms = 25;
  std::int64_t rto_max_ms = 400;

  // --- Model checking (docs/static-analysis.md, tools/mpsmc) ---

  /// Schedule-control seam: hand every delivery decision of the run's mps
  /// world to this hook (mps/delivery_hook.h; in practice an
  /// mps::mc::Scheduler). Incompatible with `reliable`, an active
  /// `fault_plan`, and checkpointing — a schedule-controlled world is
  /// plain best-effort transport. Non-owning; must outlive the call.
  mps::DeliveryHook* delivery_hook = nullptr;
};

}  // namespace pagen::core
