// svc layer 1 — jobs: what a client asks the generation service to do.
//
// A JobSpec is one generation request: the PaConfig workload, the runtime
// knobs that shape the run (ranks, scheme, buffering), where the edges
// should go (Sink), and the scheduling attributes (priority, virtual-tick
// deadline). spec_hash() is the canonical identity of the *output* — it
// covers exactly the fields that determine which graph is generated, and
// deliberately excludes priority / deadline / sink routing, so a cached
// result can serve any repeat request for the same graph regardless of how
// it is scheduled or delivered. See docs/serving.md.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baseline/pa_config.h"
#include "graph/edge_list.h"
#include "mps/fault.h"
#include "partition/partition.h"
#include "util/types.h"

namespace pagen::svc {

/// Opaque job ticket returned by Server::submit. 0 is never issued.
using JobId = std::uint64_t;
inline constexpr JobId kNoJob = 0;

/// Where a job's edges go.
enum class Sink : std::uint8_t {
  kCount,         ///< no edge storage: load statistics / warm-up runs
  kGather,        ///< edges (and the x = 1 targets row) in the JobOutput
  /// Compressed block store (src/store/, docs/storage.md) in store_dir:
  /// edges stream straight from the generator's sink into delta+varint
  /// blocks, so the job never materializes its edges, and the result is
  /// re-loadable under a memory budget (store::ShardedGraphView). Sealed
  /// with a v3 marker that the next probe verifies. Incompatible with
  /// crash-injection fault plans (re-emission would duplicate blocks);
  /// retries regenerate from scratch instead of resuming.
  kCompressedStore,
};

struct JobSpec {
  PaConfig config;

  // Runtime shape (the ParallelOptions subset a service client may set).
  /// Generation engine (core/engine/engine.h): "mps", "commfree",
  /// "seq-copy", "seq-bb". Part of spec_hash — engines are only
  /// distribution-equivalent, not bitwise-equivalent, so outputs of
  /// different engines are different cacheable identities. validate()
  /// rejects unknown names and capability mismatches at submit.
  std::string engine = "mps";
  int ranks = 4;
  partition::Scheme scheme = partition::Scheme::kRrp;
  std::size_t buffer_capacity = 256;
  std::size_t node_batch = 1024;

  // Delivery.
  Sink sink = Sink::kGather;
  /// Compressed-store directory. Required for Sink::kCompressedStore; when
  /// set on any sink it is also probed for an existing matching store at
  /// submit (docs/serving.md §3). Give distinct specs distinct directories.
  std::string store_dir;

  // Scheduling (never part of spec_hash).
  std::uint32_t priority = 0;  ///< higher runs first; FIFO within a priority
  /// Virtual deadline: the job expires if it has not been dispatched by the
  /// time this many jobs have been accepted (Server's admission tick), and
  /// a running job past it is cancelled at the next hook poll. 0 = none.
  /// Virtual ticks keep every scheduling decision wall-clock free.
  std::uint64_t deadline = 0;

  // Robustness (never part of spec_hash — retries reproduce the same graph).
  /// Worker runs this job may consume before it fails terminally. Attempts
  /// beyond the first resume from the job's checkpoint directory (when the
  /// server has one) after a deterministic virtual-tick backoff.
  std::uint32_t max_attempts = 1;
  /// Per-job transport fault plan (tests/chaos; inert by default). Applied
  /// to the ParallelOptions of every attempt.
  mps::FaultPlan fault_plan;
  /// Route the run through the reliable-delivery layer even without faults.
  bool reliable = false;
  /// In-run rank respawn budget for scripted crashes (mps engine default
  /// 3). 0 turns a crash into an attempt-level failure, exercising the
  /// job retry path instead of the rank respawn path.
  int max_respawns = 3;
  /// Reliable-transport retransmission timeout, base and cap in ms
  /// (core::ParallelOptions defaults; only consulted on reliable runs).
  std::int64_t rto_base_ms = 25;
  std::int64_t rto_max_ms = 400;
};

/// Canonical FNV-1a identity of the graph a spec generates: config fields,
/// the engine, plus the runtime knobs that can shape x > 1 output (ranks,
/// scheme, buffering). Stable across processes and platforms; versioned by a
/// domain tag so the hash space can be rotated if the schema ever changes
/// (the engine field rotated it to '02).
[[nodiscard]] std::uint64_t spec_hash(const JobSpec& spec);

/// Spec admission check: empty string = admissible, otherwise the reason
/// (mirrors the PAGEN_CHECK preconditions of core::generate so an invalid
/// spec is rejected at submit instead of killing a worker).
[[nodiscard]] std::string validate(const JobSpec& spec);

enum class JobState : std::uint8_t {
  kQueued,     ///< admitted, waiting for a worker
  kRunning,    ///< a worker is generating
  kCompleted,  ///< terminal: output available
  kCancelled,  ///< terminal: cancelled before or during generation
  kExpired,    ///< terminal: virtual deadline passed before dispatch
  kFailed,     ///< terminal: generation threw on every attempt
  kShed,       ///< terminal: evicted from the queue to admit higher priority
};
[[nodiscard]] const char* to_string(JobState s);
[[nodiscard]] inline bool terminal(JobState s) {
  return s != JobState::kQueued && s != JobState::kRunning;
}

/// Admission verdicts (reject-with-reason backpressure, docs/serving.md §2).
enum class Reject : std::uint8_t {
  kNone,             ///< accepted
  kQueueFull,        ///< bounded queue at capacity: back off and retry
  kShuttingDown,     ///< server draining or stopped
  kInvalidSpec,      ///< validate() failed
  kDeadlineExpired,  ///< deadline already behind the admission tick
  kCircuitOpen,      ///< this spec failed k consecutive attempts: fast-fail
};
[[nodiscard]] const char* to_string(Reject r);

/// A completed job's product. Shared immutably between the job record, the
/// result cache, and every client that polled it.
struct JobOutput {
  /// Gathered edges in emission (rank-concatenation) order. Sink::kGather
  /// only; normalize before comparing across runs.
  graph::EdgeList edges;
  /// F_t per node (Sink::kGather with x == 1 on a fresh run; empty when the
  /// job was served from a compressed store, which persists only edges).
  std::vector<NodeId> targets;
  Count total_edges = 0;
  /// Directory of the compressed store this output lives in
  /// (kCompressedStore jobs and store-served repeats).
  std::string store_dir;
};

/// Snapshot returned by Server::poll / wait.
struct JobStatus {
  JobState state = JobState::kQueued;
  /// Served from the result cache or an existing compressed store, without
  /// running the generators.
  bool from_cache = false;
  /// Worker runs consumed so far (0 for cache/store hits).
  std::uint32_t attempts = 0;
  /// A retry attempt restored at least one slot from the job's checkpoint —
  /// proof the job resumed prior progress instead of regenerating it.
  bool resumed = false;
  /// What() of the generation failure (kFailed only; the last attempt's).
  std::string error;
  /// Non-null exactly when state == kCompleted.
  std::shared_ptr<const JobOutput> output;
};

}  // namespace pagen::svc
