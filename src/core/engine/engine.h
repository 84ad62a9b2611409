// The engine layer: one front door, N interchangeable generator backends.
//
// An Engine is a complete strategy for producing the preferential-attachment
// graph of a (PaConfig, ParallelOptions) pair. core::generate() is a thin
// dispatcher over the EngineRegistry: it looks up ParallelOptions::engine,
// verifies the requested options against the engine's declared capabilities
// (an engine without checkpoint support *rejects* checkpoint_dir instead of
// silently ignoring it), and delegates. Built-in engines:
//
//   mps       the paper's request/resolved message-passing protocol
//             (Algorithms 3.1 / 3.2 via the genrt runtime)
//   commfree  communication-free pseudorandomization (Sanders & Schulz,
//             arXiv:1602.07106): every rank re-derives remote F_k values
//             locally from the counter-based draw chain — zero messages
//   seq-copy  sequential copy-model reference (baseline/copy_model_seq.h)
//   seq-bb    sequential Batagelj-Brandes BA reference (p is ignored)
//
// docs/architecture.md "Engine layer" documents the capability matrix and
// how to add an engine.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "baseline/pa_config.h"
#include "core/options.h"
#include "core/parallel_pa.h"

namespace pagen::core {

/// How reproducible an engine's output is across runs of one spec.
enum class Determinism : std::uint8_t {
  /// Bitwise-identical edge *set* for every supported rank count and
  /// partition scheme, for every x (emission order may still differ).
  kBitwise,
  /// Bitwise for x = 1 on any rank count, and for any x at ranks = 1;
  /// x > 1 multi-rank output depends on message timing (docs/serving.md §5).
  kBitwiseX1,
};

[[nodiscard]] const char* to_string(Determinism d);

/// What an engine supports beyond plain generation. generate() enforces
/// these against the requested ParallelOptions before dispatch, so asking an
/// engine for a feature it lacks is a loud CheckError, never a silent no-op.
struct EngineCaps {
  bool checkpointing = false;    ///< honors checkpoint_dir / resume
  bool fault_tolerance = false;  ///< honors fault_plan / reliable transport
  bool delivery_hook = false;    ///< honors the mpsmc schedule-control seam
  bool multi_rank = true;        ///< supports ranks > 1
  /// Honors spill_dir / spill_budget_bytes: per-rank derivation state pages
  /// to disk under a byte budget, bounding peak RSS at any n; an engine
  /// whose state is already O(1) for a config accepts them as a no-op
  /// (docs/storage.md §5).
  bool state_spill = false;
  Determinism determinism = Determinism::kBitwise;
};

/// One generator backend. Implementations are stateless (all run state is
/// local to run()), so a single registered instance serves concurrent jobs.
class Engine {
 public:
  virtual ~Engine() = default;

  /// Registry key and CLI spelling (--engine=<name>).
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// One-line human description for --help and docs.
  [[nodiscard]] virtual std::string_view description() const = 0;

  [[nodiscard]] virtual EngineCaps capabilities() const = 0;

  /// Generate. The caller (core::generate) has already verified the options
  /// against capabilities(); engines re-check their own PaConfig
  /// preconditions so direct run() calls stay safe.
  [[nodiscard]] virtual ParallelResult run(
      const PaConfig& config, const ParallelOptions& options) const = 0;
};

/// Process-wide engine table. The built-in engines are registered by the
/// constructor, so instance() is never empty. add() is not thread-safe —
/// register custom engines during startup, before concurrent generate()
/// calls.
class EngineRegistry {
 public:
  [[nodiscard]] static EngineRegistry& instance();

  /// Register an engine; names must be unique.
  void add(std::unique_ptr<Engine> engine);

  /// The named engine, or null when unknown.
  [[nodiscard]] const Engine* find(std::string_view name) const;

  /// The named engine; throws CheckError listing the registered names when
  /// unknown.
  [[nodiscard]] const Engine& require(std::string_view name) const;

  /// All engines in registration order (built-ins first).
  [[nodiscard]] std::vector<const Engine*> engines() const;

  /// "mps, commfree, seq-copy, seq-bb" — for error messages and --help.
  [[nodiscard]] std::string names() const;

 private:
  EngineRegistry();

  std::vector<std::unique_ptr<Engine>> engines_;
};

/// Reject options the engine's capabilities cannot honor (checkpointing,
/// fault injection, delivery hook, multi-rank). Called by generate() before
/// dispatch; throws CheckError naming the engine and the offending option.
void check_engine_options(const Engine& engine, const ParallelOptions& options);

// Built-in engine factories (one translation unit each).
[[nodiscard]] std::unique_ptr<Engine> make_mps_engine();
[[nodiscard]] std::unique_ptr<Engine> make_comm_free_engine();
[[nodiscard]] std::unique_ptr<Engine> make_seq_copy_engine();
[[nodiscard]] std::unique_ptr<Engine> make_seq_bb_engine();

}  // namespace pagen::core
