// Coarse per-rank generation checkpoints for crash recovery.
//
// A checkpoint captures the durable core of one rank's Algorithm 3.1/3.2
// state: the resolved F slice (plus, for x > 1, the per-slot attempt
// counters and copy-path latches that keep the counter-based draws on
// track). Waiter queues, send buffers, and transport state are deliberately
// NOT checkpointed — they are reconstructed by the recovery protocol: the
// respawned rank replays its unresolved slots (re-issuing requests), and a
// kTagRecover broadcast makes peers re-offer every request they still wait
// on (docs/robustness.md §3). Files are written atomically via
// save_bytes_atomic (util/file_bytes.h) so a crash mid-write never leaves a
// torn checkpoint, serialized with the varint coder of util/varint.h, and
// sealed with an FNV-1a content checksum verified before any field is
// parsed — a truncated, extended, or bit-flipped file raises CheckError
// instead of silently restoring garbage.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.h"

namespace pagen::core {

/// One rank's durable generation state. `f` holds one entry per slot
/// (x = 1: one per owned node; x > 1: part_size * x, slot-major), kNil for
/// unresolved slots. `attempts` / `locked_copy` are empty for x = 1.
struct RankCheckpoint {
  std::uint64_t n = 0;
  std::uint64_t x = 0;
  std::uint64_t seed = 0;
  std::int32_t rank = -1;
  std::int32_t nranks = 0;
  std::vector<NodeId> f;
  std::vector<std::uint32_t> attempts;
  std::vector<std::uint8_t> locked_copy;
};

/// Per-rank checkpoint file path inside `dir`.
[[nodiscard]] std::string checkpoint_path(const std::string& dir, Rank rank);

/// Serialize and atomically (over)write `ck` into `dir`. Throws CheckError
/// when the directory is not writable.
void save_checkpoint(const std::string& dir, const RankCheckpoint& ck);

/// Load rank `rank`'s checkpoint from `dir` into `out`. Returns false when
/// no checkpoint exists yet (recover from nothing); throws CheckError on a
/// corrupt or mismatching file (checksum mismatch — covering truncation,
/// trailing junk, and bitflips — wrong magic/version, element counts that
/// exceed the payload, or run-parameter mismatch).
[[nodiscard]] bool load_checkpoint(const std::string& dir, Rank rank,
                                   RankCheckpoint& out);

}  // namespace pagen::core
