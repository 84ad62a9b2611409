// svc layer 3 — the result cache: repeat requests never regenerate.
//
// pagen-lint: no-wallclock — eviction is LRU over a virtual access
// counter, never over timestamps (docs/serving.md).
//
// Two serving tiers, both keyed by the canonical spec_hash:
//
//  * ResultCache — an in-memory LRU of JobOutputs. Externally synchronized
//    (the Server's mutex); recency is a virtual access counter, so eviction
//    order is a deterministic function of the access history, not of
//    wall-clock.
//
//  * Store probe — a spec whose store_dir already holds a compressed block
//    store (src/store/) *produced by the same spec* is served from disk
//    without regeneration, surviving process restarts. Provenance is a
//    marker file recording the producing spec hash next to the manifest;
//    the manifest alone (num_nodes + counts) could not tell two seeds
//    apart. See docs/serving.md §3.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>

#include "obs/metrics.h"
#include "svc/job.h"

namespace pagen::svc {

class ResultCache {
 public:
  /// @param max_entries LRU bound; 0 disables the cache (lookup always
  ///   misses, insert is a no-op) for ablation runs.
  explicit ResultCache(std::size_t max_entries);

  /// The cached output for `key`, bumping its recency; null on miss.
  [[nodiscard]] std::shared_ptr<const JobOutput> lookup(std::uint64_t key);

  /// Insert (or refresh) `key`. Evicts the least-recently-used entry when
  /// the bound is exceeded.
  void insert(std::uint64_t key, std::shared_ptr<const JobOutput> value);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t max_entries() const { return max_entries_; }
  [[nodiscard]] Count hits() const { return hits_; }
  [[nodiscard]] Count misses() const { return misses_; }
  [[nodiscard]] Count evictions() const { return evictions_; }

  /// Mirror hit/miss/eviction tallies into obs counters (all may be null).
  void bind_metrics(obs::Counter* hits, obs::Counter* misses,
                    obs::Counter* evictions);

 private:
  struct Entry {
    std::shared_ptr<const JobOutput> value;
    std::list<std::uint64_t>::iterator lru_pos;
  };

  std::size_t max_entries_;
  std::list<std::uint64_t> lru_;  ///< front = most recent
  std::map<std::uint64_t, Entry> entries_;
  Count hits_ = 0;
  Count misses_ = 0;
  Count evictions_ = 0;
  obs::Counter* hits_metric_ = nullptr;
  obs::Counter* misses_metric_ = nullptr;
  obs::Counter* evictions_metric_ = nullptr;
};

/// Path of the spec-hash marker a completed kCompressedStore job writes
/// next to the manifest.
[[nodiscard]] std::string store_marker_path(const std::string& dir);

/// Record that `dir`'s compressed store was produced by a spec hashing to
/// `hash`. Written (atomically) after the shards and manifest, so a marker
/// implies a complete store. The v3 marker seals the store's content: it
/// records an FNV-1a checksum of `store.manifest` and of every
/// `edges.<r>.pcs` shard, so a later probe detects on-disk corruption
/// instead of serving poison.
void write_store_marker(const std::string& dir, std::uint64_t hash);

/// Outcome of probing `dir` for a store serving `spec` (docs/robustness.md
/// §6). Exactly one of three shapes: a verified match; a plain miss (no
/// marker, a v1 or v2 marker of a retired layout, or a different spec's
/// store); or *corrupt* — the marker claims this spec but the content fails
/// verification (checksum mismatch, torn manifest, a shard line missing or
/// out of order, wrong counts). Corrupt stores must be quarantined, never
/// served.
struct StoreProbe {
  bool match = false;
  bool corrupt = false;
  std::string detail;  ///< human-readable reason when corrupt
};

/// Verify-on-read probe. Never throws — every defect is a miss or a
/// corruption verdict, not an error.
[[nodiscard]] StoreProbe probe_store(const std::string& dir,
                                     const JobSpec& spec);

/// True when `dir` holds a complete, checksum-verified compressed store
/// produced by `spec` (probe_store(...).match).
[[nodiscard]] bool store_matches(const std::string& dir, const JobSpec& spec);

/// Quarantine a corrupt artifact: atomically rename `path` to
/// `path + ".quarantined"` (clobbering any previous quarantine) so later
/// probes miss instead of re-reading poison, while the bytes stay on disk
/// for post-mortem. Returns false when the rename fails (e.g. the file
/// vanished); never throws.
bool quarantine_file(const std::string& path);

/// Quarantine a corrupt store: rename its marker aside (the marker is the
/// store's validity seal, so the directory reads as a plain miss and the
/// next run regenerates in place). Returns false when no marker existed.
bool quarantine_store(const std::string& dir);

}  // namespace pagen::svc
