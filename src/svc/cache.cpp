// pagen-lint: no-wallclock (see cache.h)
#include "svc/cache.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "store/edge_writer.h"
#include "util/error.h"
#include "util/file_bytes.h"

namespace pagen::svc {

ResultCache::ResultCache(std::size_t max_entries) : max_entries_(max_entries) {}

std::shared_ptr<const JobOutput> ResultCache::lookup(std::uint64_t key) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    if (misses_metric_ != nullptr) misses_metric_->add();
    return nullptr;
  }
  ++hits_;
  if (hits_metric_ != nullptr) hits_metric_->add();
  lru_.erase(it->second.lru_pos);
  lru_.push_front(key);
  it->second.lru_pos = lru_.begin();
  return it->second.value;
}

void ResultCache::insert(std::uint64_t key,
                         std::shared_ptr<const JobOutput> value) {
  if (max_entries_ == 0) return;
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Refresh: newer output wins (e.g. a store-served entry upgraded by a
    // fresh gather run that also carries the targets row).
    it->second.value = std::move(value);
    lru_.erase(it->second.lru_pos);
    lru_.push_front(key);
    it->second.lru_pos = lru_.begin();
    return;
  }
  if (entries_.size() >= max_entries_) {
    const std::uint64_t victim = lru_.back();
    lru_.pop_back();
    entries_.erase(victim);
    ++evictions_;
    if (evictions_metric_ != nullptr) evictions_metric_->add();
  }
  lru_.push_front(key);
  entries_.emplace(key, Entry{std::move(value), lru_.begin()});
}

void ResultCache::bind_metrics(obs::Counter* hits, obs::Counter* misses,
                               obs::Counter* evictions) {
  hits_metric_ = hits;
  misses_metric_ = misses;
  evictions_metric_ = evictions;
}

namespace {

/// Tag on the first marker line: the spec hash that sealed a compressed
/// store. v1 (no checksums) and v2 (the retired raw-shard layout) markers
/// carry other tags and read as a plain miss.
constexpr const char* kMarkerTag = "pagen.svc.store.v3";

/// Verify the sealed content against the rest of the marker (after its tag
/// line): the manifest checksum, then exactly one shard line per manifest
/// shard, ranks 0..num_shards-1 in order, each matching its file, then the
/// manifest's counts against the spec. Empty when everything holds,
/// otherwise why not.
std::string verify_seal(std::istream& is, const std::string& dir,
                        const JobSpec& spec) {
  std::string tag;
  std::uint64_t want = 0;
  std::uint64_t got = 0;
  if (!(is >> tag >> std::hex >> want) || tag != "manifest") {
    return "marker truncated before manifest checksum";
  }
  if (!store::streaming_file_fnv1a(store::manifest_path(dir), got)) {
    return "manifest unreadable";
  }
  if (got != want) return "manifest checksum mismatch";
  const store::StoreManifest manifest = store::load_manifest(dir);
  for (int r = 0; r < manifest.num_shards; ++r) {
    const std::string which = "shard " + std::to_string(r);
    int shard = -1;
    if (!(is >> tag >> std::dec >> shard >> std::hex >> want) ||
        tag != "shard" || shard != r) {
      return "marker lacks the line of " + which;
    }
    if (!store::streaming_file_fnv1a(store::shard_path(dir, r), got)) {
      return which + " unreadable";
    }
    if (got != want) return which + " checksum mismatch";
  }
  if (is >> tag) return "marker lists more shards than the manifest";
  if (manifest.num_nodes != spec.config.n ||
      manifest.total_edges() != expected_edge_count(spec.config)) {
    return "manifest counts disagree with spec";
  }
  return {};
}

}  // namespace

std::string store_marker_path(const std::string& dir) {
  return dir + "/svc-spec";
}

void write_store_marker(const std::string& dir, std::uint64_t hash) {
  const int num_shards = store::load_manifest(dir).num_shards;
  std::ostringstream os;
  os << kMarkerTag << " " << std::hex << hash << "\n";
  std::uint64_t sum = 0;
  PAGEN_CHECK_MSG(store::streaming_file_fnv1a(store::manifest_path(dir), sum),
                  "cannot checksum manifest in " << dir);
  os << "manifest " << sum << "\n";
  for (int r = 0; r < num_shards; ++r) {
    PAGEN_CHECK_MSG(store::streaming_file_fnv1a(store::shard_path(dir, r), sum),
                    "cannot checksum shard " << r << " in " << dir);
    os << "shard " << std::dec << r << " " << std::hex << sum << "\n";
  }
  const std::string text = os.str();
  save_bytes_atomic(store_marker_path(dir),
                    std::vector<std::uint8_t>(text.begin(), text.end()));
}

StoreProbe probe_store(const std::string& dir, const JobSpec& spec) {
  StoreProbe probe;
  std::ifstream is(store_marker_path(dir));
  if (!is.is_open()) return probe;  // no marker: plain miss
  std::string tag;
  std::uint64_t recorded = 0;
  is >> tag >> std::hex >> recorded;
  // A marker of a retired layout, or another spec's store: a plain miss,
  // regenerated under a current seal.
  if (!is || tag != kMarkerTag || recorded != spec_hash(spec)) return probe;
  // The marker claims this spec: from here every defect is corruption.
  try {
    probe.detail = verify_seal(is, dir, spec);
  } catch (const CheckError& e) {
    probe.detail = e.what();
  }
  probe.match = probe.detail.empty();
  probe.corrupt = !probe.match;
  return probe;
}

bool store_matches(const std::string& dir, const JobSpec& spec) {
  return probe_store(dir, spec).match;
}

bool quarantine_file(const std::string& path) {
  std::error_code ec;
  std::filesystem::rename(path, path + ".quarantined", ec);
  return !ec;
}

bool quarantine_store(const std::string& dir) {
  return quarantine_file(store_marker_path(dir));
}

}  // namespace pagen::svc
