// Unit coverage of the svc building blocks below the Server facade: JobSpec
// hashing/validation, the bounded priority JobQueue, the LRU ResultCache,
// and the compressed-store provenance marker (docs/serving.md §2–3).
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/generate.h"
#include "obs/metrics.h"
#include "store/edge_writer.h"
#include "svc/cache.h"
#include "svc/job.h"
#include "svc/queue.h"
#include "util/error.h"

namespace pagen::svc {
namespace {

JobSpec small_spec() {
  JobSpec spec;
  spec.config.n = 64;
  spec.config.x = 1;
  spec.config.seed = 7;
  spec.ranks = 2;
  return spec;
}

// --- JobSpec: hash + validation ---

TEST(SpecHash, CoversEveryOutputShapingField) {
  const JobSpec base = small_spec();
  const std::uint64_t h = spec_hash(base);
  EXPECT_EQ(h, spec_hash(base)) << "hash must be pure";

  JobSpec s = base;
  s.config.n = 65;
  EXPECT_NE(spec_hash(s), h);
  s = base;
  s.config.x = 2;
  EXPECT_NE(spec_hash(s), h);
  s = base;
  s.config.p = 0.25;
  EXPECT_NE(spec_hash(s), h);
  s = base;
  s.config.seed = 8;
  EXPECT_NE(spec_hash(s), h);
  s = base;
  s.ranks = 3;
  EXPECT_NE(spec_hash(s), h);
  s = base;
  s.scheme = partition::Scheme::kUcp;
  EXPECT_NE(spec_hash(s), h);
  s = base;
  s.buffer_capacity = 17;
  EXPECT_NE(spec_hash(s), h);
  s = base;
  s.node_batch = 5;
  EXPECT_NE(spec_hash(s), h);
}

// The engine participates in the hash (docs/serving.md §1): engines are only
// distribution-equivalent, so a commfree output must never satisfy a cache
// or store probe for an mps spec — and even a single flipped byte in the
// engine name rotates the identity.
TEST(SpecHash, EngineParticipatesInTheHash) {
  const JobSpec base = small_spec();
  const std::uint64_t h = spec_hash(base);
  EXPECT_EQ(base.engine, "mps") << "default engine";

  JobSpec s = base;
  s.engine = "commfree";
  EXPECT_NE(spec_hash(s), h);
  s.engine = "seq-copy";
  EXPECT_NE(spec_hash(s), h);

  // Byte-flip: same length, one byte differs. spec_hash deliberately does
  // not validate names, so unregistered probes are fine here.
  s = base;
  s.engine = "mpt";
  EXPECT_NE(spec_hash(s), h);
}

TEST(SpecValidate, EngineMustBeRegisteredAndCompatible) {
  JobSpec s = small_spec();
  s.engine = "commfree";
  EXPECT_EQ(validate(s), "");

  s = small_spec();
  s.engine = "no-such-engine";
  EXPECT_NE(validate(s), "") << "unknown engine";

  s = small_spec();
  s.engine = "seq-copy";
  s.ranks = 2;
  EXPECT_NE(validate(s), "") << "single-rank engine with ranks > 1";
  s.ranks = 1;
  EXPECT_EQ(validate(s), "");

  s = small_spec();
  s.engine = "commfree";
  s.ranks = 2;
  s.reliable = true;
  EXPECT_NE(validate(s), "") << "commfree has no reliable transport";
}

TEST(SpecHash, IgnoresSchedulingAndDelivery) {
  const JobSpec base = small_spec();
  JobSpec s = base;
  s.priority = 9;
  s.deadline = 100;
  s.sink = Sink::kCount;
  s.store_dir = "/tmp/elsewhere";
  EXPECT_EQ(spec_hash(s), spec_hash(base))
      << "how a job is scheduled or delivered must not change its identity";
}

TEST(SpecValidate, AcceptsAndRejects) {
  EXPECT_EQ(validate(small_spec()), "");

  JobSpec s = small_spec();
  s.config.x = 0;
  EXPECT_NE(validate(s), "");
  s = small_spec();
  s.config.n = 1;
  EXPECT_NE(validate(s), "");
  s = small_spec();
  s.config.x = 4;
  s.config.n = 4;
  EXPECT_NE(validate(s), "");
  s = small_spec();
  s.config.p = 1.5;
  EXPECT_NE(validate(s), "");
  s = small_spec();
  s.config.x = 4;
  s.config.p = 1.0;
  EXPECT_NE(validate(s), "") << "p == 1 diverges for x > 1";
  s = small_spec();
  s.ranks = 0;
  EXPECT_NE(validate(s), "");
  s = small_spec();
  s.ranks = 128;
  EXPECT_NE(validate(s), "") << "more ranks than nodes";
  s = small_spec();
  s.buffer_capacity = 0;
  EXPECT_NE(validate(s), "");
  s = small_spec();
  s.node_batch = 0;
  EXPECT_NE(validate(s), "");
  s = small_spec();
  s.sink = Sink::kCompressedStore;
  EXPECT_NE(validate(s), "") << "store sink without a directory";
}

TEST(JobEnums, StringsAndTerminality) {
  EXPECT_STREQ(to_string(JobState::kQueued), "queued");
  EXPECT_STREQ(to_string(JobState::kCompleted), "completed");
  EXPECT_STREQ(to_string(Reject::kQueueFull), "queue-full");
  EXPECT_FALSE(terminal(JobState::kQueued));
  EXPECT_FALSE(terminal(JobState::kRunning));
  EXPECT_TRUE(terminal(JobState::kCompleted));
  EXPECT_TRUE(terminal(JobState::kCancelled));
  EXPECT_TRUE(terminal(JobState::kExpired));
  EXPECT_TRUE(terminal(JobState::kFailed));
}

// --- JobQueue ---

TEST(JobQueue, PriorityThenFifo) {
  JobQueue q(8);
  // seq doubles as the admission order.
  EXPECT_TRUE(q.push(1, /*priority=*/0, /*seq=*/1));
  EXPECT_TRUE(q.push(2, /*priority=*/5, /*seq=*/2));
  EXPECT_TRUE(q.push(3, /*priority=*/5, /*seq=*/3));
  EXPECT_TRUE(q.push(4, /*priority=*/1, /*seq=*/4));
  EXPECT_EQ(q.peek(), 2u) << "highest priority first";
  EXPECT_EQ(q.pop(), 2u);
  EXPECT_EQ(q.pop(), 3u) << "FIFO within a priority";
  EXPECT_EQ(q.pop(), 4u);
  EXPECT_EQ(q.pop(), 1u);
  EXPECT_EQ(q.pop(), kNoJob);
  EXPECT_EQ(q.peek(), kNoJob);
}

TEST(JobQueue, BoundIsTheBackpressureValve) {
  JobQueue q(2);
  EXPECT_TRUE(q.push(1, 0, 1));
  EXPECT_TRUE(q.push(2, 0, 2));
  EXPECT_TRUE(q.full());
  EXPECT_FALSE(q.push(3, 9, 3)) << "priority does not override the bound";
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop(), 1u);
  EXPECT_TRUE(q.push(3, 9, 3)) << "space freed by pop readmits";
}

TEST(JobQueue, RemoveIsACancelOfAQueuedJob) {
  JobQueue q(4);
  q.push(1, 0, 1);
  q.push(2, 0, 2);
  q.push(3, 0, 3);
  EXPECT_TRUE(q.remove(2));
  EXPECT_FALSE(q.remove(2)) << "already gone";
  EXPECT_FALSE(q.remove(99)) << "never queued";
  EXPECT_EQ(q.pop(), 1u);
  EXPECT_EQ(q.pop(), 3u);
  EXPECT_TRUE(q.empty());
}

// --- ResultCache ---

std::shared_ptr<const JobOutput> output_of(Count edges) {
  auto out = std::make_shared<JobOutput>();
  out->total_edges = edges;
  return out;
}

TEST(ResultCache, LruEvictionOrderFollowsAccessHistory) {
  ResultCache cache(2);
  cache.insert(1, output_of(10));
  cache.insert(2, output_of(20));
  ASSERT_NE(cache.lookup(1), nullptr);  // 1 is now the most recent
  cache.insert(3, output_of(30));      // evicts 2, the least recent
  EXPECT_EQ(cache.lookup(2), nullptr);
  EXPECT_NE(cache.lookup(1), nullptr);
  EXPECT_NE(cache.lookup(3), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ResultCache, RefreshKeepsOneEntryAndNewestValue) {
  ResultCache cache(2);
  cache.insert(1, output_of(10));
  cache.insert(1, output_of(11));
  EXPECT_EQ(cache.size(), 1u);
  const auto out = cache.lookup(1);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->total_edges, 11u) << "newer output wins";
}

TEST(ResultCache, ZeroCapacityDisables) {
  ResultCache cache(0);
  cache.insert(1, output_of(10));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.lookup(1), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ResultCache, MirrorsTalliesIntoObsCounters) {
  obs::MetricsRegistry reg;
  ResultCache cache(1);
  cache.bind_metrics(&reg.counter("svc.cache_hits"),
                     &reg.counter("svc.cache_misses"),
                     &reg.counter("svc.cache_evictions"));
  cache.insert(1, output_of(10));
  (void)cache.lookup(1);
  (void)cache.lookup(2);
  cache.insert(2, output_of(20));  // evicts 1
  EXPECT_EQ(reg.counter("svc.cache_hits").value(), 1u);
  EXPECT_EQ(reg.counter("svc.cache_misses").value(), 1u);
  EXPECT_EQ(reg.counter("svc.cache_evictions").value(), 1u);
}

// --- Compressed-store provenance marker ---

class StoreMarkerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("pagen_svc_store_" + std::to_string(counter_++)))
               .string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  static int counter_;
};
int StoreMarkerTest::counter_ = 0;

/// Writes `spec`'s edges as a compressed store in `dir` (no marker).
void write_store(const std::string& dir, const JobSpec& spec) {
  core::ParallelOptions opt;
  opt.ranks = spec.ranks;
  opt.scheme = spec.scheme;
  opt.gather_edges = false;
  opt.store_dir = dir;
  (void)core::generate(spec.config, opt);
}

/// Builds a complete, sealed store for `spec` in `dir`.
void build_store(const std::string& dir, const JobSpec& spec) {
  write_store(dir, spec);
  write_store_marker(dir, spec_hash(spec));
}

TEST_F(StoreMarkerTest, CompleteStoreWithMatchingMarkerServes) {
  JobSpec spec = small_spec();
  spec.store_dir = dir_;
  build_store(dir_, spec);

  EXPECT_TRUE(store_matches(dir_, spec));

  JobSpec other = spec;
  other.config.seed = 99;
  EXPECT_FALSE(store_matches(dir_, other))
      << "the manifest alone cannot tell two seeds apart — the marker must";
}

TEST_F(StoreMarkerTest, MissingPiecesAreAMissNotAnError) {
  JobSpec spec = small_spec();
  spec.store_dir = dir_;
  EXPECT_FALSE(store_matches(dir_, spec)) << "directory does not even exist";

  // Sealing a storeless directory is impossible: the marker checksums the
  // manifest and shards at write time.
  std::filesystem::create_directories(dir_);
  EXPECT_THROW(write_store_marker(dir_, spec_hash(spec)), CheckError);
  EXPECT_FALSE(store_matches(dir_, spec));

  // Corrupt marker next to a real store: a miss.
  write_store(dir_, spec);
  {
    std::ofstream os(store_marker_path(dir_), std::ios::trunc);
    os << "not-a-marker\n";
  }
  EXPECT_FALSE(store_matches(dir_, spec));
}

/// The marker's lines.
std::vector<std::string> marker_lines(const std::string& dir) {
  std::ifstream is(store_marker_path(dir));
  std::vector<std::string> lines;
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

/// Replace the marker with `lines`.
void rewrite_marker(const std::string& dir,
                    const std::vector<std::string>& lines) {
  std::ofstream os(store_marker_path(dir), std::ios::trunc);
  for (const std::string& line : lines) os << line << "\n";
}

TEST_F(StoreMarkerTest, RetiredMarkerVersionsAreAMiss) {
  // v1 carried no checksums and v2 sealed the retired raw-shard layout;
  // both read as a plain miss (never corrupt), so the store regenerates
  // under a v3 seal.
  JobSpec spec = small_spec();
  spec.store_dir = dir_;
  build_store(dir_, spec);
  std::vector<std::string> lines = marker_lines(dir_);
  const std::string v3 = "pagen.svc.store.v3";
  ASSERT_EQ(lines[0].substr(0, v3.size()), v3);
  for (const std::string old : {"pagen.svc.store.v1", "pagen.svc.store.v2"}) {
    lines[0].replace(0, v3.size(), old);
    rewrite_marker(dir_, lines);
    const StoreProbe probe = probe_store(dir_, spec);
    EXPECT_FALSE(probe.match) << old;
    EXPECT_FALSE(probe.corrupt) << old;
    lines[0].replace(0, old.size(), v3);
  }
  rewrite_marker(dir_, lines);
  EXPECT_TRUE(store_matches(dir_, spec));
}

/// Flip one byte in the middle of `path`.
void flip_byte(const std::string& path) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(0, std::ios::end);
  const auto size = f.tellg();
  ASSERT_GT(size, 0);
  f.seekg(static_cast<std::streamoff>(size) / 2);
  char b = 0;
  f.read(&b, 1);
  f.seekp(static_cast<std::streamoff>(size) / 2);
  b = static_cast<char>(b ^ 0x01);
  f.write(&b, 1);
}

TEST_F(StoreMarkerTest, ByteFlippedMarkerNeverMatches) {
  JobSpec spec = small_spec();
  spec.store_dir = dir_;
  build_store(dir_, spec);
  ASSERT_TRUE(store_matches(dir_, spec));

  flip_byte(store_marker_path(dir_));
  EXPECT_FALSE(store_matches(dir_, spec))
      << "a rotten marker must never serve (any parse is a miss or corrupt)";
}

TEST_F(StoreMarkerTest, ByteFlippedShardIsCorruptAndQuarantinable) {
  JobSpec spec = small_spec();
  spec.store_dir = dir_;
  build_store(dir_, spec);
  ASSERT_TRUE(probe_store(dir_, spec).match);

  flip_byte(store::shard_path(dir_, 0));
  const StoreProbe probe = probe_store(dir_, spec);
  EXPECT_FALSE(probe.match);
  EXPECT_TRUE(probe.corrupt) << "the marker claims this spec, so a content "
                                "mismatch is corruption, not a miss";
  EXPECT_NE(probe.detail.find("shard 0"), std::string::npos) << probe.detail;

  EXPECT_TRUE(quarantine_store(dir_));
  EXPECT_FALSE(probe_store(dir_, spec).corrupt) << "quarantined = plain miss";
  EXPECT_FALSE(store_matches(dir_, spec));
  EXPECT_TRUE(std::filesystem::exists(store_marker_path(dir_) +
                                      ".quarantined"))
      << "the poisoned marker is kept aside for post-mortem";

  // Regeneration over the same directory re-seals it.
  build_store(dir_, spec);
  EXPECT_TRUE(store_matches(dir_, spec));
}

TEST_F(StoreMarkerTest, ByteFlippedManifestIsCorrupt) {
  JobSpec spec = small_spec();
  spec.store_dir = dir_;
  build_store(dir_, spec);

  flip_byte(store::manifest_path(dir_));
  const StoreProbe probe = probe_store(dir_, spec);
  EXPECT_FALSE(probe.match);
  EXPECT_TRUE(probe.corrupt);
}

TEST_F(StoreMarkerTest, MarkerMissingShardLinesIsCorrupt) {
  // A torn marker that lists fewer shards than the manifest must not vouch
  // for the unlisted shards: here shard 1 is rotten and unlisted.
  JobSpec spec = small_spec();
  spec.store_dir = dir_;
  ASSERT_EQ(spec.ranks, 2);
  build_store(dir_, spec);
  const std::vector<std::string> lines = marker_lines(dir_);
  ASSERT_EQ(lines.size(), 4u);  // tag, manifest, shard 0, shard 1
  flip_byte(store::shard_path(dir_, 1));

  rewrite_marker(dir_, {lines[0], lines[1], lines[2]});
  StoreProbe probe = probe_store(dir_, spec);
  EXPECT_FALSE(probe.match);
  EXPECT_TRUE(probe.corrupt);
  EXPECT_NE(probe.detail.find("shard 1"), std::string::npos) << probe.detail;

  rewrite_marker(dir_, {lines[0], lines[1]});
  probe = probe_store(dir_, spec);
  EXPECT_FALSE(probe.match);
  EXPECT_TRUE(probe.corrupt);
  EXPECT_NE(probe.detail.find("shard 0"), std::string::npos) << probe.detail;
}

TEST_F(StoreMarkerTest, MarkerShardLinesMustMatchTheManifestInOrder) {
  JobSpec spec = small_spec();
  spec.store_dir = dir_;
  build_store(dir_, spec);
  const std::vector<std::string> lines = marker_lines(dir_);
  ASSERT_EQ(lines.size(), 4u);

  rewrite_marker(dir_, {lines[0], lines[1], lines[3], lines[2]});
  EXPECT_TRUE(probe_store(dir_, spec).corrupt) << "out of order";
  rewrite_marker(dir_, {lines[0], lines[1], lines[2], lines[3], lines[3]});
  EXPECT_TRUE(probe_store(dir_, spec).corrupt) << "one line too many";
  rewrite_marker(dir_, lines);
  EXPECT_TRUE(probe_store(dir_, spec).match);
}

// --- JobQueue: retry backoff eligibility and the shedding ladder ---

TEST(JobQueue, NotBeforeHidesEntriesUntilTheVirtualTick) {
  JobQueue q(4);
  EXPECT_TRUE(q.push(1, /*priority=*/5, /*seq=*/1, /*not_before=*/10));
  EXPECT_TRUE(q.push(2, /*priority=*/0, /*seq=*/2));
  EXPECT_EQ(q.peek(3), 2u) << "job 1 outranks 2 but is still in backoff";
  EXPECT_EQ(q.pop(3), 2u);
  EXPECT_EQ(q.pop(9), kNoJob) << "one tick early";
  EXPECT_EQ(q.earliest_ready(), 10u);
  EXPECT_EQ(q.pop(10), 1u) << "eligible exactly at not_before";
  EXPECT_EQ(q.earliest_ready(), JobQueue::kAnyTick) << "empty queue";
}

TEST(JobQueue, DefaultPopIgnoresBackoff) {
  JobQueue q(4);
  EXPECT_TRUE(q.push(1, 0, 1, /*not_before=*/100));
  EXPECT_EQ(q.pop(), 1u) << "the shutdown drain pops regardless of backoff";
}

TEST(JobQueue, ForcePushBypassesTheBound) {
  JobQueue q(1);
  EXPECT_TRUE(q.push(1, 0, 1));
  EXPECT_FALSE(q.push(2, 0, 2));
  EXPECT_TRUE(q.push(2, 0, 2, 0, /*force=*/true))
      << "a retry requeue must never lose an admitted job";
  EXPECT_EQ(q.size(), 2u);
}

TEST(JobQueue, ShedBelowEvictsYoungestOfLowestPriority) {
  JobQueue q(4);
  q.push(1, /*priority=*/0, /*seq=*/1);
  q.push(2, /*priority=*/0, /*seq=*/2);
  q.push(3, /*priority=*/3, /*seq=*/3);
  EXPECT_EQ(q.shed_below(5), 2u)
      << "lowest priority first, youngest within it (least invested)";
  EXPECT_EQ(q.shed_below(5), 1u);
  EXPECT_EQ(q.shed_below(3), kNoJob)
      << "equal priority never sheds — strictly-below only";
  EXPECT_EQ(q.shed_below(4), 3u);
  EXPECT_EQ(q.shed_below(9), kNoJob) << "empty";
}

}  // namespace
}  // namespace pagen::svc
