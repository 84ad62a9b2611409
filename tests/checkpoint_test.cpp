// Checkpoint file integrity (docs/robustness.md §6): the v2 format seals
// the payload with an FNV-1a trailer verified before parsing, so every
// torn, truncated, extended, or bit-flipped file raises CheckError instead
// of silently restoring garbage state into a resuming rank.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "util/error.h"
#include "util/types.h"
#include "util/varint.h"

namespace pagen::core {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static int counter = 0;
    dir_ = (std::filesystem::temp_directory_path() /
            ("pagen_ckpt_test_" + std::to_string(counter++)))
               .string();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string dir_;
};

RankCheckpoint sample() {
  RankCheckpoint ck;
  ck.n = 64;
  ck.x = 2;
  ck.seed = 7;
  ck.rank = 1;
  ck.nranks = 4;
  ck.f = {3, kNil, 7, 0, 41, kNil, 2, 9};
  ck.attempts = {0, 1, 2, 0, 3, 0, 1, 1};
  ck.locked_copy = {0, 0, 1, 0, 1, 0, 0, 1};
  return ck;
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST_F(CheckpointTest, Roundtrip) {
  const RankCheckpoint ck = sample();
  save_checkpoint(dir_, ck);
  RankCheckpoint out;
  ASSERT_TRUE(load_checkpoint(dir_, ck.rank, out));
  EXPECT_EQ(out.n, ck.n);
  EXPECT_EQ(out.x, ck.x);
  EXPECT_EQ(out.seed, ck.seed);
  EXPECT_EQ(out.rank, ck.rank);
  EXPECT_EQ(out.nranks, ck.nranks);
  EXPECT_EQ(out.f, ck.f);
  EXPECT_EQ(out.attempts, ck.attempts);
  EXPECT_EQ(out.locked_copy, ck.locked_copy);
}

TEST_F(CheckpointTest, MissingFileIsFalseNotAnError) {
  RankCheckpoint out;
  EXPECT_FALSE(load_checkpoint(dir_, /*rank=*/3, out));
}

TEST_F(CheckpointTest, EveryTruncationRaisesNeverRestoresGarbage) {
  const RankCheckpoint ck = sample();
  save_checkpoint(dir_, ck);
  const std::string path = checkpoint_path(dir_, ck.rank);
  const std::vector<char> full = read_file(path);
  ASSERT_GT(full.size(), 16u);

  // Truncating at any length — including mid-varint, mid-magic, and inside
  // the checksum trailer itself — must raise, never quietly succeed with a
  // partial restore.
  for (std::size_t len = 0; len < full.size(); ++len) {
    write_file(path, {full.begin(), full.begin() + len});
    RankCheckpoint out;
    EXPECT_THROW((void)load_checkpoint(dir_, ck.rank, out), CheckError)
        << "silent acceptance at truncation length " << len;
  }
}

TEST_F(CheckpointTest, EveryBitflipRaises) {
  const RankCheckpoint ck = sample();
  save_checkpoint(dir_, ck);
  const std::string path = checkpoint_path(dir_, ck.rank);
  const std::vector<char> full = read_file(path);

  for (std::size_t i = 0; i < full.size(); ++i) {
    std::vector<char> bytes = full;
    bytes[i] = static_cast<char>(bytes[i] ^ 0x04);
    write_file(path, bytes);
    RankCheckpoint out;
    EXPECT_THROW((void)load_checkpoint(dir_, ck.rank, out), CheckError)
        << "bitflip at byte " << i << " restored silently";
  }
}

TEST_F(CheckpointTest, TrailingJunkRaises) {
  const RankCheckpoint ck = sample();
  save_checkpoint(dir_, ck);
  const std::string path = checkpoint_path(dir_, ck.rank);
  std::vector<char> bytes = read_file(path);
  bytes.push_back('\0');
  write_file(path, bytes);
  RankCheckpoint out;
  EXPECT_THROW((void)load_checkpoint(dir_, ck.rank, out), CheckError);
}

TEST_F(CheckpointTest, OverlongElementCountRaisesNotAllocates) {
  // A forged payload whose f-count varint claims 2^40 elements with no bytes
  // behind it must raise (counts are bounded by the remaining payload), not
  // attempt a terabyte allocation. Correctly sealed on purpose, so only the
  // count check can reject it.
  constexpr std::uint64_t kMagic = 0x7061676e636b7032ULL;
  std::vector<std::uint8_t> buf;
  put_varint(buf, kMagic);
  put_varint(buf, 64);              // n
  put_varint(buf, 1);               // x
  put_varint(buf, 7);               // seed
  put_varint(buf, 0);               // rank
  put_varint(buf, 2);               // nranks
  put_varint(buf, 1ULL << 40);      // f count: absurd
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : buf) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  for (int i = 0; i < 8; ++i) {
    buf.push_back(static_cast<std::uint8_t>((h >> (8 * i)) & 0xff));
  }
  const std::string path = checkpoint_path(dir_, /*rank=*/0);
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(buf.data()),
           static_cast<std::streamsize>(buf.size()));
  os.close();

  RankCheckpoint out;
  EXPECT_THROW((void)load_checkpoint(dir_, /*rank=*/0, out), CheckError);
}

TEST_F(CheckpointTest, RankSlotMismatchRaises) {
  // A checkpoint filed under the wrong rank slot (e.g. a botched copy of a
  // checkpoint directory) must not seed another rank's state.
  const RankCheckpoint ck = sample();  // rank 1
  save_checkpoint(dir_, ck);
  std::filesystem::copy_file(checkpoint_path(dir_, ck.rank),
                             checkpoint_path(dir_, ck.rank + 1));
  RankCheckpoint out;
  EXPECT_THROW((void)load_checkpoint(dir_, ck.rank + 1, out), CheckError);
}

}  // namespace
}  // namespace pagen::core
