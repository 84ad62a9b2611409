// LEB128 varint codec (util/varint.h): every byte string either parses to a
// value that re-encodes to the same bytes or raises CheckError.
#include "util/varint.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/error.h"

namespace pagen {
namespace {

TEST(Varint, EncodeDecodeBoundaries) {
  std::vector<std::uint8_t> buf;
  const std::vector<std::uint64_t> values{
      0, 1, 127, 128, 129, 16383, 16384, 1ull << 32, 1ull << 63, ~0ull};
  for (auto v : values) put_varint(buf, v);
  std::size_t pos = 0;
  for (auto v : values) EXPECT_EQ(get_varint(buf, pos), v);
  EXPECT_EQ(pos, buf.size());
}

TEST(Varint, SingleByteForSmallValues) {
  std::vector<std::uint8_t> buf;
  put_varint(buf, 127);
  EXPECT_EQ(buf.size(), 1u);
  put_varint(buf, 128);
  EXPECT_EQ(buf.size(), 3u);  // 1 + 2
}

TEST(Varint, MaxValueIsTenBytesEndingInOne) {
  std::vector<std::uint8_t> buf;
  put_varint(buf, ~0ull);
  ASSERT_EQ(buf.size(), 10u);
  EXPECT_EQ(buf.back(), 0x01);
}

TEST(Varint, TruncationDetected) {
  std::vector<std::uint8_t> buf;
  put_varint(buf, 1u << 20);
  buf.pop_back();
  std::size_t pos = 0;
  EXPECT_THROW((void)get_varint(buf, pos), CheckError);
  std::vector<std::uint8_t> nine(9, 0xff);  // the 10th byte is missing
  pos = 0;
  EXPECT_THROW((void)get_varint(nine, pos), CheckError);
}

TEST(Varint, OverlongRejected) {
  std::vector<std::uint8_t> eleven(10, 0xff);  // continuation past byte 10
  eleven.push_back(0x01);
  std::size_t pos = 0;
  EXPECT_THROW((void)get_varint(eleven, pos), CheckError);
}

TEST(Varint, TenthByteAboveOneRejected) {
  // ff x9 7f would carry bits 64..69; dropping them decodes to ~0, which
  // re-encodes as ff x9 01 — a different byte string.
  std::vector<std::uint8_t> buf(9, 0xff);
  buf.push_back(0x7f);
  std::size_t pos = 0;
  EXPECT_THROW((void)get_varint(buf, pos), CheckError);
  buf.back() = 0x02;
  pos = 0;
  EXPECT_THROW((void)get_varint(buf, pos), CheckError);
  buf.back() = 0x01;
  pos = 0;
  EXPECT_EQ(get_varint(buf, pos), ~0ull);
  EXPECT_EQ(pos, 10u);
}

}  // namespace
}  // namespace pagen
