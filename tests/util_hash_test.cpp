// FNV-1a-64 (util/hash.h): published known-answer vectors, chaining, and
// the word/string accumulator's byte layout.
#include "util/hash.h"

#include <cstdint>
#include <span>
#include <string_view>

#include <gtest/gtest.h>

namespace pagen {
namespace {

std::uint64_t fnv_of(std::string_view s) {
  return fnv1a(std::span(reinterpret_cast<const std::uint8_t*>(s.data()),
                         s.size()));
}

TEST(Fnv1a, KnownAnswers) {
  EXPECT_EQ(fnv_of(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv_of("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv_of("foobar"), 0x85944171f73967e8ULL);
}

TEST(Fnv1a, ChainsAcrossSplits) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>("foobar");
  EXPECT_EQ(fnv1a(std::span(bytes + 3, 3), fnv1a(std::span(bytes, 3))),
            fnv_of("foobar"));
}

TEST(Fnv1a, WordIsItsLittleEndianBytes) {
  const std::uint8_t le[8] = {0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01};
  EXPECT_EQ(fnv1a_u64(0x0102030405060708ULL), fnv1a(le));
  Fnv1a h;
  h.word(0x0102030405060708ULL);
  EXPECT_EQ(h.digest(), fnv1a(le));
}

TEST(Fnv1a, StringIsLengthPrefixed) {
  Fnv1a h;
  h.str("ab");
  const auto* ab = reinterpret_cast<const std::uint8_t*>("ab");
  EXPECT_EQ(h.digest(), fnv1a(std::span(ab, 2), fnv1a_u64(2)));
  Fnv1a split;
  split.str("a");
  split.str("b");
  EXPECT_NE(split.digest(), h.digest()) << "no collision by concatenation";
}

TEST(Fnv1a, DomainSeedsAreOneByteChains) {
  const std::uint8_t b = 'B';
  const std::uint8_t t = 'T';
  EXPECT_EQ(kHeaderChecksumSeed, fnv1a(std::span(&b, 1)));
  EXPECT_EQ(kTrailerChecksumSeed, fnv1a(std::span(&t, 1)));
  EXPECT_NE(kHeaderChecksumSeed, kTrailerChecksumSeed);
}

}  // namespace
}  // namespace pagen
