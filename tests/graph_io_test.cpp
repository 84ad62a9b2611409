#include "graph/io.h"

#include <sstream>

#include <gtest/gtest.h>

#include "util/error.h"

namespace pagen::graph {
namespace {

EdgeList sample_edges() {
  return {{0, 1}, {5, 2}, {1000000007, 3}};
}

TEST(TextIo, RoundTrip) {
  std::stringstream ss;
  write_text(ss, sample_edges());
  const EdgeList back = read_text(ss);
  EXPECT_EQ(back, sample_edges());
}

TEST(TextIo, SkipsCommentsAndBlanks) {
  std::stringstream ss("# header\n\n1 2\n# mid\n3 4\n");
  const EdgeList back = read_text(ss);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0], (Edge{1, 2}));
  EXPECT_EQ(back[1], (Edge{3, 4}));
}

TEST(TextIo, MalformedRowThrows) {
  std::stringstream ss("1 only-one-number\n");
  EXPECT_THROW(read_text(ss), CheckError);
}

}  // namespace
}  // namespace pagen::graph
