#include "graph/io.h"

#include <istream>
#include <ostream>
#include <sstream>
#include <string>

#include "util/error.h"

namespace pagen::graph {

void write_text(std::ostream& os, std::span<const Edge> edges) {
  for (const Edge& e : edges) {
    os << e.u << ' ' << e.v << '\n';
  }
}

EdgeList read_text(std::istream& is) {
  EdgeList edges;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    Edge e;
    PAGEN_CHECK_MSG(static_cast<bool>(row >> e.u >> e.v),
                    "malformed edge row: " << line);
    edges.push_back(e);
  }
  return edges;
}

}  // namespace pagen::graph
