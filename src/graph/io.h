// Text edge-list interchange: "u v" rows, for feeding external tools and
// reading their output. Not a store — persisted edges go through the
// compressed block store of src/store/ (docs/storage.md).
#pragma once

#include <iosfwd>

#include "graph/edge_list.h"

namespace pagen::graph {

/// Write edges as "u v\n" rows.
void write_text(std::ostream& os, std::span<const Edge> edges);

/// Parse "u v" rows; ignores blank lines and lines starting with '#'.
[[nodiscard]] EdgeList read_text(std::istream& is);

}  // namespace pagen::graph
