// Whole-file byte I/O with crash-consistent writes: the primitive behind
// rank checkpoints (core/checkpoint.h), the compressed-store manifest
// (store/edge_writer.h) and the svc store marker (svc/cache.h).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pagen {

/// Write `bytes` to `path` atomically: the data lands in a sibling temp
/// file first and is renamed into place, so a reader (or a crash mid-write)
/// never observes a torn file.
void save_bytes_atomic(const std::string& path,
                       const std::vector<std::uint8_t>& bytes);

/// Read a whole file into `out`. Returns false (leaving `out` empty) when
/// the file does not exist or cannot be opened — a missing checkpoint means
/// "recover from nothing", not an error.
[[nodiscard]] bool try_load_bytes(const std::string& path,
                                  std::vector<std::uint8_t>& out);

}  // namespace pagen
