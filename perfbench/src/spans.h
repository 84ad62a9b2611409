// In-memory span log for the traced run. Spans (name, start, end, parent)
// are recorded around calls into each layer's public functions from the
// benchmark's own code, kept in memory, summarized into per-layer metrics
// and written at exit as a Chrome trace-event JSON file, which the Perfetto
// UI (ui.perfetto.dev) opens directly.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.h"

namespace perfbench {

class SpanLog {
 public:
  using Id = std::int64_t;
  static constexpr Id kNoParent = -1;

  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    Id parent = kNoParent;
    int tid = 0;
  };

  /// Open a span now; thread-safe.
  Id open(std::string_view name, Id parent);
  /// Close a span opened by open(); thread-safe.
  void close(Id id);

  /// Sum of the durations of every span called `name`.
  [[nodiscard]] double total_s(std::string_view name) const;
  /// Sum over spans called `name` of duration minus the part of it that
  /// their direct children cover (children on other threads included).
  [[nodiscard]] double self_s(std::string_view name) const;
  [[nodiscard]] pagen::Count count(std::string_view name) const;

  /// Write every span as a complete ("X") trace event; false on I/O error.
  bool write_trace(const std::string& path) const;

 private:
  [[nodiscard]] double self_ns(Id id, const std::vector<Id>& children)
      const;  // mu_ held

  mutable std::mutex mu_;
  std::vector<Span> spans_;  // indexed by Id
};

/// RAII span; a null log records nothing, so untraced passes share code.
class Scope {
 public:
  Scope(SpanLog* log, std::string_view name,
        SpanLog::Id parent = SpanLog::kNoParent)
      : log_(log), id_(log != nullptr ? log->open(name, parent)
                                      : SpanLog::kNoParent) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] SpanLog::Id id() const { return id_; }

 private:
  SpanLog* log_;
  SpanLog::Id id_;
};

}  // namespace perfbench
