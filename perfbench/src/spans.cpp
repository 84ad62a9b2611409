#include "spans.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <utility>

#include "util/timer.h"

namespace perfbench {
namespace {

int thread_index() {
  static std::atomic<int> next{1};
  thread_local const int index = next.fetch_add(1);
  return index;
}

}  // namespace

SpanLog::Id SpanLog::open(std::string_view name, Id parent) {
  const std::int64_t now = pagen::now_ns();
  const int tid = thread_index();
  std::lock_guard lk(mu_);
  spans_.push_back(Span{std::string(name), now, now, parent, tid});
  return static_cast<Id>(spans_.size()) - 1;
}

void SpanLog::close(Id id) {
  const std::int64_t now = pagen::now_ns();
  std::lock_guard lk(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = now;
}

double SpanLog::total_s(std::string_view name) const {
  std::lock_guard lk(mu_);
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.name == name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

pagen::Count SpanLog::count(std::string_view name) const {
  std::lock_guard lk(mu_);
  return static_cast<pagen::Count>(
      std::count_if(spans_.begin(), spans_.end(),
                    [name](const Span& s) { return s.name == name; }));
}

double SpanLog::self_ns(Id id, const std::vector<Id>& children) const {
  const Span& span = spans_[static_cast<std::size_t>(id)];
  std::vector<std::pair<std::int64_t, std::int64_t>> kids;
  for (const Id c : children) {
    const Span& s = spans_[static_cast<std::size_t>(c)];
    const std::int64_t a = std::max(s.start_ns, span.start_ns);
    const std::int64_t b = std::min(s.end_ns, span.end_ns);
    if (a < b) kids.emplace_back(a, b);
  }
  std::sort(kids.begin(), kids.end());
  std::int64_t covered = 0;
  std::int64_t reach = span.start_ns;
  for (const auto& [a, b] : kids) {
    const std::int64_t from = std::max(a, reach);
    if (b > from) covered += b - from;
    reach = std::max(reach, b);
  }
  return static_cast<double>(span.end_ns - span.start_ns - covered);
}

double SpanLog::self_s(std::string_view name) const {
  std::lock_guard lk(mu_);
  std::vector<std::vector<Id>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Id p = spans_[i].parent;
    if (p != kNoParent) {
      children[static_cast<std::size_t>(p)].push_back(static_cast<Id>(i));
    }
  }
  double ns = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      ns += self_ns(static_cast<Id>(i), children[i]);
    }
  }
  return ns * 1e-9;
}

bool SpanLog::write_trace(const std::string& path) const {
  std::lock_guard lk(mu_);
  std::ofstream os(path, std::ios::trunc);
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name
       << "\", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
       << s.tid << ", \"ts\": " << static_cast<double>(s.start_ns) * 1e-3
       << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
       << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
       << "}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
