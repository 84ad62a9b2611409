#include "svc/job.h"

#include <bit>
#include <sstream>

#include "core/engine/engine.h"
#include "util/hash.h"

namespace pagen::svc {
namespace {

/// Domain tag: rotate when the hashed schema changes so stale store
/// markers from an older layout can never satisfy a probe. '02 added the
/// engine field (ISSUE 9).
constexpr std::uint64_t kSpecHashVersion = 0x7061672e737663'02ULL;

}  // namespace

std::uint64_t spec_hash(const JobSpec& spec) {
  Fnv1a h;
  h.word(kSpecHashVersion);
  h.word(spec.config.n);
  h.word(spec.config.x);
  h.word(std::bit_cast<std::uint64_t>(spec.config.p));
  h.word(spec.config.seed);
  h.str(spec.engine);
  h.word(static_cast<std::uint64_t>(spec.ranks));
  h.word(static_cast<std::uint64_t>(spec.scheme));
  h.word(spec.buffer_capacity);
  h.word(spec.node_batch);
  return h.digest();
}

std::string validate(const JobSpec& spec) {
  const PaConfig& c = spec.config;
  std::ostringstream why;
  if (c.x < 1) {
    why << "x must be >= 1 (got " << c.x << ")";
  } else if (c.x == 1 && c.n < 2) {
    why << "x == 1 needs n >= 2 (got n = " << c.n << ")";
  } else if (c.x > 1 && c.n <= c.x) {
    why << "x > 1 needs n > x (got n = " << c.n << ", x = " << c.x << ")";
  } else if (c.p < 0.0 || c.p > 1.0) {
    why << "p must be in [0, 1] (got " << c.p << ")";
  } else if (c.x > 1 && c.p >= 1.0) {
    why << "p must be below 1 for x > 1";
  } else if (spec.ranks < 1) {
    why << "ranks must be >= 1 (got " << spec.ranks << ")";
  } else if (static_cast<NodeId>(spec.ranks) > c.n) {
    why << "more ranks (" << spec.ranks << ") than nodes (" << c.n << ")";
  } else if (spec.buffer_capacity < 1) {
    why << "buffer_capacity must be >= 1";
  } else if (spec.node_batch < 1) {
    why << "node_batch must be >= 1";
  } else if (spec.sink == Sink::kCompressedStore && spec.store_dir.empty()) {
    why << "Sink::kCompressedStore requires store_dir";
  } else if (spec.sink == Sink::kCompressedStore &&
             spec.fault_plan.has_crash()) {
    why << "Sink::kCompressedStore cannot run under a crash plan: a "
           "respawned rank re-emits restored edges, duplicating store blocks";
  } else if (spec.max_attempts < 1) {
    why << "max_attempts must be >= 1";
  } else if (const core::Engine* engine =
                 core::EngineRegistry::instance().find(spec.engine);
             engine == nullptr) {
    why << "unknown engine '" << spec.engine << "' (registered: "
        << core::EngineRegistry::instance().names() << ")";
  } else if (!engine->capabilities().multi_rank && spec.ranks > 1) {
    why << "engine '" << spec.engine << "' is single-rank (got ranks = "
        << spec.ranks << ")";
  } else if (!engine->capabilities().fault_tolerance &&
             (spec.fault_plan.active() || spec.reliable)) {
    why << "engine '" << spec.engine
        << "' does not support fault injection or reliable transport";
  }
  return why.str();
}

const char* to_string(JobState s) {
  switch (s) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kCompleted:
      return "completed";
    case JobState::kCancelled:
      return "cancelled";
    case JobState::kExpired:
      return "expired";
    case JobState::kFailed:
      return "failed";
    case JobState::kShed:
      return "shed";
  }
  return "unknown";
}

const char* to_string(Reject r) {
  switch (r) {
    case Reject::kNone:
      return "accepted";
    case Reject::kQueueFull:
      return "queue-full";
    case Reject::kShuttingDown:
      return "shutting-down";
    case Reject::kInvalidSpec:
      return "invalid-spec";
    case Reject::kDeadlineExpired:
      return "deadline-expired";
    case Reject::kCircuitOpen:
      return "circuit-open";
  }
  return "unknown";
}

}  // namespace pagen::svc
