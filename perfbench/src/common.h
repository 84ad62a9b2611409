// Shared pieces of the perfbench program: options, output checks, the
// metric report and small statistics helpers.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "baseline/pa_config.h"
#include "core/distributed_degree.h"
#include "core/parallel_pa.h"
#include "graph/edge_list.h"
#include "graph/edge_source.h"
#include "spans.h"
#include "util/types.h"

namespace perfbench {

using pagen::Count;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Target length of the measured phase; repetitions run until it is
  /// reached (at least one).
  double seconds = 10.0;
  /// 0: untraced measuring run (end-to-end metrics). 1: traced run
  /// (per-layer metrics, spans written to trace_out).
  bool trace = false;
  /// Scratch directory for stores and spill files; emptied on exit.
  std::string work_dir;
  std::string trace_out;
  /// Small sizes that finish in seconds (the benchmark's own tests).
  bool smoke = false;
  /// Name of one output check that is given a deliberately wrong expected
  /// value, to prove the check reports a failed operation.
  std::string wrong;
  std::string commit = "unknown";
};

/// Counts output checks as operations: every check is one attempt, every
/// miss one failure, with its reason on stderr. Never aborts.
class Checker {
 public:
  explicit Checker(std::string wrong) : wrong_(std::move(wrong)) {}

  /// True when `name` is the check that must be fed a wrong expected value.
  [[nodiscard]] bool wrong(std::string_view name) const {
    return name == wrong_;
  }

  /// Record one checked operation.
  bool expect(std::string_view name, bool ok, const std::string& detail = {});

  [[nodiscard]] Count attempted() const { return attempted_; }
  [[nodiscard]] Count failed() const { return failed_; }

 private:
  std::string wrong_;
  Count attempted_ = 0;
  Count failed_ = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  explicit Report(const Options& o) : checks(o.wrong) {}
  std::vector<Metric> metrics;
  /// Workload parameters, echoed into the result record.
  std::vector<std::pair<std::string, std::string>> params;
  Checker checks;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  template <typename T>
  void param(std::string key, const T& value) {
    params.emplace_back(std::move(key), to_text(value));
  }

 private:
  static std::string to_text(const std::string& s) { return s; }
  static std::string to_text(const char* s) { return s; }
  template <typename T>
  static std::string to_text(const T& v) {
    return std::to_string(v);
  }
};

/// Set-up is repeated this often before each pass (or phase) and
/// reported as the median over the run: spread over the run, the set-ups
/// see the same stretch of the machine's time as the passes they precede.
inline constexpr std::size_t kSetupsPerPass = 3;
/// The measuring loop repeats until --seconds have passed since it began
/// (set-ups and repeats included), and at least `min_reps` times, a floor
/// that keeps a median over reps meaningful on a fast machine; end-to-end
/// metrics are medians over reps.
[[nodiscard]] inline bool more_reps(std::size_t reps, std::size_t min_reps,
                                    double elapsed_s, double seconds) {
  return reps < min_reps || elapsed_s < seconds;
}

/// The ten end-to-end metrics, every one reported by every workload
/// (README.md gives each workload's definition).
struct EndToEnd {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double gen_meps = 0.0;
  double reload_meps = 0.0;
  double analyze_s = 0.0;
  double peak_rss_mb = 0.0;
  double store_bytes_per_edge = 0.0;
  double job_p50_ms = 0.0;
  double job_p95_ms = 0.0;
  double jobs_per_s = 0.0;

  void emit(Report& r) const;
};

/// The per-layer metrics of the traced run. Every workload reports all of
/// them; a layer a workload bypasses reads 0.
struct Layers {
  double rng_draw_meps = 0.0;
  double engine_generate_s = 0.0;
  double engine_self_s = 0.0;
  double engine_edges = 0.0;
  double mps_envelopes = 0.0;
  double mps_bytes = 0.0;
  double mps_requests = 0.0;
  double mps_resolved = 0.0;
  double mps_retries = 0.0;
  double mps_max_queue_depth = 0.0;
  double partition_load_max_over_mean = 0.0;
  double sink_calls = 0.0;
  double sink_self_s = 0.0;
  double store_write_s = 0.0;
  double store_seal_s = 0.0;
  double store_bytes = 0.0;
  double store_blocks = 0.0;
  double store_write_mbps = 0.0;
  double store_open_s = 0.0;
  double store_decode_s = 0.0;
  double store_decode_meps = 0.0;
  double store_read_mbps = 0.0;
  double kernel_degree_s = 0.0;
  double kernel_degree_self_s = 0.0;
  double kernel_cc_s = 0.0;
  double kernel_cc_rounds = 0.0;
  double analysis_fit_s = 0.0;
  double analysis_gamma = 0.0;
  double svc_submit_us_p50 = 0.0;
  double svc_queue_wait_ms_p50 = 0.0;
  double svc_run_ms_p50 = 0.0;
  double svc_serve_ms_p50 = 0.0;
  double svc_cache_hits = 0.0;
  double svc_store_hits = 0.0;
  double svc_cold_runs = 0.0;
  double svc_hit_ratio = 0.0;
  double trace_overhead_ratio = 0.0;

  void emit(Report& r) const;
};

Report run_massive_x1(const Options& o);
Report run_paper_x6(const Options& o);
Report run_svc_closed(const Options& o);

// --- helpers ---

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 1].
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] double peak_rss_mb();
/// The PaConfig seed a workload derives from the benchmark seed, so each
/// workload samples a different graph for the same --seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t bench_seed,
                                        std::uint64_t salt);
/// Remove and recreate `dir`.
void fresh_dir(const std::string& dir);
void remove_dir(const std::string& dir);

/// Order-independent hash of an edge multiset with each edge's endpoints
/// sorted: equal for two lists exactly when their normalized forms are
/// equal (up to 64-bit collisions), without sorting.
[[nodiscard]] std::uint64_t multiset_hash(std::span<const pagen::graph::Edge> e);

/// Node degrees listed per node, from a (degree, count) histogram, keeping
/// degrees >= d_min — the input shape of analysis::fit_gamma_mle.
[[nodiscard]] std::vector<Count> expand_degrees(
    const pagen::core::DegreeHistogram& h, Count d_min);

// --- per-layer probes shared by the workloads ---

/// Wrap `inner` so every shard visit is a "source.visit" span under
/// `parent` and every batch the kernel consumes a "kernel.visit" span under
/// it: the visit's self time is then the source's own work (block decode
/// for a store, nothing for in-memory shards).
[[nodiscard]] pagen::graph::EdgeSource traced_source(
    pagen::graph::EdgeSource inner, SpanLog* log, SpanLog::Id parent);

/// One thread of DrawSchema::pick_k + pick_direct pairs for `pairs` nodes
/// of `config`, in a "rng.draw" span; returns pairs per second (millions).
/// Every drawn k is checked to lie in its documented range.
[[nodiscard]] double rng_draw_meps(const pagen::PaConfig& config, Count pairs,
                                   SpanLog* log, Checker& checks);

/// Decode-only pass over every shard of the compressed store in `dir`
/// with store::EdgeShardReader, in one "store.decode" span; returns the
/// edges decoded.
Count decode_store(const std::string& dir, SpanLog* log);

/// mps.* and partition.* counters of a generate() result.
void fill_engine_counters(const pagen::core::ParallelResult& result,
                          Layers& layers);

/// Streaming-consumer "jobs" of a generate call. Each rank's edge stream
/// is cut into windows of `window_edges` edges; round k is complete when
/// every rank has delivered its k-th window, which under RRP is when the
/// graph's next contiguous node range is complete. A job's latency is the
/// time from one round's completion to the next. Because a round waits
/// for the slowest rank, its latency follows the generator's overall rate
/// and not which rank happened to run on a contended core.
class BatchClock {
 public:
  BatchClock(int ranks, Count window_edges, std::int64_t start_ns);
  /// Call from rank r's sink with the batch it delivered.
  void tick(pagen::Rank r, std::size_t edges);
  /// Latency of every complete round, in order.
  [[nodiscard]] std::vector<double> rounds_ms() const;

 private:
  struct alignas(64) Lane {
    Count edges = 0;
    std::vector<std::int64_t> window_end_ns;
  };
  Count window_edges_;
  std::int64_t start_ns_;
  std::vector<Lane> lanes_;
};

}  // namespace perfbench
