// Shared pieces of the end-to-end benchmark: options, the result every
// workload fills in, timing statistics, the in-memory span recorder and
// the host fingerprint.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point start,
                                            Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the workloads may write persist state under; emptied per
  /// use.
  std::string state_dir;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports. Every correctness check goes through check(); a
/// single failed check makes the run incorrect (exit code 1).
struct Report {
  std::uint64_t attempted = 0;
  /// Operations that did not complete: a missing or unexpected event, a
  /// rejected frame, a kInternalError fallback.
  std::uint64_t failed = 0;
  /// Plans that completed through the kSolverNotConverged fallback (the
  /// QP hit its iteration cap and the interval got the cheap plan). They
  /// count as failures in failed_share and ok_share, not in `failed`.
  std::uint64_t not_converged = 0;
  std::map<std::string, Metric> metrics;
  /// Context printed beside the metrics (tail percentile and sample
  /// counts, worker count, ...): not compared across runs.
  std::map<std::string, std::string> info;
  std::vector<std::string> errors;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  [[nodiscard]] bool correct() const { return errors.empty(); }
};

/// The highest-percentile timing a sample set supports: the nearest-rank
/// value at the highest percentile of kTailLadder that leaves at least
/// kTailBeyond samples beyond it, that percentile, and the sample count.
/// With too few samples for p50, `value` is the maximum at p100.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t count = 0;
};

inline constexpr std::size_t kTailBeyond = 10;
inline constexpr double kTailLadder[] = {50.0, 90.0, 99.0, 99.9, 99.99};

[[nodiscard]] Tail tail_of(std::vector<double> samples);
[[nodiscard]] double median(std::vector<double> samples);
/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample set.
[[nodiscard]] double percentile(std::vector<double> samples, double p);
[[nodiscard]] double mean(const std::vector<double>& samples);

/// Peak resident set size of this process so far.
[[nodiscard]] double peak_rss_mb();

/// nproc, SIMD tier, compiler, build type — extended per workload with the
/// pool size and fsync policy.
[[nodiscard]] std::map<std::string, std::string> host_fingerprint();

/// Usable worker count for a pool: nproc, never more than 4.
[[nodiscard]] std::size_t pool_workers();

/// Spans recorded in memory by the benchmark around its calls into the
/// library, written out once the run ends. A span's parent is the span
/// that caused it (a tick span parents its stage spans); spans of one
/// request share its tick number.
class SpanRecorder {
 public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = root
    std::uint64_t tick = 0;
    const char* name = "";
    std::int64_t start_ns = 0;  ///< since the recorder's epoch
    std::int64_t end_ns = 0;
    std::uint64_t items = 0;  ///< work items the span covered (frames...)
  };

  SpanRecorder();

  /// Opens a span and returns its id; close it with end().
  std::uint32_t begin(const char* name, std::uint64_t tick,
                      std::uint32_t parent = 0);
  void end(std::uint32_t id, std::uint64_t items = 0);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] double duration_ms(const Span& span) const {
    return static_cast<double>(span.end_ns - span.start_ns) * 1e-6;
  }

  /// Writes every span as one JSON object per line.
  void write_jsonl(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Accumulated duration and item count of every span with one name.
struct SpanTotals {
  double ms = 0.0;
  std::uint64_t items = 0;
};
[[nodiscard]] std::map<std::string, SpanTotals> totals_by_name(
    const SpanRecorder& recorder);

/// The end-to-end metric names (trace 0) and the per-layer names
/// (trace 1), in BENCHMARK.json order, with their units.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
end_to_end_metrics();
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_metrics();

/// Sets the solver.iterations_* metrics and solver.tail_iteration_share
/// (the share of all iterations spent in solves needing >= 250) from one
/// iteration count per solve.
void report_iterations(const std::vector<double>& iterations, Report& report);

/// Zero-fills every per-layer metric a workload did not set: a layer the
/// workload does not exercise did no work there.
void fill_unexercised_layers(Report& report);

/// The traced run fails when its stage spans leave this share of the
/// request wall time uncovered.
inline constexpr double kMaxUnattributed = 0.05;

/// splitmix64 finalizer over a few words: the benchmark's stateless hash
/// for per-(tenant, tick) input decisions.
[[nodiscard]] std::uint64_t mix(std::uint64_t a, std::uint64_t b = 0,
                                std::uint64_t c = 0);
/// mix() mapped into [0, 1).
[[nodiscard]] double unit_interval(std::uint64_t hash);

Report run_fleet_steady(const Options& options);
Report run_fleet_durable(const Options& options);
Report run_paper_batch(const Options& options);

/// Benchmark self-tests (percentile rule, input determinism); returns the
/// process exit code.
int run_self_test();

}  // namespace perfbench
