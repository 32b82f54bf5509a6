#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "smoother/solver/simd.hpp"
#include "smoother/util/rng.hpp"

namespace perfbench {

Tail tail_of(std::vector<double> samples) {
  Tail tail;
  tail.count = samples.size();
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  tail.value = samples.back();
  tail.percentile = 100.0;
  for (const double p : kTailLadder) {
    // Nearest rank r (1-based) covers the lowest r samples; n - r lie beyond.
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    if (rank == 0 || n - rank < kTailBeyond) break;
    tail.value = samples[rank - 1];
    tail.percentile = p;
  }
  return tail;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const std::size_t index =
      rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(mid),
                   samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  const double lower = *std::max_element(
      samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lower + upper);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::size_t pool_workers() {
  const std::size_t hardware = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hardware, 1, 4);
}

std::map<std::string, std::string> host_fingerprint() {
  return {
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"simd_tier", smoother::solver::simd::tier_name()},
      {"compiler", PERFBENCH_COMPILER},
      {"build_type", PERFBENCH_BUILD_TYPE},
  };
}

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) { spans_.reserve(1 << 16); }

std::uint32_t SpanRecorder::begin(const char* name, std::uint64_t tick,
                                  std::uint32_t parent) {
  Span span;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.tick = tick;
  span.name = name;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - epoch_)
                      .count();
  spans_.push_back(span);
  return span.id;
}

void SpanRecorder::end(std::uint32_t id, std::uint64_t items) {
  Span& span = spans_.at(id - 1);
  span.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - epoch_)
                    .count();
  span.items = items;
}

void SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  for (const Span& span : spans_)
    out << "{\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"tick\":" << span.tick << ",\"name\":\"" << span.name
        << "\",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << ",\"items\":" << span.items << "}\n";
}

std::map<std::string, SpanTotals> totals_by_name(const SpanRecorder& recorder) {
  std::map<std::string, SpanTotals> totals;
  for (const SpanRecorder::Span& span : recorder.spans()) {
    SpanTotals& total = totals[span.name];
    total.ms += recorder.duration_ms(span);
    total.items += span.items;
  }
  return totals;
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"plans_per_s", "1/s"},        {"tick_latency_p50_ms", "ms"},
      {"tick_latency_tail_ms", "ms"}, {"round_s", "s"},
      {"recovery_s", "s"},           {"setup_s", "s"},
      {"peak_rss_mb", "MB"},         {"variance_ratio", "ratio"},
      {"ok_share", "share"},
  };
  return names;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"wire.decode_ns_per_frame", "ns"},
      {"wire.encode_ns_per_event", "ns"},
      {"wire.request_bytes_per_sample", "bytes"},
      {"fleet.submit_ms_boundary", "ms"},
      {"fleet.submit_ms_between", "ms"},
      {"fleet.batch_occupancy", "lanes"},
      {"fleet.kkt_setups", "count"},
      {"fleet.shard_imbalance", "tenants"},
      {"fleet.arena_bytes", "bytes"},
      {"core.push_ns_per_sample", "ns"},
      {"core.prepare_us_per_plan", "us"},
      {"core.commit_us_per_plan", "us"},
      {"core.smoothed_share", "share"},
      {"core.fs_us_per_interval", "us"},
      {"core.fallback.none", "count"},
      {"core.fallback.telemetry-unreliable", "count"},
      {"core.fallback.battery-faulted", "count"},
      {"core.fallback.oracle-failed", "count"},
      {"core.fallback.solver-not-converged", "count"},
      {"core.fallback.degraded-hold", "count"},
      {"core.fallback.internal-error", "count"},
      {"solver.batch_solve_us_per_lane", "us"},
      {"solver.iterations_mean", "count"},
      {"solver.iterations_p99", "count"},
      {"solver.iterations_max", "count"},
      {"solver.tail_iteration_share", "share"},
      {"solver.not_converged", "count"},
      {"persist.checkpoint_encode_ms", "ms"},
      {"persist.append_ms", "ms"},
      {"persist.snapshot_ms", "ms"},
      {"persist.recover_ms", "ms"},
      {"persist.restore_ms", "ms"},
      {"persist.bytes_per_plan", "bytes"},
      {"persist.wal_bytes_truncated", "bytes"},
      {"runtime.speedup", "x"},
      {"runtime.workers", "count"},
      {"sched.ad_ms", "ms"},
      {"sched.ad_us_per_job", "us"},
      {"sched.jobs", "count"},
      {"sched.switching_times", "count"},
      {"sched.renewable_utilization", "share"},
      {"sched.deadline_misses", "count"},
      {"trace.unattributed_share", "share"},
      {"trace.overhead_share", "share"},
  };
  return names;
}

void report_iterations(const std::vector<double>& iterations, Report& report) {
  constexpr double kTailIterations = 250.0;
  double sum = 0.0;
  double tail = 0.0;
  double max = 0.0;
  for (const double n : iterations) {
    sum += n;
    if (n >= kTailIterations) tail += n;
    max = std::max(max, n);
  }
  report.set("solver.iterations_mean", mean(iterations), "count");
  report.set("solver.iterations_p99", percentile(iterations, 99.0), "count");
  report.set("solver.iterations_max", max, "count");
  report.set("solver.tail_iteration_share", sum > 0.0 ? tail / sum : 0.0,
             "share");
}

void fill_unexercised_layers(Report& report) {
  for (const auto& [name, unit] : per_layer_metrics())
    if (!report.metrics.contains(name)) report.set(name, 0.0, unit);
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  smoother::util::SplitMix64 state(a ^ 0x9e3779b97f4a7c15ULL);
  std::uint64_t h = state.next();
  state = smoother::util::SplitMix64(h ^ b);
  h = state.next();
  state = smoother::util::SplitMix64(h ^ c);
  return state.next();
}

double unit_interval(std::uint64_t hash) {
  return static_cast<double>(hash >> 11) * 0x1.0p-53;
}

}  // namespace perfbench
