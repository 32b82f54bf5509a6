// paper_batch: the paper's Figs. 17/18 path as one stream — Smoother::run
// (Flexible Smoothing, then Active Delay) on one-day draws of each Table II
// batch preset against texas_10 wind at supply ratio 1.0. One request is one
// scenario's run; a pass is four draws of every preset, and every pass draws
// fresh scenarios from the seed's stream (inputs.hpp).
//
// The traced run replaces Smoother::run by its public stages
// (smooth_supply, resample, schedule_jobs, the headline metrics) on
// alternate passes, with a span around each, and checks the staged result
// equals run()'s.
#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "inputs.hpp"
#include "smoother/core/metrics.hpp"
#include "smoother/core/smoother.hpp"
#include "smoother/solver/qp.hpp"

namespace perfbench {

namespace {

using smoother::core::RunReport;
using smoother::core::Smoother;

/// Set-ups, each over its own pass of scenarios; measured passes follow
/// them in the seed's stream. A set-up is one pass (about 0.15 s), so 21 of
/// them span a few seconds of the host's speed, as 7 fleet set-ups do.
constexpr std::uint64_t kSetupRepeats = 21;
/// variance_ratio and the paper outcomes cover the first kQualityPasses
/// measured passes (2048 one-day runs), so they depend on the seed alone,
/// not on how many passes the host manages in --seconds. Every run
/// measures at least these.
constexpr std::uint64_t kQualityPasses = 128;

struct Outcome {
  std::size_t switching_times = 0;
  double renewable_utilization = 0.0;
  std::size_t deadline_misses = 0;
  friend bool operator==(const Outcome&, const Outcome&) = default;
};

/// Feasibility and energy balance of one preset's result; failures go to
/// `report`.
void check_run(const PaperScenario& paper, const RunReport& run,
               Report& report) {
  const auto& jobs = paper.scenario.jobs;
  const auto& placements = run.schedule.outcome.placements;
  report.check(placements.size() == jobs.size(),
               "schedule does not place every job exactly once");
  if (placements.size() != jobs.size()) return;

  // Placements live on the schedule's one-minute slot grid: a job holds
  // its servers for whole slots, and demand past the horizon is not
  // scheduled (nor is a job that never fits).
  const double step_min = smoother::util::kOneMinute.value();
  const double horizon_min = paper.scenario.supply.duration().value();
  std::unordered_map<std::uint64_t, const smoother::sched::Job*> by_id;
  for (const auto& job : jobs) by_id.emplace(job.id, &job);
  std::vector<std::pair<double, long long>> load;  // (time, server delta)
  double job_kwh = 0.0;
  for (const auto& placement : placements) {
    const auto found = by_id.find(placement.job_id);
    if (found == by_id.end() || found->second == nullptr) {
      report.check(false, "schedule places an unknown or repeated job");
      return;
    }
    const auto& job = *found->second;
    found->second = nullptr;
    report.check(placement.start.value() >= job.arrival.value() - 1e-9,
                 "a job starts before it arrives");
    report.check(std::abs(placement.finish.value() - placement.start.value() -
                          job.runtime.value()) < 1e-6,
                 "a job runs for other than its runtime");
    const double start = placement.start.value();
    if (start >= horizon_min) continue;  // never fitted: nothing scheduled
    const double held =
        std::ceil(job.runtime.value() / step_min - 1e-9) * step_min;
    const double end = std::min(start + held, horizon_min);
    load.emplace_back(start, static_cast<long long>(job.servers));
    load.emplace_back(end, -static_cast<long long>(job.servers));
    job_kwh += job.power.value() * (end - start) / 60.0;
  }
  // At no time may the placed jobs hold more servers than the cluster has;
  // at equal times, releases go first.
  std::sort(load.begin(), load.end());
  long long held_servers = 0;
  long long peak_servers = 0;
  for (const auto& [time, delta] : load) {
    held_servers += delta;
    peak_servers = std::max(peak_servers, held_servers);
  }
  report.check(peak_servers <=
                   static_cast<long long>(paper.scenario.total_servers),
               "the schedule holds more servers than the cluster has");
  const double total_kwh = run.schedule.outcome.total_energy.value();
  const double used_kwh = run.schedule.outcome.renewable_energy_used.value();
  const double supplied_kwh = run.smoothing.supply.total_energy().value();
  report.check(std::abs(total_kwh - job_kwh) <= 1e-6 * std::max(1.0, job_kwh),
               "scheduled energy differs from the placed jobs' energy");
  report.check(used_kwh <= total_kwh * (1 + 1e-9) + 1e-9 &&
                   used_kwh <= supplied_kwh * (1 + 1e-9) + 1e-9,
               "renewable energy used exceeds demand or supply");
  // Smoothing moves energy through the battery; it cannot create more than
  // the battery's corridor holds.
  const double raw_kwh = paper.scenario.supply.total_energy().value();
  const auto& battery = paper.config.battery;
  const double corridor_kwh =
      (battery.max_energy() - battery.min_energy()).value();
  report.check(std::abs(supplied_kwh - raw_kwh) <= corridor_kwh + 1e-6,
               "smoothed supply's energy differs from the raw supply's by "
               "more than the battery holds");
}

Outcome outcome_of(const RunReport& run) {
  return {run.switching_times, run.renewable_utilization,
          run.schedule.outcome.deadline_misses};
}

/// QP accounting of one run's Flexible Smoothing plans.
struct PlanAccounts {
  std::uint64_t intervals = 0;
  std::uint64_t not_converged = 0;
  std::uint64_t smoothed = 0;
  double variance_before = 0.0;  // over converged QP plans of `quality` runs
  double variance_after = 0.0;
  std::vector<double> iterations;

  void add(const smoother::core::SmoothingResult& smoothing, bool quality) {
    intervals += smoothing.plans.size();
    smoothed += smoothing.smoothed_intervals;
    for (const auto& plan : smoothing.plans) {
      if (plan.solver_iterations == 0) continue;
      iterations.push_back(static_cast<double>(plan.solver_iterations));
      if (plan.solver_status != smoother::solver::QpStatus::kSolved) {
        ++not_converged;
        continue;
      }
      if (!quality) continue;
      variance_before += plan.variance_before;
      variance_after += plan.variance_after;
    }
  }
};

/// A complete pass, staged through Smoother's public calls under spans.
std::vector<RunReport> traced_pass(const std::vector<PaperScenario>& papers,
                                   const std::vector<Smoother>& smoothers,
                                   SpanRecorder& spans, std::uint64_t pass) {
  std::vector<RunReport> runs;
  for (std::size_t i = 0; i < papers.size(); ++i) {
    const auto& scenario = papers[i].scenario;
    std::vector<smoother::sched::Job> jobs = scenario.jobs;
    const std::uint32_t run_span = spans.begin("paper.run", pass);
    RunReport run;
    std::uint32_t span = spans.begin("core.smooth_supply", pass, run_span);
    run.smoothing = smoothers[i].smooth_supply(scenario.supply,
                                               &run.battery_equivalent_cycles);
    spans.end(span, run.smoothing.plans.size());
    span = spans.begin("util.resample", pass, run_span);
    const smoother::util::TimeSeries supply =
        run.smoothing.supply.resample(smoother::util::kOneMinute);
    spans.end(span, supply.size());
    span = spans.begin("sched.schedule_jobs", pass, run_span);
    run.schedule = smoothers[i].schedule_jobs(std::move(jobs), supply,
                                              scenario.total_servers);
    spans.end(span, scenario.jobs.size());
    span = spans.begin("core.metrics", pass, run_span);
    run.switching_times =
        smoother::core::energy_switching_times(supply, run.schedule.demand);
    run.renewable_utilization =
        smoother::core::renewable_utilization(supply, run.schedule.demand);
    spans.end(span);
    spans.end(run_span, scenario.jobs.size());
    runs.push_back(std::move(run));
  }
  return runs;
}

/// One pass's middleware: a Smoother per scenario, built from its config.
std::vector<Smoother> build_smoothers(const std::vector<PaperScenario>& papers) {
  std::vector<Smoother> smoothers;
  smoothers.reserve(papers.size());
  for (const PaperScenario& paper : papers) smoothers.emplace_back(paper.config);
  return smoothers;
}

RunReport run_untraced(const Smoother& smoother, const PaperScenario& paper) {
  return smoother.run(paper.scenario.supply, paper.scenario.jobs,
                      paper.scenario.total_servers);
}

}  // namespace

Report run_paper_batch(const Options& options) {
  Report report;
  report.info["scenarios"] =
      "per pass 4 fresh one-day draws of each Table II batch preset x "
      "texas_10, supply ratio 1.0";
  report.info["loop"] = "closed, one stream, one run in flight";

  // --- Set-up: the middleware for a pass's scenarios and one cold pass
  // over them, repeated on passes of their own. Building the inputs is the
  // client's work and is not timed.
  const auto setup_pass = [&](std::uint64_t pass) {
    const std::vector<PaperScenario> papers = make_paper_pass(options.seed, pass);
    std::vector<Outcome> outcomes;
    const auto start = Clock::now();
    const std::vector<Smoother> smoothers = build_smoothers(papers);
    for (std::size_t i = 0; i < papers.size(); ++i)
      outcomes.push_back(outcome_of(run_untraced(smoothers[i], papers[i])));
    return std::make_pair(seconds_between(start, Clock::now()), outcomes);
  };
  std::vector<double> setup_s;
  std::vector<Outcome> first_setup;
  for (std::uint64_t repeat = 0; repeat < kSetupRepeats; ++repeat) {
    auto [seconds, outcomes] = setup_pass(repeat);
    setup_s.push_back(seconds);
    if (repeat == 0) first_setup = std::move(outcomes);
  }

  // --- Measurement: whole passes, each over fresh scenarios, until
  // --seconds have passed. The traced run alternates staged (traced) and
  // run() (untraced) passes. Building a pass's inputs is the client's work
  // and is not timed.
  SpanRecorder spans;
  PlanAccounts accounts;
  std::vector<double> latencies;        // every untraced run, seconds
  std::vector<double> untraced_passes;  // run time of a pass, seconds
  std::vector<double> traced_passes;
  std::vector<double> cold_passes;      // middleware construction + pass
  std::vector<double> pass_rates;       // plans per second, per pass
  std::uint64_t jobs = 0;
  std::uint64_t passes = 0;
  // Paper outcomes summed over the runs of the first kQualityPasses passes.
  std::uint64_t quality_runs = 0;
  double switching = 0.0;
  double utilization = 0.0;
  double misses = 0.0;
  const auto measure_start = Clock::now();
  for (std::uint64_t pass = kSetupRepeats;; ++pass) {
    const std::vector<PaperScenario> papers = make_paper_pass(options.seed, pass);
    const bool traced = options.trace && pass % 2 == 1;
    const auto start = Clock::now();
    const std::vector<Smoother> smoothers = build_smoothers(papers);
    const double build_s = seconds_between(start, Clock::now());
    std::vector<RunReport> runs;
    double pass_s = 0.0;
    if (traced) {
      const auto staged = Clock::now();
      runs = traced_pass(papers, smoothers, spans, pass);
      pass_s = seconds_between(staged, Clock::now());
      for (std::size_t i = 0; i < papers.size(); ++i)
        report.check(outcome_of(runs[i]) ==
                         outcome_of(run_untraced(smoothers[i], papers[i])),
                     "staged run differs from Smoother::run");
    } else {
      for (std::size_t i = 0; i < papers.size(); ++i) {
        const auto& scenario = papers[i].scenario;
        std::vector<smoother::sched::Job> copy = scenario.jobs;
        const auto run_start = Clock::now();
        runs.push_back(smoothers[i].run(scenario.supply, std::move(copy),
                                        scenario.total_servers));
        const double run_s = seconds_between(run_start, Clock::now());
        latencies.push_back(run_s);
        pass_s += run_s;
      }
    }
    ++passes;
    (traced ? traced_passes : untraced_passes).push_back(pass_s);
    const bool quality = pass < kSetupRepeats + kQualityPasses;
    std::uint64_t pass_plans = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      check_run(papers[i], runs[i], report);
      accounts.add(runs[i].smoothing, quality);
      pass_plans += runs[i].smoothing.plans.size();
      jobs += papers[i].scenario.jobs.size();
      if (!quality) continue;
      ++quality_runs;
      switching += static_cast<double>(runs[i].switching_times);
      utilization += runs[i].renewable_utilization;
      misses += static_cast<double>(runs[i].schedule.outcome.deadline_misses);
    }
    if (!traced) {
      cold_passes.push_back(build_s + pass_s);
      pass_rates.push_back(static_cast<double>(pass_plans) / pass_s);
    }
    const bool done =
        seconds_between(measure_start, Clock::now()) >= options.seconds;
    if (done && !quality) break;
  }
  // Determinism: pass 0 run again reaches the outcomes it reached first.
  report.check(setup_pass(0).second == first_setup,
               "a repeated pass reached different outcomes");

  report.attempted = accounts.intervals;
  report.not_converged = accounts.not_converged;
  const double runs_in_window = static_cast<double>(quality_runs);
  report.info["switching_times_per_run"] = std::to_string(switching / runs_in_window);
  report.info["renewable_utilization"] = std::to_string(utilization / runs_in_window);
  report.info["deadline_misses_per_run"] = std::to_string(misses / runs_in_window);
  const Tail tail = tail_of(latencies);
  report.info["tick_latency_tail_percentile"] = std::to_string(tail.percentile);
  report.info["tick_latency_tail_samples"] = std::to_string(tail.count);
  report.info["passes"] = std::to_string(passes);

  if (!options.trace) {
    report.set("plans_per_s", median(pass_rates), "1/s");
    report.set("tick_latency_p50_ms", median(latencies) * 1e3, "ms");
    report.set("tick_latency_tail_ms", tail.value * 1e3, "ms");
    report.set("round_s", median(untraced_passes), "s");
    report.set("recovery_s", median(cold_passes), "s");
    report.set("setup_s", median(setup_s), "s");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    report.set("variance_ratio",
               accounts.variance_after / accounts.variance_before, "ratio");
    report.set("ok_share",
               1.0 - static_cast<double>(accounts.not_converged) /
                         static_cast<double>(
                             std::max<std::uint64_t>(accounts.intervals, 1)),
               "share");
    return report;
  }

  const std::map<std::string, SpanTotals> totals = totals_by_name(spans);
  const auto total = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanTotals{} : it->second;
  };
  const SpanTotals smooth = total("core.smooth_supply");
  const SpanTotals schedule = total("sched.schedule_jobs");
  const SpanTotals run = total("paper.run");
  report.set("core.fs_us_per_interval",
             smooth.ms * 1e3 / static_cast<double>(smooth.items), "us");
  report.set("core.smoothed_share",
             static_cast<double>(accounts.smoothed) /
                 static_cast<double>(accounts.intervals),
             "share");
  std::map<std::uint64_t, double> ad_ms_by_pass;
  for (const SpanRecorder::Span& span : spans.spans())
    if (std::string(span.name) == "sched.schedule_jobs")
      ad_ms_by_pass[span.tick] += spans.duration_ms(span);
  std::vector<double> ad_ms;
  for (const auto& [pass, ms] : ad_ms_by_pass) ad_ms.push_back(ms);
  report.set("sched.ad_ms", median(ad_ms), "ms");
  report.set("sched.ad_us_per_job",
             schedule.ms * 1e3 / static_cast<double>(schedule.items), "us");
  report.set("sched.jobs",
             static_cast<double>(jobs) / static_cast<double>(passes), "count");
  report.set("sched.switching_times", switching / runs_in_window, "count");
  report.set("sched.renewable_utilization", utilization / runs_in_window,
             "share");
  report.set("sched.deadline_misses", misses / runs_in_window, "count");
  report_iterations(accounts.iterations, report);
  report.set("solver.not_converged", static_cast<double>(accounts.not_converged),
             "count");
  report.set("runtime.workers", 1.0, "count");
  double child_ms = 0.0;
  for (const auto& [name, t] : totals)
    if (name != "paper.run") child_ms += t.ms;
  report.set("trace.unattributed_share",
             run.ms > 0.0 ? (run.ms - child_ms) / run.ms : 0.0, "share");
  report.check(report.metrics["trace.unattributed_share"].value < kMaxUnattributed,
               "stage spans leave 5% or more of the wall time unattributed");
  report.set("trace.overhead_share",
             median(traced_passes) / median(untraced_passes) - 1.0, "share");
  const std::string spans_file = options.state_dir + "/paper_batch.spans.jsonl";
  spans.write_jsonl(spans_file);
  report.info["spans_file"] = spans_file;
  return report;
}

}  // namespace perfbench
