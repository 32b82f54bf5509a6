// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <fleet_steady|fleet_durable|paper_batch>
//             --seed <n> --seconds <s> --trace <0|1> --state-dir <dir>
//   perfbench --self-test
//   perfbench --list-metrics
//   perfbench --input-digest <workload> --seed <n>
//
// Prints the host fingerprint, every metric with its unit and the result
// context, then as the last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 when a correctness check fails, 2 on bad arguments.
#include <cstdio>
#include <map>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "inputs.hpp"

namespace {

using perfbench::Options;
using perfbench::Report;

int usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload <fleet_steady|fleet_durable|"
               "paper_batch> --seed <n> --seconds <s> --trace <0|1> "
               "--state-dir <dir>\n"
            << "       perfbench --self-test | --list-metrics | "
               "--input-digest <workload> --seed <n>\n";
  return 2;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

void print(const Options& options, const Report& report) {
  std::ostringstream host;
  host << "{\"host\": {";
  bool first = true;
  for (const auto& [key, value] : perfbench::host_fingerprint()) {
    host << (first ? "" : ", ") << '"' << key << "\": \"" << json_escape(value)
         << '"';
    first = false;
  }
  host << "}}";
  std::cout << host.str() << "\n";
  std::cout << "workload " << options.workload << " seed " << options.seed
            << " seconds " << options.seconds << " trace "
            << (options.trace ? 1 : 0) << "\n";
  for (const auto& [key, value] : report.info)
    std::cout << "  " << key << ": " << value << "\n";
  for (const auto& [name, metric] : report.metrics)
    std::cout << "  " << name << " = " << number(metric.value) << " "
              << metric.unit << "\n";
  const double failed_share =
      report.attempted == 0
          ? 0.0
          : static_cast<double>(report.failed + report.not_converged) /
                static_cast<double>(report.attempted);
  std::cout << "  not_converged_plans = " << report.not_converged << "\n";
  std::cout << "  failed_share = " << number(failed_share) << "\n";
  for (const std::string& error : report.errors)
    std::cout << "CHECK FAILED: " << error << "\n";

  std::ostringstream json;
  json << "{\"correct\": " << (report.correct() ? "true" : "false")
       << ", \"attempted\": " << report.attempted
       << ", \"failed\": " << report.failed << ", \"metrics\": {";
  first = true;
  for (const auto& [name, metric] : report.metrics) {
    json << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
         << number(metric.value) << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

/// Keeps exactly the metrics the mode reports; a missing one is a
/// benchmark defect and fails the run.
void select_metrics(const Options& options, Report& report) {
  if (options.trace) perfbench::fill_unexercised_layers(report);
  const auto& wanted = options.trace ? perfbench::per_layer_metrics()
                                     : perfbench::end_to_end_metrics();
  std::map<std::string, perfbench::Metric> kept;
  for (const auto& [name, unit] : wanted) {
    const auto it = report.metrics.find(name);
    if (it == report.metrics.end()) {
      report.check(false, "metric " + name + " was not measured");
      continue;
    }
    report.check(it->second.unit == unit, "metric " + name + " has unit " +
                                              it->second.unit + ", not " + unit);
    kept.emplace(name, it->second);
  }
  report.metrics = std::move(kept);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  std::string digest_workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return perfbench::run_self_test();
    if (arg == "--list-metrics") {
      for (const auto& [name, unit] : perfbench::end_to_end_metrics())
        std::cout << "end_to_end " << name << " " << unit << "\n";
      for (const auto& [name, unit] : perfbench::per_layer_metrics())
        std::cout << "per_layer " << name << " " << unit << "\n";
      return 0;
    }
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (arg == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (arg == "--input-digest") {
        digest_workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value, &used);
        have_seed = used == value.size();
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value, &used);
        have_seconds = used == value.size() && options.seconds > 0.0;
      } else if (arg == "--trace") {
        have_trace = value == "0" || value == "1";
        options.trace = value == "1";
      } else if (arg == "--state-dir") {
        options.state_dir = value;
      } else {
        return usage("unknown argument " + arg);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + arg + ": " + value);
    }
  }

  if (!digest_workload.empty()) {
    if (!have_seed) return usage("--input-digest needs --seed");
    if (digest_workload == "paper_batch") {
      std::cout << perfbench::paper_digest(
                       perfbench::make_paper_pass(options.seed, 0))
                << "\n";
    } else if (digest_workload == "fleet_steady" ||
               digest_workload == "fleet_durable") {
      const bool faults = digest_workload == "fleet_durable";
      std::cout << perfbench::FleetInputs(options.seed, 100, faults).digest(2016)
                << "\n";
    } else {
      return usage("unknown workload " + digest_workload);
    }
    return 0;
  }

  if (!have_workload || !have_seed || !have_seconds || !have_trace ||
      options.state_dir.empty())
    return usage("--workload, --seed, --seconds, --trace and --state-dir "
                 "are required");

  Report report;
  try {
    if (options.workload == "fleet_steady")
      report = perfbench::run_fleet_steady(options);
    else if (options.workload == "fleet_durable")
      report = perfbench::run_fleet_durable(options);
    else if (options.workload == "paper_batch")
      report = perfbench::run_paper_batch(options);
    else
      return usage("unknown workload " + options.workload);
  } catch (const std::exception& error) {
    report.check(false, std::string("run aborted: ") + error.what());
  }
  select_metrics(options, report);
  print(options, report);
  return report.correct() ? 0 : 1;
}
