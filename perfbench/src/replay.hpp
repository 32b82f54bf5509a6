// Core/solver replay for the traced fleet runs.
//
// FleetEngine::submit hides the core and solver layers from outside, so the
// traced run feeds a standalone OnlineSmoother per tenant the same samples
// and drives the seam the engine batches across: push_prepare, grouping of
// PendingInterval::problem() by (horizon, QP settings) per shard,
// BatchSolver::solve, provide_solution, push_commit. Grouping, lane order
// and per-shard solver pools follow the engine, so each replayed record is
// the engine's event bit for bit — the caller checks that, which is what
// proves the replay times the same work.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "smoother/fleet/fleet.hpp"
#include "smoother/obs/metrics.hpp"
#include "smoother/solver/solver_pool.hpp"

namespace perfbench {

class CoreReplay {
 public:
  /// Time and work totals over the ticks replayed with timing on.
  struct Totals {
    double push_ns = 0.0;        ///< push_prepare calls that completed nothing
    std::uint64_t pushes = 0;
    double prepare_ns = 0.0;     ///< push_prepare calls that completed an interval
    std::uint64_t prepares = 0;
    double commit_ns = 0.0;      ///< push_commit
    std::uint64_t commits = 0;
    double batch_solve_ns = 0.0; ///< BatchSolver::solve
    std::uint64_t lanes = 0;
    std::uint64_t smoothed = 0;
    std::uint64_t fallbacks[smoother::resilience::kFallbackReasonCount] = {};
    std::vector<double> lane_iterations;  ///< one entry per batched lane
    std::uint64_t lane_not_converged = 0;
  };

  explicit CoreReplay(const smoother::fleet::FleetConfig& config);
  ~CoreReplay();

  CoreReplay(const CoreReplay&) = delete;
  CoreReplay& operator=(const CoreReplay&) = delete;

  void admit(std::uint64_t tenant_id);

  /// Replays one submit() batch; `events` receives one event per completed
  /// interval in the engine's shard-major order. With `timed`, calls are
  /// timed and counted into totals(). Solver counters go to `registry`,
  /// installed as the global metrics registry for the call.
  void submit(std::span<const smoother::fleet::SampleRequest> requests,
              bool timed, smoother::obs::MetricsRegistry& registry,
              std::vector<smoother::fleet::IntervalEvent>& events);

  [[nodiscard]] const Totals& totals() const { return totals_; }

 private:
  struct Tenant;

  smoother::fleet::FleetConfig config_;
  std::size_t keep_output_ = 0;
  std::vector<smoother::solver::SolverPool> pools_;  ///< one per shard
  std::unordered_map<std::uint64_t, std::unique_ptr<Tenant>> tenants_;
  std::vector<std::vector<std::pair<Tenant*, const smoother::fleet::SampleRequest*>>>
      batches_;  ///< per shard, this submit's requests in order
  Totals totals_;
};

}  // namespace perfbench
