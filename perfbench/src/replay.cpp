#include "replay.hpp"

#include <bit>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>

#include "bench.hpp"
#include "smoother/battery/battery.hpp"

namespace perfbench {

using smoother::core::OnlineSmoother;
using smoother::fleet::IntervalEvent;
using smoother::fleet::SampleRequest;

struct CoreReplay::Tenant {
  Tenant(std::uint64_t id_, const smoother::core::OnlineSmootherConfig& config,
         smoother::battery::Battery battery)
      : id(id_), smoother(config, std::move(battery)) {}

  std::uint64_t id;
  std::uint64_t samples = 0;  ///< pushed since admission
  OnlineSmoother::PendingInterval pending;
  OnlineSmoother smoother;
};

CoreReplay::CoreReplay(const smoother::fleet::FleetConfig& config)
    : config_(config),
      keep_output_(config.keep_output_samples > 0
                       ? config.keep_output_samples
                       : 2 * config.smoother.flexible_smoothing
                                 .points_per_interval),
      pools_(config.shards),
      batches_(config.shards) {}

CoreReplay::~CoreReplay() = default;

void CoreReplay::admit(std::uint64_t tenant_id) {
  // Sized exactly as FleetEngine::add_tenant sizes a tenant's battery.
  const smoother::battery::BatterySpec spec =
      smoother::battery::spec_for_max_rate(
          config_.smoother.rated_power * config_.battery_rate_fraction,
          config_.smoother.sample_step, config_.battery_headroom);
  auto tenant = std::make_unique<Tenant>(tenant_id, config_.smoother,
                                         smoother::battery::Battery(spec));
  tenant->smoother.set_shared_solver_pool(
      &pools_[smoother::fleet::shard_of(tenant_id, pools_.size())]);
  if (!tenants_.emplace(tenant_id, std::move(tenant)).second)
    throw std::invalid_argument("replay: tenant admitted twice");
}

namespace {

double ns_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::nano>(end - start).count();
}

bool push(OnlineSmoother& smoother, const SampleRequest& request,
          OnlineSmoother::PendingInterval& pending) {
  return request.missing
             ? smoother.push_missing_prepare(pending)
             : smoother.push_prepare(request.generation_kw, pending);
}

/// Everything that must match for lanes to share one BatchSolver pass —
/// the engine's grouping key.
using BatchKey = std::tuple<std::size_t, std::uint64_t, std::uint64_t,
                            std::uint64_t, std::uint64_t, std::uint64_t,
                            std::size_t, std::size_t, bool>;

BatchKey batch_key(const OnlineSmoother::PendingInterval& pending) {
  const smoother::solver::QpSettings& qp = pending.qp_settings();
  return {pending.horizon(),
          std::bit_cast<std::uint64_t>(qp.rho),
          std::bit_cast<std::uint64_t>(qp.sigma),
          std::bit_cast<std::uint64_t>(qp.alpha),
          std::bit_cast<std::uint64_t>(qp.eps_abs),
          std::bit_cast<std::uint64_t>(qp.eps_rel),
          qp.max_iterations,
          qp.check_interval,
          qp.polish};
}

}  // namespace

void CoreReplay::submit(std::span<const SampleRequest> requests, bool timed,
                        smoother::obs::MetricsRegistry& registry,
                        std::vector<IntervalEvent>& events) {
  const smoother::obs::GlobalMetricsScope metrics_scope(&registry);
  const std::size_t points =
      config_.smoother.flexible_smoothing.points_per_interval;
  for (const SampleRequest& request : requests) {
    const auto it = tenants_.find(request.tenant_id);
    if (it == tenants_.end())
      throw std::invalid_argument("replay: unknown tenant " +
                                  std::to_string(request.tenant_id));
    batches_[smoother::fleet::shard_of(request.tenant_id, pools_.size())]
        .emplace_back(it->second.get(), &request);
  }
  Totals& totals = totals_;
  Totals scratch;  // untimed calls are measured the same way, then dropped
  Totals& sink = timed ? totals : scratch;

  std::vector<Tenant*> parked;
  std::map<BatchKey, std::vector<Tenant*>> groups;
  std::vector<smoother::solver::BatchSolver::Lane> lanes;
  std::vector<smoother::solver::QpResult> results;
  for (std::size_t s = 0; s < pools_.size(); ++s) {
    auto& batch = batches_[s];
    parked.clear();
    // Pushes that complete nothing are timed as runs (a clock read costs
    // about as much as the push); each completing push is timed alone.
    std::size_t i = 0;
    while (i < batch.size()) {
      std::size_t j = i;
      while (j < batch.size() && (batch[j].first->samples + 1) % points != 0)
        ++j;
      if (j > i) {
        const auto start = Clock::now();
        for (std::size_t k = i; k < j; ++k) {
          Tenant& tenant = *batch[k].first;
          if (push(tenant.smoother, *batch[k].second, tenant.pending))
            throw std::logic_error("replay: unexpected interval completion");
          ++tenant.samples;
        }
        sink.push_ns += ns_between(start, Clock::now());
        sink.pushes += j - i;
      }
      if (j == batch.size()) break;
      Tenant& tenant = *batch[j].first;
      const auto start = Clock::now();
      const bool completed =
          push(tenant.smoother, *batch[j].second, tenant.pending);
      sink.prepare_ns += ns_between(start, Clock::now());
      ++sink.prepares;
      if (!completed)
        throw std::logic_error("replay: expected interval did not complete");
      ++tenant.samples;
      parked.push_back(&tenant);
      i = j + 1;
    }
    batch.clear();
    if (parked.empty()) continue;

    groups.clear();
    for (Tenant* tenant : parked)
      if (tenant->pending.batchable())
        groups[batch_key(tenant->pending)].push_back(tenant);
    for (auto& [key, members] : groups) {
      smoother::solver::BatchSolver& solver = pools_[s].batch_solver_for(
          std::get<0>(key), members.front()->pending.qp_settings());
      if (!solver.is_setup()) continue;  // commit takes the scalar route
      lanes.clear();
      for (Tenant* tenant : members) {
        const smoother::solver::QpProblem& problem = tenant->pending.problem();
        lanes.push_back({problem.q, problem.lower, problem.upper});
      }
      results.assign(members.size(), smoother::solver::QpResult{});
      const auto start = Clock::now();
      solver.solve(lanes, results);
      sink.batch_solve_ns += ns_between(start, Clock::now());
      sink.lanes += members.size();
      for (std::size_t l = 0; l < members.size(); ++l) {
        sink.lane_iterations.push_back(
            static_cast<double>(results[l].iterations));
        if (!results[l].ok()) ++sink.lane_not_converged;
        members[l]->pending.provide_solution(std::move(results[l]));
      }
    }

    for (Tenant* tenant : parked) {
      const auto start = Clock::now();
      const smoother::core::OnlineIntervalRecord record =
          tenant->smoother.push_commit(tenant->pending);
      sink.commit_ns += ns_between(start, Clock::now());
      ++sink.commits;
      if (record.smoothed) ++sink.smoothed;
      ++sink.fallbacks[static_cast<std::size_t>(record.fallback)];
      IntervalEvent event;
      event.tenant_id = tenant->id;
      event.interval_index = record.index;
      event.region = static_cast<std::uint8_t>(record.region);
      event.fallback = static_cast<std::uint8_t>(record.fallback);
      event.smoothed = record.smoothed;
      event.warmup = record.warmup;
      event.degraded = record.degraded;
      event.variance_before = record.variance_before;
      event.variance_after = record.variance_after;
      event.solver_iterations = record.solver_iterations;
      events.push_back(event);
      tenant->smoother.compact(keep_output_, config_.keep_records);
    }
  }
}

}  // namespace perfbench
