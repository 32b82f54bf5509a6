// Seeded input generation. Everything the library receives — SMFW request
// bytes for the fleet workloads, TimeSeries/Job scenarios for paper_batch —
// is a pure function of the --seed argument and the constants here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "smoother/core/smoother.hpp"
#include "smoother/fleet/fleet.hpp"
#include "smoother/sim/scenario.hpp"

namespace perfbench {

/// Fleet service configuration shared by both fleet workloads: m = 12
/// five-minute samples per interval on E48-rated (800 kW) tenants, two
/// warm-up intervals of threshold learning over a one-day history window.
[[nodiscard]] smoother::fleet::FleetConfig fleet_config(std::uint64_t seed);

/// Per-tenant telemetry for a fleet: texas_10 wind through the E48 curve.
/// A pool of week-long traces is generated once per seed; tenant t reads
/// one of them from its own seeded offset, scaled by its own seeded factor.
/// With `faults`, tenants also see isolated spikes and seeded telemetry
/// outages (runs of missing samples long enough to make an interval
/// unreliable).
class FleetInputs {
 public:
  FleetInputs(std::uint64_t seed, std::size_t tenants, bool faults);

  [[nodiscard]] std::size_t tenants() const { return tenants_.size(); }
  [[nodiscard]] static std::uint64_t tenant_id(std::size_t t) { return t + 1; }

  /// Tenant t's j-th sample since its admission.
  [[nodiscard]] smoother::fleet::SampleRequest sample(std::size_t t,
                                                      std::uint64_t j) const;

  /// Order-sensitive hash of the first `samples` samples of every tenant:
  /// equal hashes mean equal inputs.
  [[nodiscard]] std::uint64_t digest(std::uint64_t samples) const;

 private:
  struct Tenant {
    std::uint32_t trace = 0;
    std::uint32_t offset = 0;
    double scale = 1.0;
  };
  std::uint64_t seed_;
  bool faults_;
  std::vector<std::vector<double>> traces_;
  std::vector<Tenant> tenants_;
};

/// One Table II batch preset against texas_10 wind at supply ratio 1.0,
/// with the middleware configuration the paper figures use for it.
struct PaperScenario {
  smoother::sim::BatchScenario scenario;
  smoother::core::SmootherConfig config;
};

/// The scenarios of paper pass `pass`: four seeded one-day draws of every
/// preset. Each pass of a run draws fresh scenarios from the seed's stream,
/// so a run's median pass samples the presets' cost distribution rather
/// than a single draw of it.
[[nodiscard]] std::vector<PaperScenario> make_paper_pass(std::uint64_t seed,
                                                         std::uint64_t pass);

/// Order-sensitive hash of every scenario's supply and jobs.
[[nodiscard]] std::uint64_t paper_digest(
    const std::vector<PaperScenario>& scenarios);

}  // namespace perfbench
