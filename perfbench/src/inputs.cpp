#include "inputs.hpp"

#include <bit>

#include "bench.hpp"
#include "smoother/power/turbine.hpp"
#include "smoother/sim/experiments.hpp"
#include "smoother/trace/batch_workload.hpp"
#include "smoother/trace/wind_speed_model.hpp"
#include "smoother/util/rng.hpp"

namespace perfbench {

namespace {

constexpr double kRatedKw = 800.0;  // ENERCON E48
constexpr std::size_t kTracePool = 64;
constexpr std::size_t kTraceSamples = 7 * 288;  // one week of 5-min samples

// Fault injection (fleet_durable): outages are decided per tenant per
// window of kOutageWindow samples.
constexpr std::uint64_t kOutageWindow = 96;
constexpr double kOutageShare = 0.05;
constexpr std::uint64_t kOutageMin = 8;   // > m/2: the interval is unreliable
constexpr std::uint64_t kOutageSpan = 13; // lengths 8..20
constexpr double kSpikeShare = 0.002;
constexpr double kSpikeFactor = 4.0;  // beyond the guard's 3x clamp

// Stream tags keep the hash families independent.
constexpr std::uint64_t kTagTenant = 1;
constexpr std::uint64_t kTagOutage = 2;
constexpr std::uint64_t kTagOutageShape = 3;
constexpr std::uint64_t kTagSpike = 4;
constexpr std::uint64_t kTagPaper = 5;

// One paper pass: kPaperDraws one-day draws of every Table II preset.
constexpr std::size_t kPaperDraws = 4;
constexpr double kPaperDays = 1.0;
constexpr std::size_t kPaperServers = 11000;

}  // namespace

smoother::fleet::FleetConfig fleet_config(std::uint64_t seed) {
  smoother::fleet::FleetConfig config;
  config.seed = seed;
  config.smoother.rated_power = smoother::util::Kilowatts{kRatedKw};
  config.smoother.sample_step = smoother::util::kFiveMinutes;
  config.smoother.warmup_intervals = 2;
  config.smoother.history_intervals = 24;
  return config;
}

FleetInputs::FleetInputs(std::uint64_t seed, std::size_t tenants, bool faults)
    : seed_(seed), faults_(faults) {
  using namespace smoother;
  const trace::WindSpeedModel model(trace::WindSitePresets::texas_10());
  const power::TurbineCurve& curve = power::TurbineCurve::enercon_e48();
  const util::Minutes duration{util::kFiveMinutes.value() *
                               static_cast<double>(kTraceSamples)};
  traces_.reserve(kTracePool);
  for (std::size_t i = 0; i < kTracePool; ++i) {
    const util::TimeSeries power = curve.power_series(model.generate(
        duration, util::kFiveMinutes, util::Rng::derive_stream_seed(seed, i)));
    traces_.emplace_back(power.values().begin(), power.values().end());
  }
  tenants_.reserve(tenants);
  for (std::size_t t = 0; t < tenants; ++t) {
    const std::uint64_t h = mix(seed, kTagTenant, t);
    Tenant tenant;
    tenant.trace = static_cast<std::uint32_t>(h % kTracePool);
    tenant.offset = static_cast<std::uint32_t>((h >> 16) % kTraceSamples);
    tenant.scale = 0.8 + 0.2 * unit_interval(mix(h));
    tenants_.push_back(tenant);
  }
}

smoother::fleet::SampleRequest FleetInputs::sample(std::size_t t,
                                                   std::uint64_t j) const {
  const Tenant& tenant = tenants_[t];
  smoother::fleet::SampleRequest request;
  request.tenant_id = tenant_id(t);
  request.generation_kw =
      tenant.scale * traces_[tenant.trace][(tenant.offset + j) % kTraceSamples];
  if (!faults_) return request;
  const std::uint64_t window = j / kOutageWindow;
  if (unit_interval(mix(seed_ ^ kTagOutage, t, window)) < kOutageShare) {
    const std::uint64_t shape = mix(seed_ ^ kTagOutageShape, t, window);
    const std::uint64_t length = kOutageMin + shape % kOutageSpan;
    const std::uint64_t start = (shape >> 20) % (kOutageWindow - length);
    const std::uint64_t at = j % kOutageWindow;
    if (at >= start && at < start + length) {
      request.missing = true;
      request.generation_kw = 0.0;
      return request;
    }
  }
  if (unit_interval(mix(seed_ ^ kTagSpike, t, j)) < kSpikeShare)
    request.generation_kw = kSpikeFactor * kRatedKw;
  return request;
}

std::uint64_t FleetInputs::digest(std::uint64_t samples) const {
  std::uint64_t h = mix(tenants_.size(), samples);
  for (std::size_t t = 0; t < tenants_.size(); ++t)
    for (std::uint64_t j = 0; j < samples; ++j) {
      const smoother::fleet::SampleRequest request = sample(t, j);
      h = mix(h, std::bit_cast<std::uint64_t>(request.generation_kw),
              request.missing ? 1 : 0);
    }
  return h;
}

std::vector<PaperScenario> make_paper_pass(std::uint64_t seed,
                                           std::uint64_t pass) {
  using namespace smoother;
  std::vector<PaperScenario> scenarios;
  std::uint64_t index = 0;
  for (std::size_t draw = 0; draw < kPaperDraws; ++draw)
    for (const trace::BatchWorkloadParams& batch :
         trace::BatchWorkloadPresets::all()) {
      PaperScenario paper;
      paper.scenario = sim::make_batch_scenario(
          batch, trace::WindSitePresets::texas_10(), 1.0,
          util::days(kPaperDays), kPaperServers,
          mix(seed ^ kTagPaper, pass, index++));
      paper.config =
          sim::default_config(util::Kilowatts{paper.scenario.supply.max()});
      scenarios.push_back(std::move(paper));
    }
  return scenarios;
}

std::uint64_t paper_digest(const std::vector<PaperScenario>& scenarios) {
  std::uint64_t h = mix(scenarios.size());
  for (const PaperScenario& paper : scenarios) {
    for (const double kw : paper.scenario.supply.values())
      h = mix(h, std::bit_cast<std::uint64_t>(kw));
    for (const smoother::sched::Job& job : paper.scenario.jobs)
      h = mix(h, std::bit_cast<std::uint64_t>(job.arrival.value()),
              std::bit_cast<std::uint64_t>(job.runtime.value()) ^ job.servers);
  }
  return h;
}

}  // namespace perfbench
