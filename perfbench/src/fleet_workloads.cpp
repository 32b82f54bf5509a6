// fleet_steady and fleet_durable: one closed-loop client process feeding a
// FleetEngine one tick at a time. Each tick's samples go in as one SMFW
// request stream and come back as SMFW event bytes; the tick returns once
// its checkpoint (when the tick takes one) is appended to the PersistEngine.
//
//   fleet_steady   10k tenants admitted together, so every interval ends on
//                  the clock hour; a checkpoint per hour; a pooled engine.
//   fleet_durable  3k tenants admitted over the first 12 ticks (staggered
//                  phases), telemetry spikes and outages, a checkpoint after
//                  every tick, a crash and recovery mid-run; a serial engine.
//
// Untraced runs (--trace 0) time each tick from handing over the request
// bytes to the end of the persist write. Traced runs (--trace 1) replace
// apply_wire by its public parts (FrameCursor/decode, submit, FrameWriter)
// on alternate rounds, record a span around each stage, and add the serial
// shadow engine (fleet_steady) and the core/solver replay.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "inputs.hpp"
#include "replay.hpp"
#include "smoother/fleet/fleet.hpp"
#include "smoother/fleet/wire.hpp"
#include "smoother/obs/metrics.hpp"
#include "smoother/persist/engine.hpp"
#include "smoother/resilience/result.hpp"
#include "smoother/runtime/thread_pool.hpp"

namespace perfbench {

namespace {

namespace fleet = smoother::fleet;
namespace persist = smoother::persist;
using smoother::resilience::FallbackReason;

constexpr std::size_t kPoints = 12;  // m: samples per interval
constexpr std::size_t kSetupRepeats = 7;
constexpr std::size_t kPlannedWarmupIntervals = 3;
/// Recoveries timed back to back at each recovery point. The points are
/// spread over the run (a restart of the persist side at each quarter of
/// --seconds, plus the crash or the final stop), so recovery_s samples the
/// host the way the throughput metrics do instead of at one instant.
constexpr std::size_t kRecoveryRepeats = 3;
constexpr std::size_t kRestarts = 3;
/// fleet_steady: pooled and serial digests are compared over this many
/// measured ticks (two hourly rounds).
constexpr std::uint64_t kPrefixCheckTicks = 2 * kPoints;
/// variance_ratio covers this many measured ticks, so it depends on the
/// seed alone, not on how many ticks the host manages in --seconds.
constexpr std::uint64_t kQualityTicks = 24 * kPoints;
constexpr persist::FsyncPolicy kFsync = persist::FsyncPolicy::kNone;

/// A durable shape staggers admissions (tenant t at tick t mod m), injects
/// spikes and outages, checkpoints after every tick, crashes once and runs
/// a serial engine. The steady shape admits every tenant at tick 0,
/// checkpoints once per clock hour and runs on a ThreadPool.
struct Shape {
  const char* name;
  std::size_t tenants;
  bool durable;

  /// Durable steps per snapshot (a snapshot compacts the WAL): every
  /// fourth hour (steady) or once per hour of per-tick steps (durable).
  [[nodiscard]] std::size_t snapshot_every() const { return durable ? 12 : 4; }
};

constexpr Shape kSteady{"fleet_steady", 10000, false};
constexpr Shape kDurable{"fleet_durable", 3000, true};

/// The client side: builds each tick's request stream from the seeded
/// inputs and knows which interval events the tick must produce.
class Client {
 public:
  Client(const Shape& shape, const FleetInputs& inputs)
      : shape_(shape), inputs_(inputs) {}

  [[nodiscard]] std::uint64_t admission_tick(std::size_t t) const {
    return shape_.durable ? t % kPoints : 0;
  }

  /// Ticks until every tenant has learned its thresholds and planned
  /// kPlannedWarmupIntervals intervals through the QP: the first planned
  /// intervals after threshold learning cost about twice the steady state.
  [[nodiscard]] std::uint64_t warmup_ticks(std::size_t warmup_intervals) const {
    const std::uint64_t last_admission = shape_.durable ? kPoints - 1 : 0;
    return last_admission + (warmup_intervals + kPlannedWarmupIntervals) * kPoints;
  }

  void build(std::uint64_t tick, std::string& out) {
    writer_.begin_stream(out);
    for (std::size_t t = 0; t < inputs_.tenants(); ++t) {
      const std::uint64_t admitted = admission_tick(t);
      if (tick < admitted) continue;
      if (tick == admitted)
        writer_.append(out, fleet::AddTenantRequest{FleetInputs::tenant_id(t)});
      writer_.append(out, inputs_.sample(t, tick - admitted));
    }
  }

  /// (tenant id, interval index) of every interval the tick completes,
  /// sorted by tenant id.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>> expected(
      std::uint64_t tick) const {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    for (std::size_t t = 0; t < inputs_.tenants(); ++t) {
      const std::uint64_t admitted = admission_tick(t);
      if (tick < admitted) continue;
      const std::uint64_t samples = tick - admitted + 1;
      if (samples % kPoints == 0)
        out.emplace_back(FleetInputs::tenant_id(t), samples / kPoints - 1);
    }
    return out;
  }

 private:
  const Shape& shape_;
  const FleetInputs& inputs_;
  fleet::FrameWriter writer_;
};

std::vector<fleet::IntervalEvent> decode_events(std::string_view bytes) {
  std::vector<fleet::IntervalEvent> events;
  fleet::FrameCursor cursor(bytes);
  while (const std::optional<fleet::Frame> frame = cursor.next()) {
    if (frame->type != fleet::MessageType::kIntervalEvent)
      throw std::runtime_error("event stream holds a request frame");
    events.push_back(fleet::decode_interval_event(frame->body));
  }
  if (cursor.torn()) throw std::runtime_error("event stream is torn");
  return events;
}


/// Checks each tick's events against the client's expectations and keeps
/// the failure and quality accounts.
struct Accounts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;         // see Report::failed
  std::uint64_t not_converged = 0;  // see Report::not_converged
  std::uint64_t fallbacks[smoother::resilience::kFallbackReasonCount] = {};
  // variance_ratio = sum(after) / sum(before): the mean per-interval ratio
  // weighted by variance_before, so a near-flat interval cannot swing it.
  double variance_before = 0.0;
  double variance_after = 0.0;

  /// `quality`: the tick counts toward variance_ratio.
  void add(const std::vector<std::pair<std::uint64_t, std::uint64_t>>& expected,
           const std::vector<fleet::IntervalEvent>& events, bool quality,
           Report& report) {
    attempted += expected.size();
    std::vector<std::pair<std::uint64_t, std::uint64_t>> got;
    got.reserve(events.size());
    for (const fleet::IntervalEvent& event : events) {
      got.emplace_back(event.tenant_id, event.interval_index);
      const auto reason = static_cast<FallbackReason>(event.fallback);
      if (event.fallback >= smoother::resilience::kFallbackReasonCount) {
        report.check(false, "event with an unknown fallback reason");
        continue;
      }
      ++fallbacks[event.fallback];
      if (reason == FallbackReason::kInternalError) ++failed;
      if (reason == FallbackReason::kSolverNotConverged) ++not_converged;
      if (quality && reason == FallbackReason::kNone && event.smoothed &&
          event.solver_iterations > 0 && event.variance_before > 0.0) {
        variance_before += event.variance_before;
        variance_after += event.variance_after;
      }
    }
    std::sort(got.begin(), got.end());
    std::size_t matched = 0;
    std::size_t i = 0;
    for (const auto& want : expected) {
      while (i < got.size() && got[i] < want) ++i;
      if (i < got.size() && got[i] == want) {
        ++matched;
        ++i;
      }
    }
    failed += expected.size() - matched;
    report.check(matched == expected.size() && got.size() == expected.size(),
                 "tick events differ from the intervals its samples complete");
  }
};

/// The system under test: the engine and its persist directory.
class Service {
 public:
  /// A fresh engine over the persist directory `dir` (emptied beforehand
  /// by the caller).
  Service(const fleet::FleetConfig& config,
          smoother::runtime::ThreadPool* pool, std::string dir,
          std::size_t snapshot_every)
      : dir_(std::move(dir)), snapshot_every_(snapshot_every) {
    engine_ = std::make_unique<fleet::FleetEngine>(config, pool);
    persist_ = std::make_unique<persist::PersistEngine>(persist_config());
  }

  [[nodiscard]] persist::PersistConfig persist_config() const {
    persist::PersistConfig config;
    config.directory = dir_;
    config.fsync = kFsync;
    config.snapshot_every_records = 0;  // compaction is explicit: see durable()
    return config;
  }

  fleet::FleetEngine& engine() { return *engine_; }

  /// Makes the engine's state durable: a WAL append, or every
  /// snapshot_every-th step a snapshot that compacts the WAL.
  void durable(const std::string& payload) {
    if (next_step_is_snapshot())
      persist_->snapshot(payload);
    else
      persist_->append(payload);
    ++steps_;
    durable_bytes_ += payload.size();
  }
  /// Checkpoint bytes made durable so far.
  [[nodiscard]] std::uint64_t durable_bytes() const { return durable_bytes_; }
  [[nodiscard]] bool next_step_is_snapshot() const {
    return (steps_ + 1) % snapshot_every_ == 0;
  }
  /// The durable step after the next one is a snapshot: the WAL is one
  /// append short of its longest.
  [[nodiscard]] bool step_after_next_is_snapshot() const {
    return (steps_ + 2) % snapshot_every_ == 0;
  }

  /// One untraced tick; returns its latency in seconds.
  double tick(std::string_view requests, bool checkpoint,
              std::string& events_out) {
    const auto start = Clock::now();
    const fleet::WireApplyResult applied =
        engine_->apply_wire(requests, events_out);
    if (checkpoint) {
      last_payload_ = engine_->encode_checkpoint();
      durable(last_payload_);
    }
    const double seconds = seconds_between(start, Clock::now());
    if (applied.torn) throw std::runtime_error("request stream torn");
    return seconds;
  }

  /// One traced tick: apply_wire's public parts, each under a span, then
  /// the checkpoint.
  double tick_traced(std::string_view requests, bool checkpoint,
                     std::string& events_out, SpanRecorder& spans,
                     std::uint64_t tick_no) {
    std::vector<fleet::SampleRequest>& samples = samples_;
    const auto start = Clock::now();
    const std::uint32_t tick_span = spans.begin("tick", tick_no);
    std::uint32_t span = spans.begin("wire.decode", tick_no, tick_span);
    samples.clear();
    std::uint64_t frames = 0;
    fleet::FrameCursor cursor(requests);
    while (const std::optional<fleet::Frame> frame = cursor.next()) {
      ++frames;
      switch (frame->type) {
        case fleet::MessageType::kAddTenant: {
          const fleet::AddTenantRequest add =
              fleet::decode_add_tenant(frame->body);
          if (engine_->find_tenant(add.tenant_id) == nullptr)
            engine_->add_tenant(add.tenant_id);
          break;
        }
        case fleet::MessageType::kSample:
          samples.push_back(fleet::decode_sample(frame->body, false));
          break;
        case fleet::MessageType::kMissingSample:
          samples.push_back(fleet::decode_sample(frame->body, true));
          break;
        case fleet::MessageType::kIntervalEvent:
          throw std::runtime_error("event frame in a request stream");
      }
    }
    spans.end(span, frames);
    if (cursor.torn()) throw std::runtime_error("request stream torn");

    span = spans.begin("fleet.submit", tick_no, tick_span);
    const std::vector<fleet::IntervalEvent> events = engine_->submit(samples);
    spans.end(span, events.size());

    span = spans.begin("wire.encode", tick_no, tick_span);
    writer_.begin_stream(events_out);
    for (const fleet::IntervalEvent& event : events)
      writer_.append(events_out, event);
    spans.end(span, events.size());

    if (checkpoint) {
      span = spans.begin("persist.checkpoint_encode", tick_no, tick_span);
      last_payload_ = engine_->encode_checkpoint();
      spans.end(span, last_payload_.size());
      const bool snapshot = next_step_is_snapshot();
      span = spans.begin(snapshot ? "persist.snapshot" : "persist.append",
                         tick_no, tick_span);
      durable(last_payload_);
      spans.end(span, last_payload_.size());
    }
    spans.end(tick_span, samples.size());
    return seconds_between(start, Clock::now());
  }

  /// The newest checkpoint payload made durable.
  [[nodiscard]] const std::string& last_payload() const {
    return last_payload_;
  }

  /// Crash: the engine dies while its last WAL record is half written. That
  /// step never happened.
  void crash_tearing_last_record() {
    persist_.reset();  // closes the WAL file
    engine_.reset();
    --steps_;
    durable_bytes_ -= last_payload_.size();
    const std::filesystem::path wal = std::filesystem::path(dir_) / "wal.bin";
    const auto size = std::filesystem::file_size(wal);
    std::filesystem::resize_file(wal, size - last_payload_.size() / 2);
  }

  void close() {
    persist_.reset();
    engine_.reset();
  }

  struct Recovery {
    double recover_s = 0.0;  ///< open the directory and read the state
    double restore_s = 0.0;  ///< a new engine with the state restored
    std::uint64_t wal_bytes_truncated = 0;
    bool found = false;
    std::uint64_t digest = 0;  ///< the restored engine's output_digest()
  };

  /// Closes the PersistEngine (which flushes its WAL), opens the directory
  /// afresh and restores its newest state into a new engine. The new
  /// PersistEngine carries on as the service's. The restored engine
  /// replaces the live one when `replace` (after a crash); otherwise it is
  /// dropped, and the live engine carries on warm.
  Recovery recover(const fleet::FleetConfig& config,
                   smoother::runtime::ThreadPool* pool, bool replace) {
    persist_.reset();
    Recovery recovery;
    const auto start = Clock::now();
    persist_ = std::make_unique<persist::PersistEngine>(persist_config());
    const persist::RecoveredState state = persist_->recover();
    const auto read = Clock::now();
    auto engine = std::make_unique<fleet::FleetEngine>(config, pool);
    if (state.found) engine->restore_checkpoint(state.state);
    const auto done = Clock::now();
    recovery.recover_s = seconds_between(start, read);
    recovery.restore_s = seconds_between(read, done);
    recovery.wal_bytes_truncated = state.wal_bytes_truncated;
    recovery.found = state.found;
    recovery.digest = engine->output_digest();
    if (replace) engine_ = std::move(engine);
    return recovery;
  }

 private:
  std::string dir_;
  std::size_t snapshot_every_;
  std::uint64_t steps_ = 0;
  std::uint64_t durable_bytes_ = 0;
  std::unique_ptr<fleet::FleetEngine> engine_;
  std::unique_ptr<persist::PersistEngine> persist_;
  std::string last_payload_;
  fleet::FrameWriter writer_;
  std::vector<fleet::SampleRequest> samples_;
};

void empty_directory(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

/// Splits a request stream into admissions and samples (client side, for
/// the shadow engine and the replay).
void decode_requests(std::string_view bytes, std::vector<std::uint64_t>& admits,
                     std::vector<fleet::SampleRequest>& samples) {
  admits.clear();
  samples.clear();
  fleet::FrameCursor cursor(bytes);
  while (const std::optional<fleet::Frame> frame = cursor.next()) {
    if (frame->type == fleet::MessageType::kAddTenant)
      admits.push_back(fleet::decode_add_tenant(frame->body).tenant_id);
    else
      samples.push_back(fleet::decode_sample(
          frame->body, frame->type == fleet::MessageType::kMissingSample));
  }
}

/// The traced run's extra participants: the serial shadow engine
/// (fleet_steady only) and the core/solver replay, fed the same samples.
struct TraceSide {
  explicit TraceSide(const fleet::FleetConfig& config, bool shadow_engine)
      : replay(config) {
    if (shadow_engine) shadow = std::make_unique<fleet::FleetEngine>(config);
  }

  std::unique_ptr<fleet::FleetEngine> shadow;
  CoreReplay replay;
  smoother::obs::MetricsRegistry registry;
  std::vector<double> shadow_submit_boundary_ms;
  std::vector<std::uint64_t> admits;
  std::vector<fleet::SampleRequest> samples;
  std::vector<fleet::IntervalEvent> replayed;

  /// Feeds the tick to both participants and checks their events equal
  /// the engine's.
  void feed(std::string_view requests,
            const std::vector<fleet::IntervalEvent>& events, bool measured,
            Report& report) {
    decode_requests(requests, admits, samples);
    for (const std::uint64_t id : admits) {
      replay.admit(id);
      if (shadow) shadow->add_tenant(id);
    }
    if (shadow) {
      const auto start = Clock::now();
      const std::vector<fleet::IntervalEvent> serial = shadow->submit(samples);
      const double ms = seconds_between(start, Clock::now()) * 1e3;
      if (measured && !serial.empty()) shadow_submit_boundary_ms.push_back(ms);
      report.check(serial == events,
                   "serial shadow engine's events differ from the pooled "
                   "engine's");
    }
    replayed.clear();
    replay.submit(samples, measured, registry, replayed);
    report.check(replayed == events,
                 "core/solver replay records differ from the fleet's events");
  }
};

Report run_fleet(const Shape& shape, const Options& options) {
  Report report;
  const fleet::FleetConfig config = fleet_config(options.seed);
  const FleetInputs inputs(options.seed, shape.tenants, shape.durable);
  Client client(shape, inputs);
  std::optional<smoother::runtime::ThreadPool> pool;
  if (!shape.durable) pool.emplace(pool_workers());
  smoother::runtime::ThreadPool* const pool_ptr = pool ? &*pool : nullptr;
  const std::string dir = options.state_dir + "/" + shape.name;
  const std::uint64_t warmup =
      client.warmup_ticks(config.smoother.warmup_intervals);

  report.info["tenants"] = std::to_string(shape.tenants);
  report.info["pool_workers"] = pool ? std::to_string(pool->worker_count()) : "0 (serial)";
  report.info["fsync"] = persist::to_string(kFsync);
  report.info["loop"] = "closed, one client, one tick in flight";

  std::string requests;
  std::string events_bytes;

  // --- Set-up: engine construction, admissions, threshold learning and the
  // first QP-planned interval. Repeated; the median is setup_s.
  std::unique_ptr<Service> service;
  std::unique_ptr<TraceSide> side;
  std::vector<double> setup_s;
  std::uint64_t setup_digest = 0;
  const std::size_t setups = options.trace ? 1 : kSetupRepeats;
  for (std::size_t repeat = 0; repeat < setups; ++repeat) {
    service.reset();
    side.reset();
    empty_directory(dir);
    Accounts warmup_accounts;
    const auto start = Clock::now();
    service = std::make_unique<Service>(config, pool_ptr, dir,
                                        shape.snapshot_every());
    double engine_s = seconds_between(start, Clock::now());
    if (options.trace) side = std::make_unique<TraceSide>(config, !shape.durable);
    for (std::uint64_t tick = 0; tick < warmup; ++tick) {
      client.build(tick, requests);
      const bool checkpoint = shape.durable || tick % kPoints == kPoints - 1;
      engine_s += service->tick(requests, checkpoint, events_bytes);
      const std::vector<fleet::IntervalEvent> events =
          decode_events(events_bytes);
      warmup_accounts.add(client.expected(tick), events, false, report);
      if (side) side->feed(requests, events, false, report);
    }
    setup_s.push_back(engine_s);
    const std::uint64_t digest = service->engine().output_digest();
    if (repeat == 0) setup_digest = digest;
    report.check(digest == setup_digest,
                 "repeated set-ups reached different digests");
  }
  // fleet_steady: the pooled engine's digest after kPrefixCheckTicks is
  // checked against a serial engine restored from this checkpoint.
  const std::string prefix_checkpoint =
      !shape.durable && !options.trace ? service->last_payload() : std::string();

  // --- Measurement: whole rounds of m ticks (every tenant completes one
  // interval per round) until --seconds have passed.
  // fleet_durable crashes in a seeded round, on the append that would
  // leave the WAL at its longest — so every crash recovers the same shape
  // of state: a snapshot plus snapshot_every - 2 WAL records.
  const std::uint64_t crash_after =
      warmup + (2 + mix(options.seed, 0xc7a5) % 4) * kPoints;
  bool crashed = false;
  std::uint64_t crash_tick = 0;
  std::string crashed_events;
  std::uint64_t digest_after_crashed_tick = 0;
  std::vector<Service::Recovery> recoveries;
  std::uint64_t wal_bytes_truncated = 0;
  // The service's peak RSS, taken before the first recovery that runs
  // beside the live engine: a restarted service never holds two engines at
  // once, but a recovery check does. fleet_durable's crash recovery, which
  // replaces the engine, counts.
  double rss_mb = 0.0;
  // Recovers the directory kRecoveryRepeats times; every recovery must
  // reproduce `digest`, and only the first after a crash may find a torn
  // WAL tail. That first recovery replaces the engine.
  const auto recover = [&](std::uint64_t digest, bool after_crash,
                           const char* what) {
    for (std::size_t r = 0; r < kRecoveryRepeats; ++r) {
      const bool replace = after_crash && r == 0;
      if (!replace && rss_mb == 0.0) rss_mb = peak_rss_mb();
      recoveries.push_back(service->recover(config, pool_ptr, replace));
      const Service::Recovery& recovery = recoveries.back();
      report.check(recovery.found && recovery.digest == digest &&
                       (replace || recovery.wal_bytes_truncated == 0),
                   what);
    }
  };
  std::size_t restarts = 0;

  Accounts accounts;
  SpanRecorder spans;
  std::vector<double> latencies;            // every measured tick, seconds
  std::vector<double> untraced_rounds;      // round latency sums, seconds
  std::vector<double> traced_rounds;
  std::vector<double> round_rates;          // plans per second, per round
  std::uint64_t round_start_plans = 0;
  std::uint64_t plans = 0;
  std::uint64_t request_bytes = 0;
  std::uint64_t request_samples = 0;
  std::uint64_t measured_checkpoint_bytes = 0;
  std::uint64_t prefix_digest = 0;

  std::uint64_t tick = warmup;
  const auto measure_start = Clock::now();
  for (std::size_t round = 0;; ++round) {
    const bool traced_round = options.trace && round % 2 == 1;
    double round_s = 0.0;
    for (std::size_t step = 0; step < kPoints; ++step, ++tick) {
      client.build(tick, requests);
      const auto expected = client.expected(tick);
      const bool checkpoint = shape.durable || tick % kPoints == kPoints - 1;

      if (shape.durable && !crashed && tick >= crash_after &&
          service->step_after_next_is_snapshot()) {
        // The tick runs to the middle of its WAL append, then the process
        // dies: the tick never returned, so nothing it did is acknowledged
        // and the client will send it again.
        const std::uint64_t digest_before = service->engine().output_digest();
        service->tick(requests, true, crashed_events);
        digest_after_crashed_tick = service->engine().output_digest();
        service->crash_tearing_last_record();
        const std::size_t first = recoveries.size();
        recover(digest_before, true,
                "recovered digest differs from the digest before the crash");
        wal_bytes_truncated = recoveries[first].wal_bytes_truncated;
        report.check(wal_bytes_truncated > 0,
                     "recovery did not truncate the torn WAL record");
        crashed = true;
        crash_tick = tick;
      }

      const std::uint64_t durable_before = service->durable_bytes();
      const double latency =
          traced_round ? service->tick_traced(requests, checkpoint,
                                              events_bytes, spans, tick)
                       : service->tick(requests, checkpoint, events_bytes);
      if (crashed && tick == crash_tick) {
        report.check(events_bytes == crashed_events &&
                         service->engine().output_digest() ==
                             digest_after_crashed_tick,
                     "the retried tick after recovery differs from the "
                     "crashed one");
      }
      latencies.push_back(latency);
      round_s += latency;
      measured_checkpoint_bytes += service->durable_bytes() - durable_before;
      request_bytes += requests.size();
      const std::vector<fleet::IntervalEvent> events =
          decode_events(events_bytes);
      request_samples += shape.tenants;
      plans += events.size();
      accounts.add(expected, events, tick < warmup + kQualityTicks, report);
      if (side) side->feed(requests, events, true, report);
      if (tick == warmup + kPrefixCheckTicks - 1)
        prefix_digest = service->engine().output_digest();
    }
    (traced_round ? traced_rounds : untraced_rounds).push_back(round_s);
    if (!traced_round)
      round_rates.push_back(static_cast<double>(plans - round_start_plans) /
                            round_s);
    round_start_plans = plans;
    const double elapsed = seconds_between(measure_start, Clock::now());
    // A restart of the persist side at each quarter of the run, with the
    // WAL at its longest (the shape every recovery point reads back).
    if (restarts < kRestarts &&
        elapsed >= options.seconds * static_cast<double>(restarts + 1) /
                       static_cast<double>(kRestarts + 1) &&
        service->next_step_is_snapshot()) {
      recover(service->engine().output_digest(), false,
              "state recovered after a restart differs from the live engine");
      ++restarts;
    }
    const bool done = elapsed >= options.seconds;
    // Runs cover at least the quality window (which also covers the prefix
    // check and both kinds of traced round) and every recovery point.
    // fleet_steady stops with the WAL at its longest, the state the
    // end-of-run recovery reads back.
    const bool state_ready = (!shape.durable || crashed) &&
                             restarts == kRestarts &&
                             service->next_step_is_snapshot();
    if (done && state_ready && tick >= warmup + kQualityTicks) break;
  }
  const std::uint64_t end_tick = tick;

  // --- After the run: recovery from the final checkpoint (fleet_steady;
  // fleet_durable recovered mid-run), and the serial-vs-pooled digest.
  // Engine counters are the live engine's: on fleet_durable, the one
  // recovered from the crash, which counts afresh from there.
  const fleet::FleetStats stats = service->engine().stats();
  if (side && side->shadow)
    report.check(side->shadow->output_digest() ==
                     service->engine().output_digest(),
                 "serial and pooled engines reached different digests");
  if (!shape.durable)
    recover(service->engine().output_digest(), false,
            "state recovered after a clean stop differs from the live engine");
  if (!prefix_checkpoint.empty()) {
    service->close();
    fleet::FleetEngine serial(config);
    serial.restore_checkpoint(prefix_checkpoint);
    for (std::uint64_t t = warmup; t < warmup + kPrefixCheckTicks; ++t) {
      client.build(t, requests);
      serial.apply_wire(requests, events_bytes);
    }
    report.check(serial.output_digest() == prefix_digest,
                 "serial and pooled engines reached different digests");
  }

  report.attempted = accounts.attempted;
  report.failed = accounts.failed;
  report.not_converged = accounts.not_converged;
  const Tail tail = tail_of(latencies);
  report.info["tick_latency_tail_percentile"] =
      std::to_string(tail.percentile);
  report.info["tick_latency_tail_samples"] = std::to_string(tail.count);
  report.info["measured_ticks"] = std::to_string(end_tick - warmup);
  report.info["plans"] = std::to_string(plans);
  report.info["fallback_share"] = std::to_string(
      1.0 - static_cast<double>(accounts.fallbacks[static_cast<std::size_t>(
                FallbackReason::kNone)]) /
                static_cast<double>(std::max<std::uint64_t>(accounts.attempted, 1)));
  for (std::size_t r = 0; r < smoother::resilience::kFallbackReasonCount; ++r)
    report.info["fallback." + smoother::resilience::to_string(
                                  static_cast<FallbackReason>(r))] =
        std::to_string(accounts.fallbacks[r]);

  std::vector<double> recovery_s;
  std::vector<double> recover_ms;
  std::vector<double> restore_ms;
  for (const Service::Recovery& recovery : recoveries) {
    recovery_s.push_back(recovery.recover_s + recovery.restore_s);
    recover_ms.push_back(recovery.recover_s * 1e3);
    restore_ms.push_back(recovery.restore_s * 1e3);
  }

  if (!options.trace) {
    report.set("plans_per_s", median(round_rates), "1/s");
    report.set("tick_latency_p50_ms", median(latencies) * 1e3, "ms");
    report.set("tick_latency_tail_ms", tail.value * 1e3, "ms");
    report.set("round_s", median(untraced_rounds), "s");
    report.set("recovery_s", median(recovery_s), "s");
    report.set("setup_s", median(setup_s), "s");
    report.set("peak_rss_mb", rss_mb, "MB");
    report.set("variance_ratio",
               accounts.variance_after / accounts.variance_before, "ratio");
    report.set("ok_share",
               1.0 - static_cast<double>(accounts.failed +
                                         accounts.not_converged) /
                         static_cast<double>(std::max<std::uint64_t>(
                             accounts.attempted, 1)),
               "share");
    return report;
  }

  // --- Per-layer metrics (traced run).
  const std::map<std::string, SpanTotals> totals = totals_by_name(spans);
  const auto total = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanTotals{} : it->second;
  };
  const auto per_item = [](const SpanTotals& t, double scale) {
    return t.items == 0 ? 0.0 : t.ms * scale / static_cast<double>(t.items);
  };
  std::vector<double> submit_boundary;
  std::vector<double> submit_between;
  std::vector<double> checkpoint_ms;
  std::vector<double> append_ms;
  std::vector<double> snapshot_ms;
  double tick_ms = 0.0;
  double child_ms = 0.0;
  for (const SpanRecorder::Span& span : spans.spans()) {
    const double ms = spans.duration_ms(span);
    const std::string name = span.name;
    if (name == "tick") tick_ms += ms;
    else child_ms += ms;
    if (name == "fleet.submit")
      (span.items > 0 ? submit_boundary : submit_between).push_back(ms);
    else if (name == "persist.checkpoint_encode") checkpoint_ms.push_back(ms);
    else if (name == "persist.append") append_ms.push_back(ms);
    else if (name == "persist.snapshot") snapshot_ms.push_back(ms);
  }
  const CoreReplay::Totals& core = side->replay.totals();
  const smoother::obs::MetricsSnapshot solver_counters =
      side->registry.snapshot();
  const auto counter = [&](const char* name) -> std::uint64_t {
    const auto it = solver_counters.counters.find(name);
    return it == solver_counters.counters.end() ? 0 : it->second;
  };

  report.set("wire.decode_ns_per_frame", per_item(total("wire.decode"), 1e6), "ns");
  report.set("wire.encode_ns_per_event", per_item(total("wire.encode"), 1e6), "ns");
  report.set("wire.request_bytes_per_sample",
             static_cast<double>(request_bytes) /
                 static_cast<double>(request_samples),
             "bytes");
  report.set("fleet.submit_ms_boundary", median(submit_boundary), "ms");
  report.set("fleet.submit_ms_between", median(submit_between), "ms");
  report.set("fleet.batch_occupancy",
             stats.batched_solves == 0
                 ? 0.0
                 : static_cast<double>(stats.batched_lanes) /
                       static_cast<double>(stats.batched_solves),
             "lanes");
  report.set("fleet.kkt_setups", static_cast<double>(stats.batched_factorizations),
             "count");
  report.set("fleet.shard_imbalance",
             static_cast<double>(stats.max_shard_tenants - stats.min_shard_tenants),
             "tenants");
  report.set("fleet.arena_bytes", static_cast<double>(stats.arena_bytes), "bytes");

  const auto ratio = [](double num, std::uint64_t den, double scale) {
    return den == 0 ? 0.0 : num * scale / static_cast<double>(den);
  };
  report.set("core.push_ns_per_sample", ratio(core.push_ns, core.pushes, 1.0), "ns");
  report.set("core.prepare_us_per_plan", ratio(core.prepare_ns, core.prepares, 1e-3), "us");
  report.set("core.commit_us_per_plan", ratio(core.commit_ns, core.commits, 1e-3), "us");
  report.set("core.smoothed_share",
             ratio(static_cast<double>(core.smoothed), core.commits, 1.0), "share");
  for (std::size_t r = 0; r < smoother::resilience::kFallbackReasonCount; ++r)
    report.set("core.fallback." + smoother::resilience::to_string(
                                      static_cast<FallbackReason>(r)),
               static_cast<double>(core.fallbacks[r]), "count");

  report.set("solver.batch_solve_us_per_lane",
             ratio(core.batch_solve_ns, core.lanes, 1e-3), "us");
  report_iterations(core.lane_iterations, report);
  report.set("solver.not_converged",
             static_cast<double>(counter("solver.qp.not_converged")), "count");
  report.check(counter("solver.qp.batched_lanes") >= core.lanes,
               "solver.qp counters missed batched lanes");
  report.check(core.lane_not_converged <= counter("solver.qp.not_converged"),
               "solver.qp.not_converged missed a lane");

  report.set("persist.checkpoint_encode_ms", median(checkpoint_ms), "ms");
  report.set("persist.append_ms", median(append_ms), "ms");
  report.set("persist.snapshot_ms", median(snapshot_ms), "ms");
  report.set("persist.recover_ms", median(recover_ms), "ms");
  report.set("persist.restore_ms", median(restore_ms), "ms");
  report.set("persist.bytes_per_plan",
             static_cast<double>(measured_checkpoint_bytes) /
                 static_cast<double>(std::max<std::uint64_t>(plans, 1)),
             "bytes");
  report.set("persist.wal_bytes_truncated",
             static_cast<double>(wal_bytes_truncated),
             "bytes");

  report.set("runtime.workers",
             pool ? static_cast<double>(pool->worker_count()) : 1.0, "count");
  if (side->shadow)
    report.set("runtime.speedup",
               median(side->shadow_submit_boundary_ms) / median(submit_boundary),
               "x");

  report.set("trace.unattributed_share",
             tick_ms > 0.0 ? (tick_ms - child_ms) / tick_ms : 0.0, "share");
  report.check(report.metrics["trace.unattributed_share"].value < kMaxUnattributed,
               "stage spans leave 5% or more of the wall time unattributed");
  report.set("trace.overhead_share",
             median(traced_rounds) / median(untraced_rounds) - 1.0, "share");
  report.info["traced_rounds"] = std::to_string(traced_rounds.size());
  report.info["untraced_rounds"] = std::to_string(untraced_rounds.size());
  spans.write_jsonl(options.state_dir + "/" + shape.name + ".spans.jsonl");
  report.info["spans_file"] = options.state_dir + "/" + shape.name + ".spans.jsonl";
  return report;
}

}  // namespace

Report run_fleet_steady(const Options& options) {
  return run_fleet(kSteady, options);
}

Report run_fleet_durable(const Options& options) {
  return run_fleet(kDurable, options);
}

}  // namespace perfbench
