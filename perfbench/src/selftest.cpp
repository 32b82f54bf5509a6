// Self-tests of the benchmark's own helpers: the tail-percentile rule and
// the seeded inputs. Run with `perfbench --self-test` (perfbench/selftest.py
// runs it together with the whole-run seed tests).
#include <algorithm>
#include <cmath>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "bench.hpp"
#include "inputs.hpp"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::cout << "FAIL: " << what << "\n";
}

std::size_t beyond(const std::vector<double>& samples, double value) {
  return static_cast<std::size_t>(
      std::count_if(samples.begin(), samples.end(),
                    [value](double s) { return s > value; }));
}

void test_tail_rule() {
  struct Case {
    std::size_t n;
    double percentile;
  };
  // p99 needs 1000 samples (10 beyond), p99.9 needs 10000; p90 needs 100.
  for (const Case c : {Case{20, 50.0}, Case{99, 50.0}, Case{100, 90.0},
                       Case{999, 90.0}, Case{1000, 99.0}, Case{4321, 99.0},
                       Case{10000, 99.9}}) {
    std::vector<double> samples(c.n);
    std::iota(samples.begin(), samples.end(), 1.0);
    // Shuffle deterministically: the helper must not rely on input order.
    for (std::size_t i = 0; i < c.n; ++i)
      std::swap(samples[i], samples[mix(c.n, i) % c.n]);
    const Tail tail = tail_of(samples);
    const std::string n = "n=" + std::to_string(c.n);
    expect(tail.count == c.n, "tail reports its sample count, " + n);
    expect(tail.percentile == c.percentile,
           "tail is the highest ladder percentile with ten beyond, " + n);
    expect(beyond(samples, tail.value) >= kTailBeyond,
           "at least ten samples lie beyond the tail, " + n);
    expect(tail.value == std::ceil(c.percentile / 100.0 *
                                   static_cast<double>(c.n) - 1e-9),
           "tail is the nearest-rank value, " + n);
  }
  const Tail small = tail_of({3.0, 1.0, 2.0});
  expect(small.value == 3.0 && small.percentile == 100.0 && small.count == 3,
         "too few samples: the maximum, at p100");
  expect(tail_of({}).count == 0, "no samples: count 0");
  expect(median({5.0, 1.0, 3.0}) == 3.0 && median({4.0, 1.0, 3.0, 2.0}) == 2.5,
         "median of odd and even sample counts");
  expect(percentile({1.0, 2.0, 3.0, 4.0}, 50.0) == 2.0 &&
             percentile({1.0, 2.0, 3.0, 4.0}, 100.0) == 4.0,
         "nearest-rank percentile");
}

void test_inputs_come_from_the_seed() {
  const FleetInputs a(7, 40, true);
  const FleetInputs b(7, 40, true);
  const FleetInputs c(8, 40, true);
  expect(a.digest(600) == b.digest(600), "same seed, same fleet inputs");
  expect(a.digest(600) != c.digest(600), "another seed, other fleet inputs");
  std::size_t missing = 0;
  std::size_t spikes = 0;
  for (std::size_t t = 0; t < a.tenants(); ++t)
    for (std::uint64_t j = 0; j < 2000; ++j) {
      const auto request = a.sample(t, j);
      if (request.missing) ++missing;
      if (request.generation_kw > 3.0 * 800.0) ++spikes;
    }
  expect(missing > 0 && spikes > 0, "fleet_durable inputs carry outages and spikes");
  const FleetInputs clean(7, 40, false);
  std::size_t clean_faults = 0;
  for (std::size_t t = 0; t < clean.tenants(); ++t)
    for (std::uint64_t j = 0; j < 2000; ++j) {
      const auto request = clean.sample(t, j);
      if (request.missing || request.generation_kw > 800.0) ++clean_faults;
    }
  expect(clean_faults == 0, "fleet_steady inputs carry no outages or spikes");
  expect(paper_digest(make_paper_pass(7, 3)) ==
             paper_digest(make_paper_pass(7, 3)),
         "same seed, same paper scenarios");
  expect(paper_digest(make_paper_pass(7, 3)) !=
             paper_digest(make_paper_pass(8, 3)),
         "another seed, other paper scenarios");
  expect(paper_digest(make_paper_pass(7, 3)) !=
             paper_digest(make_paper_pass(7, 4)),
         "another pass, other paper scenarios");
}

}  // namespace

int run_self_test() {
  test_tail_rule();
  test_inputs_come_from_the_seed();
  std::cout << (failures == 0 ? "self-test passed" : "self-test FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
