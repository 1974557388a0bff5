// Process-wide metrics registry: monotonic counters, gauges, and log2-bucket
// histograms, designed for instrumentation of hot paths.
//
// Design constraints (see DESIGN.md §10):
//  * No allocation on the hot path. Registration (constructing a Counter /
//    Gauge / Histogram handle) interns the name once under a mutex;
//    increments touch only a per-thread shard slot.
//  * Thread-safe by sharding: every thread owns a shard of plain relaxed
//    atomics; snapshot() merges live shards plus the folded totals of
//    exited threads. Counts are therefore exact (nothing is sampled or
//    dropped), only the instant of visibility is relaxed.
//  * Metering is per call, not per inner-loop step; the three per-operation
//    DD-core counters named in DESIGN.md §10 are the known exceptions.
//
// Metric names follow `subsystem.noun.verb` (e.g. "dd.cache.hit",
// "power.build.rung") and must be string literals or otherwise outlive the
// process; handles are cheap and typically function-local statics:
//
//   static const metrics::Counter c_hit("dd.cache.hit");
//   c_hit.add();
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace cfpm::metrics {

/// Histogram bucket count. Bucket 0 holds zero-valued observations; bucket
/// k >= 1 holds values v with bit_width(v) == k, i.e. [2^(k-1), 2^k - 1],
/// clamped into the last bucket.
inline constexpr std::size_t kHistogramBuckets = 64;

/// A merged, immutable view of every registered metric. Entries are sorted
/// by name, so two snapshots taken with no intervening activity compare
/// equal field-for-field (snapshot determinism).
struct Snapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
  };
  struct HistogramValue {
    std::string name;
    std::uint64_t count = 0;  ///< total observations
    std::uint64_t sum = 0;    ///< sum of observed values
    std::array<std::uint64_t, kHistogramBuckets> buckets{};
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  /// Value of a counter by name; 0 when it was never registered.
  std::uint64_t counter(std::string_view name) const;
  /// Histogram by name; nullptr when it was never registered.
  const HistogramValue* histogram(std::string_view name) const;

  /// Serializes the snapshot as a single JSON object with "counters",
  /// "gauges" and "histograms" members (histogram buckets are emitted
  /// sparsely as {"<bucket-index>": count}).
  void write_json(std::ostream& os) const;
};

/// Monotonically increasing counter.
class Counter {
 public:
  explicit Counter(std::string_view name);
  void add(std::uint64_t n = 1) const noexcept;

 private:
  std::uint32_t id_;
};

/// Last-write-wins instantaneous value (table occupancy, live nodes, ...).
class Gauge {
 public:
  explicit Gauge(std::string_view name);
  void set(double value) const noexcept;

 private:
  std::uint32_t id_;
};

/// Fixed log2-bucket histogram of non-negative integer observations.
class Histogram {
 public:
  explicit Histogram(std::string_view name);
  void observe(std::uint64_t value) const noexcept;

 private:
  std::uint32_t id_;
};

/// RAII timer recording its scope's wall-clock duration, in microseconds,
/// into a histogram on destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(const Histogram& histogram) noexcept;
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  const Histogram& histogram_;
  std::uint64_t start_ns_;
};

/// Merges every shard (live threads and folded exited ones) into a sorted,
/// deterministic snapshot of all metrics registered so far.
Snapshot snapshot();

/// Zeroes every counter, gauge and histogram (registrations are kept).
/// Intended for tests that assert exact counts from a clean slate; racing
/// writers on other threads are zeroed too, not unregistered.
void reset_for_testing();

}  // namespace cfpm::metrics
