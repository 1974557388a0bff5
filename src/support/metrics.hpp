// Process-wide metrics registry: monotonic counters, gauges, and log2-bucket
// histograms.
//
// Design constraints (see DESIGN.md §10):
//  * No allocation on the recording path. Registration (constructing a
//    Counter / Gauge / Histogram handle) interns the name once under a
//    mutex; recording is a relaxed fetch-add on the metric's one
//    process-wide atomic cell.
//  * Counts are exact (nothing is sampled or dropped); only the instant of
//    visibility is relaxed.
//  * Metering is per call, never per inner-loop step. Code with a
//    per-operation count keeps it in a plain member and publishes the
//    unpublished part at its own safe points (the DD manager does so for
//    dd.node.alloc / dd.cache.hit / dd.cache.miss).
//
// Metric names follow `subsystem.noun.verb` (e.g. "dd.gc.run",
// "power.build.fallback") and must be string literals or otherwise outlive the
// process; handles are cheap and typically function-local statics:
//
//   static const metrics::Counter c_gc("dd.gc.run");
//   c_gc.add();
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

/// A sorted, deterministic snapshot of all metrics registered so far.
Snapshot snapshot();

/// Zeroes every counter, gauge and histogram (registrations are kept).
/// Intended for tests that assert exact counts from a clean slate; racing
/// writers on other threads are zeroed too, not unregistered.
void reset_for_testing();

}  // namespace cfpm::metrics
