#include "support/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <mutex>
#include <ostream>

#include "support/assert.hpp"

namespace cfpm::metrics {

namespace {

// Fixed capacities: registration past these limits is a contract violation
// (the metric inventory is a compile-time property of the codebase, not
// data-dependent), and fixed arrays keep the cells allocation-free.
constexpr std::size_t kMaxCounters = 192;
constexpr std::size_t kMaxGauges = 64;
constexpr std::size_t kMaxHistograms = 48;

struct HistogramCells {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum{0};
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
};

/// The process-wide registry: one relaxed-atomic cell per metric, so every
/// record lands in the same cell whichever thread makes it. The mutex
/// guards the name lists only.
struct Registry {
  std::mutex mutex;
  std::vector<std::string> counter_names;
  std::vector<std::string> gauge_names;
  std::vector<std::string> histogram_names;
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
  std::array<HistogramCells, kMaxHistograms> histograms{};
  std::array<std::atomic<std::uint64_t>, kMaxGauges> gauge_bits{};

  std::uint32_t intern(std::string_view name, std::vector<std::string>& names,
                       std::size_t cap) {
    std::lock_guard lock(mutex);
    for (std::uint32_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) return i;
    }
    CFPM_REQUIRE(names.size() < cap);  // metric inventory exceeds capacity
    names.emplace_back(name);
    return static_cast<std::uint32_t>(names.size() - 1);
  }
};

/// Intentionally leaked (never destroyed), so a metric recorded from a
/// static destructor or by a thread still running at exit (a DdManager
/// publishes its counts when it is destroyed) never touches a destroyed
/// registry.
Registry& registry() {
  static Registry* r = new Registry();
  return *r;
}

std::size_t bucket_index(std::uint64_t value) noexcept {
  if (value == 0) return 0;
  const std::size_t w = static_cast<std::size_t>(std::bit_width(value));
  return w < kHistogramBuckets ? w : kHistogramBuckets - 1;
}

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Counter::Counter(std::string_view name)
    : id_(registry().intern(name, registry().counter_names, kMaxCounters)) {}

void Counter::add(std::uint64_t n) const noexcept {
  registry().counters[id_].fetch_add(n, std::memory_order_relaxed);
}

Gauge::Gauge(std::string_view name)
    : id_(registry().intern(name, registry().gauge_names, kMaxGauges)) {}

void Gauge::set(double value) const noexcept {
  registry().gauge_bits[id_].store(std::bit_cast<std::uint64_t>(value),
                                   std::memory_order_relaxed);
}

Histogram::Histogram(std::string_view name)
    : id_(registry().intern(name, registry().histogram_names,
                            kMaxHistograms)) {}

void Histogram::observe(std::uint64_t value) const noexcept {
  HistogramCells& cells = registry().histograms[id_];
  cells.count.fetch_add(1, std::memory_order_relaxed);
  cells.sum.fetch_add(value, std::memory_order_relaxed);
  cells.buckets[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
}

ScopedTimer::ScopedTimer(const Histogram& histogram) noexcept
    : histogram_(histogram), start_ns_(now_ns()) {}

ScopedTimer::~ScopedTimer() {
  histogram_.observe((now_ns() - start_ns_) / 1000);  // microseconds
}

Snapshot snapshot() {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  Snapshot snap;
  for (std::size_t i = 0; i < r.counter_names.size(); ++i) {
    snap.counters.push_back(
        {r.counter_names[i], r.counters[i].load(std::memory_order_relaxed)});
  }
  for (std::size_t i = 0; i < r.gauge_names.size(); ++i) {
    snap.gauges.push_back(
        {r.gauge_names[i], std::bit_cast<double>(r.gauge_bits[i].load(
                               std::memory_order_relaxed))});
  }
  for (std::size_t i = 0; i < r.histogram_names.size(); ++i) {
    Snapshot::HistogramValue h;
    h.name = r.histogram_names[i];
    const HistogramCells& cells = r.histograms[i];
    h.count = cells.count.load(std::memory_order_relaxed);
    h.sum = cells.sum.load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      h.buckets[b] = cells.buckets[b].load(std::memory_order_relaxed);
    }
    snap.histograms.push_back(std::move(h));
  }

  auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

void reset_for_testing() {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  for (auto& c : r.counters) c.store(0, std::memory_order_relaxed);
  for (auto& h : r.histograms) {
    h.count.store(0, std::memory_order_relaxed);
    h.sum.store(0, std::memory_order_relaxed);
    for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
  }
  for (auto& g : r.gauge_bits) g.store(0, std::memory_order_relaxed);
}

std::uint64_t Snapshot::counter(std::string_view name) const {
  for (const CounterValue& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

const Snapshot::HistogramValue* Snapshot::histogram(
    std::string_view name) const {
  for (const HistogramValue& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

namespace {

void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

}  // namespace

void Snapshot::write_json(std::ostream& os) const {
  os << "{\n  \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    os << (i ? ",\n    " : "\n    ");
    write_json_string(os, counters[i].name);
    os << ": " << counters[i].value;
  }
  os << (counters.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    os << (i ? ",\n    " : "\n    ");
    write_json_string(os, gauges[i].name);
    os << ": " << gauges[i].value;
  }
  os << (gauges.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramValue& h = histograms[i];
    os << (i ? ",\n    " : "\n    ");
    write_json_string(os, h.name);
    os << ": {\"count\": " << h.count << ", \"sum\": " << h.sum
       << ", \"buckets\": {";
    bool first = true;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      if (!first) os << ", ";
      first = false;
      os << '"' << b << "\": " << h.buckets[b];
    }
    os << "}}";
  }
  os << (histograms.empty() ? "" : "\n  ") << "}\n}\n";
}

}  // namespace cfpm::metrics
