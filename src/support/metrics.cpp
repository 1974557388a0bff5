#include "support/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <mutex>
#include <ostream>

#include "support/assert.hpp"

namespace cfpm::metrics {

namespace {

// Fixed capacities: registration past these limits is a contract violation
// (the metric inventory is a compile-time property of the codebase, not
// data-dependent), and fixed arrays keep shards POD and allocation-free.
constexpr std::size_t kMaxCounters = 192;
constexpr std::size_t kMaxGauges = 64;
constexpr std::size_t kMaxHistograms = 48;

struct HistogramCells {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum{0};
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
};

/// One thread's slice of every metric. All cells are relaxed atomics: the
/// owning thread is the only writer, but snapshot() reads them from another
/// thread, so plain loads would be data races.
struct Shard {
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
  std::array<HistogramCells, kMaxHistograms> histograms{};

  void fold_into(Shard& dst) const noexcept {
    for (std::size_t i = 0; i < kMaxCounters; ++i) {
      const std::uint64_t v = counters[i].load(std::memory_order_relaxed);
      if (v != 0) dst.counters[i].fetch_add(v, std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < kMaxHistograms; ++i) {
      const HistogramCells& src = histograms[i];
      HistogramCells& d = dst.histograms[i];
      const std::uint64_t c = src.count.load(std::memory_order_relaxed);
      if (c == 0) continue;
      d.count.fetch_add(c, std::memory_order_relaxed);
      d.sum.fetch_add(src.sum.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        const std::uint64_t bv = src.buckets[b].load(std::memory_order_relaxed);
        if (bv != 0) d.buckets[b].fetch_add(bv, std::memory_order_relaxed);
      }
    }
  }

  void zero() noexcept {
    for (auto& c : counters) c.store(0, std::memory_order_relaxed);
    for (auto& h : histograms) {
      h.count.store(0, std::memory_order_relaxed);
      h.sum.store(0, std::memory_order_relaxed);
      for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
    }
  }
};

/// The process-wide registry. Intentionally leaked (never destroyed): shard
/// folding runs from thread_local destructors whose order relative to static
/// destruction is unknowable, so the registry must outlive everything.
class Registry {
 public:
  static Registry& instance() {
    static Registry* r = new Registry();  // leaked by design
    return *r;
  }

  std::uint32_t intern(std::string_view name, std::vector<std::string>& names,
                       std::size_t cap) {
    std::lock_guard lock(mutex_);
    for (std::uint32_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) return i;
    }
    CFPM_REQUIRE(names.size() < cap);  // metric inventory exceeds capacity
    names.emplace_back(name);
    return static_cast<std::uint32_t>(names.size() - 1);
  }

  std::uint32_t intern_counter(std::string_view name) {
    return intern(name, counter_names_, kMaxCounters);
  }
  std::uint32_t intern_gauge(std::string_view name) {
    return intern(name, gauge_names_, kMaxGauges);
  }
  std::uint32_t intern_histogram(std::string_view name) {
    return intern(name, histogram_names_, kMaxHistograms);
  }

  void attach(Shard* shard) {
    std::lock_guard lock(mutex_);
    live_shards_.push_back(shard);
  }

  /// Folds a departing thread's totals into the retired accumulator and
  /// drops the shard pointer (the Shard itself is owned by the caller and
  /// about to be destroyed).
  void detach(Shard* shard) {
    std::lock_guard lock(mutex_);
    shard->fold_into(retired_);
    live_shards_.erase(
        std::remove(live_shards_.begin(), live_shards_.end(), shard),
        live_shards_.end());
  }

  void set_gauge(std::uint32_t id, double value) noexcept {
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    gauge_bits_[id].store(bits, std::memory_order_relaxed);
  }

  Snapshot snapshot() {
    std::lock_guard lock(mutex_);
    Shard merged;
    retired_.fold_into(merged);
    for (const Shard* s : live_shards_) s->fold_into(merged);

    Snapshot snap;
    snap.counters.reserve(counter_names_.size());
    for (std::size_t i = 0; i < counter_names_.size(); ++i) {
      snap.counters.push_back(
          {counter_names_[i],
           merged.counters[i].load(std::memory_order_relaxed)});
    }
    for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
      const std::uint64_t bits = gauge_bits_[i].load(std::memory_order_relaxed);
      double value;
      std::memcpy(&value, &bits, sizeof(value));
      snap.gauges.push_back({gauge_names_[i], value});
    }
    for (std::size_t i = 0; i < histogram_names_.size(); ++i) {
      Snapshot::HistogramValue h;
      h.name = histogram_names_[i];
      const HistogramCells& cells = merged.histograms[i];
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

  void reset() {
    std::lock_guard lock(mutex_);
    retired_.zero();
    for (Shard* s : live_shards_) s->zero();
    for (auto& g : gauge_bits_) g.store(0, std::memory_order_relaxed);
  }

 private:
  Registry() = default;

  mutable std::mutex mutex_;
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<std::string> histogram_names_;
  std::vector<Shard*> live_shards_;
  Shard retired_;
  std::array<std::atomic<std::uint64_t>, kMaxGauges> gauge_bits_{};
};

/// Owns the calling thread's shard; registers on construction and folds the
/// shard into the registry's retired accumulator on thread exit.
struct ShardHandle {
  Shard shard;
  ShardHandle() { Registry::instance().attach(&shard); }
  ~ShardHandle() { Registry::instance().detach(&shard); }
};

Shard& local_shard() {
  thread_local ShardHandle handle;
  return handle.shard;
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
    : id_(Registry::instance().intern_counter(name)) {}

void Counter::add(std::uint64_t n) const noexcept {
  local_shard().counters[id_].fetch_add(n, std::memory_order_relaxed);
}

Gauge::Gauge(std::string_view name)
    : id_(Registry::instance().intern_gauge(name)) {}

void Gauge::set(double value) const noexcept {
  Registry::instance().set_gauge(id_, value);
}

Histogram::Histogram(std::string_view name)
    : id_(Registry::instance().intern_histogram(name)) {}

void Histogram::observe(std::uint64_t value) const noexcept {
  HistogramCells& cells = local_shard().histograms[id_];
  cells.count.fetch_add(1, std::memory_order_relaxed);
  cells.sum.fetch_add(value, std::memory_order_relaxed);
  cells.buckets[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
}

ScopedTimer::ScopedTimer(const Histogram& histogram) noexcept
    : histogram_(histogram), start_ns_(now_ns()) {}

ScopedTimer::~ScopedTimer() {
  histogram_.observe((now_ns() - start_ns_) / 1000);  // microseconds
}

Snapshot snapshot() { return Registry::instance().snapshot(); }

void reset_for_testing() { Registry::instance().reset(); }

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
