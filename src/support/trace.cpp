#include "support/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <ostream>
#include <vector>

namespace cfpm::trace {
namespace {

struct Event {
  const char* name;
  unsigned long long start_ns;
  unsigned long long dur_ns;
};

struct ThreadBuffer {
  std::vector<Event> events;
  int tid;
};

/// Trace recorder: same lifetime discipline as the metrics registry -- a
/// leaked singleton, because thread_local buffer destructors may run after
/// static destruction would have torn a normal singleton down.
class Recorder {
 public:
  static Recorder& instance() {
    static Recorder* r = new Recorder();  // leaked by design
    return *r;
  }

  std::atomic<bool> enabled{false};

  ThreadBuffer* attach() {
    std::lock_guard lock(mutex_);
    auto buf = new ThreadBuffer();
    buf->tid = next_tid_++;
    live_.push_back(buf);
    return buf;
  }

  void detach(ThreadBuffer* buf) {
    std::lock_guard lock(mutex_);
    if (!buf->events.empty()) {
      retired_.push_back(std::move(*buf));
    }
    live_.erase(std::remove(live_.begin(), live_.end(), buf), live_.end());
    delete buf;
  }

  void clear() {
    std::lock_guard lock(mutex_);
    retired_.clear();
    for (ThreadBuffer* b : live_) b->events.clear();
  }

  void write(std::ostream& os) {
    std::lock_guard lock(mutex_);
    os << "{\"traceEvents\": [";
    bool first = true;
    auto emit = [&](const ThreadBuffer& buf) {
      for (const Event& e : buf.events) {
        if (!first) os << ",";
        first = false;
        os << "\n  {\"name\": \"" << e.name
           << "\", \"cat\": \"cfpm\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
           << buf.tid << ", \"ts\": " << e.start_ns / 1000
           << ", \"dur\": " << e.dur_ns / 1000 << "}";
      }
    };
    for (const ThreadBuffer& b : retired_) emit(b);
    for (const ThreadBuffer* b : live_) emit(*b);
    os << "\n]}\n";
  }

 private:
  Recorder() = default;

  std::mutex mutex_;
  std::vector<ThreadBuffer*> live_;
  std::vector<ThreadBuffer> retired_;
  int next_tid_ = 1;
};

struct BufferHandle {
  ThreadBuffer* buffer;
  BufferHandle() : buffer(Recorder::instance().attach()) {}
  ~BufferHandle() { Recorder::instance().detach(buffer); }
};

ThreadBuffer& local_buffer() {
  thread_local BufferHandle handle;
  return *handle.buffer;
}

unsigned long long now_ns() noexcept {
  return static_cast<unsigned long long>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

bool enabled() noexcept {
  return Recorder::instance().enabled.load(std::memory_order_relaxed);
}

void set_enabled(bool on) noexcept {
  Recorder::instance().enabled.store(on, std::memory_order_relaxed);
}

void clear() { Recorder::instance().clear(); }

void write_chrome_json(std::ostream& os) { Recorder::instance().write(os); }

Span::Span(const char* name) noexcept
    : name_(enabled() ? name : nullptr), start_ns_(name_ ? now_ns() : 0) {}

Span::~Span() {
  if (!name_) return;
  const unsigned long long end = now_ns();
  local_buffer().events.push_back({name_, start_ns_, end - start_ns_});
}

}  // namespace cfpm::trace
