#include "support/failpoint.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <new>
#include <thread>
#include <unordered_map>

#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/parse.hpp"

namespace cfpm::failpoint {

namespace detail {
std::atomic<int> g_armed_count{0};
}  // namespace detail

namespace {

struct Entry {
  Action action = Action::kThrowBadAlloc;
  std::uint32_t delay_ms = 0;
  std::uint64_t remaining = 0;  // kForever = unbounded
};

struct Registry {
  std::mutex mu;
  std::unordered_map<std::string, Entry> map;
};

// Leaked singleton: failpoints can fire from static destructors of other
// translation units, so the registry must never be torn down.
Registry& reg() {
  static auto* r = new Registry();
  return *r;
}

struct ParsedEntry {
  std::string name;
  Action action = Action::kThrowBadAlloc;
  std::uint64_t count = 1;
  std::uint32_t delay_ms = 0;
};

ParsedEntry parse_entry(std::string_view entry) {
  const auto eq = entry.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    throw Error("failpoint spec entry '" + std::string(entry) +
                "': expected name=action[:count]");
  }
  ParsedEntry out;
  out.name = std::string(entry.substr(0, eq));
  std::string_view rhs = entry.substr(eq + 1);
  if (const auto colon = rhs.rfind(':'); colon != std::string_view::npos &&
                                         rhs.find(')', colon) ==
                                             std::string_view::npos) {
    // A ':' after the action is a count — but not one inside "delay_ms(N)".
    const auto count = parse_number<std::uint64_t>(rhs.substr(colon + 1));
    if (!count) {
      throw Error("failpoint spec entry '" + std::string(entry) +
                  "': bad count '" + std::string(rhs.substr(colon + 1)) + "'");
    }
    out.count = *count;
    rhs = rhs.substr(0, colon);
  }
  if (rhs == "throw_bad_alloc") {
    out.action = Action::kThrowBadAlloc;
  } else if (rhs == "throw_deadline") {
    out.action = Action::kThrowDeadline;
  } else if (rhs == "fail_io") {
    out.action = Action::kFailIo;
  } else if (rhs.rfind("delay_ms(", 0) == 0 && rhs.back() == ')') {
    const auto ms = parse_number<std::uint32_t>(
        rhs.substr(9, rhs.size() - 10));
    if (!ms) {
      throw Error("failpoint spec entry '" + std::string(entry) +
                  "': bad delay_ms argument");
    }
    out.action = Action::kDelayMs;
    out.delay_ms = *ms;
  } else {
    throw Error("failpoint spec entry '" + std::string(entry) +
                "': unknown action '" + std::string(rhs) + "'");
  }
  return out;
}

std::vector<ParsedEntry> parse_spec(std::string_view spec) {
  std::vector<ParsedEntry> entries;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const auto comma = spec.find(',', pos);
    const auto end = comma == std::string_view::npos ? spec.size() : comma;
    const std::string_view entry = spec.substr(pos, end - pos);
    if (!entry.empty()) entries.push_back(parse_entry(entry));
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  if (entries.empty()) throw Error("empty failpoint spec");
  return entries;
}

}  // namespace

void arm(const std::string& name, Action action, std::uint64_t count,
         std::uint32_t delay_ms) {
  if (name.empty()) throw Error("failpoint name must be non-empty");
  Registry& r = reg();
  const std::lock_guard<std::mutex> lock(r.mu);
  const auto [it, inserted] =
      r.map.insert_or_assign(name, Entry{action, delay_ms, count});
  (void)it;
  if (inserted) {
    detail::g_armed_count.fetch_add(1, std::memory_order_relaxed);
  }
}

void arm_from_spec(std::string_view spec) {
  // Parse the whole spec first: a throw arms nothing.
  for (const ParsedEntry& e : parse_spec(spec)) {
    arm(e.name, e.action, e.count, e.delay_ms);
  }
}

void validate_spec(std::string_view spec) { (void)parse_spec(spec); }

void disarm(const std::string& name) {
  Registry& r = reg();
  const std::lock_guard<std::mutex> lock(r.mu);
  if (r.map.erase(name) > 0) {
    detail::g_armed_count.fetch_sub(1, std::memory_order_relaxed);
  }
}

void disarm_all() {
  Registry& r = reg();
  const std::lock_guard<std::mutex> lock(r.mu);
  detail::g_armed_count.fetch_sub(static_cast<int>(r.map.size()),
                                  std::memory_order_relaxed);
  r.map.clear();
}

std::vector<Status> armed() {
  Registry& r = reg();
  std::vector<Status> out;
  {
    const std::lock_guard<std::mutex> lock(r.mu);
    out.reserve(r.map.size());
    for (const auto& [name, e] : r.map) {
      out.push_back(Status{name, e.action, e.delay_ms, e.remaining});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Status& a, const Status& b) { return a.name < b.name; });
  return out;
}

namespace detail {

void hit_slow(std::string_view name) {
  static const metrics::Counter c_fired("failpoint.fired");
  Action action{};
  std::uint32_t delay_ms = 0;
  {
    Registry& r = reg();
    const std::lock_guard<std::mutex> lock(r.mu);
    const auto it = r.map.find(std::string(name));
    if (it == r.map.end()) return;
    Entry& e = it->second;
    action = e.action;
    delay_ms = e.delay_ms;
    if (e.remaining != kForever && --e.remaining == 0) {
      r.map.erase(it);
      g_armed_count.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  c_fired.add();
  switch (action) {
    case Action::kThrowBadAlloc:
      throw std::bad_alloc();
    case Action::kThrowDeadline:
      throw DeadlineExceeded("injected deadline at failpoint '" +
                             std::string(name) + "'");
    case Action::kFailIo:
      throw IoError("injected I/O failure at failpoint '" + std::string(name) +
                    "'");
    case Action::kDelayMs:
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      return;
  }
}

}  // namespace detail

}  // namespace cfpm::failpoint
