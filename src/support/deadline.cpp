#include "support/deadline.hpp"

#include "support/error.hpp"
#include "support/metrics.hpp"

namespace cfpm {

Deadline deadline_after(std::optional<std::size_t> ms) {
  if (!ms) return std::nullopt;
  using Clock = std::chrono::steady_clock;
  const Clock::time_point now = Clock::now();
  const auto headroom =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          Clock::time_point::max() - now);
  if (*ms >= static_cast<std::size_t>(headroom.count())) {
    return Clock::time_point::max();
  }
  return now + std::chrono::milliseconds(*ms);
}

void check_deadline(const Deadline& deadline) {
  if (!deadline) return;
  static const metrics::Counter c_check("deadline.check.run");
  static const metrics::Counter c_expired("deadline.expired");
  c_check.add();
  if (std::chrono::steady_clock::now() >= *deadline) {
    c_expired.add();
    throw DeadlineExceeded("construction deadline exceeded");
  }
}

}  // namespace cfpm
