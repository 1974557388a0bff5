// Build deadline: the wall-clock time point a symbolic construction must
// stop by.
//
// A Deadline is an immutable value, so it is copied freely into every
// dd::DdManager that should answer to it: the three builds of
// `cfpm accuracy`, or every macro of a chip, share one budget simply by
// holding the same time point. The workers call check_deadline() at
// natural safe points (every dd::kDeadlineCheckInterval node allocations,
// between whole level swaps, once per gate of the Fig. 6 loop); an expired
// deadline throws DeadlineExceeded from the worker's own stack, so the
// construction unwinds through exception-safe code instead of being killed.
#pragma once

#include <chrono>
#include <cstddef>
#include <optional>

namespace cfpm {

/// When a construction must stop; std::nullopt means no bound.
using Deadline = std::optional<std::chrono::steady_clock::time_point>;

/// The deadline `ms` milliseconds from now, or none when `ms` is empty. A
/// zero budget has already expired (a deterministic way to exercise the
/// expired path); a budget too large for the clock saturates.
Deadline deadline_after(std::optional<std::size_t> ms);

/// Throws DeadlineExceeded when `deadline` is set and has passed. Each check
/// of a set deadline counts in `deadline.check.run`, each expiry in
/// `deadline.expired`; an unset deadline is not counted.
void check_deadline(const Deadline& deadline);

}  // namespace cfpm
