// Named failpoint registry for fault injection.
//
// A failpoint is a named hook compiled into a failure-prone code path:
//
//   CFPM_FAILPOINT("dd.serialize.write");
//
// In production the hook is a single relaxed atomic load (nothing armed).
// Tests, the fuzz campaign (`cfpm fuzz --faults`) and operators arm
// failpoints by name with an action and a fire budget; the next `count`
// executions of the hook then perform the action (throw a typed exception,
// sleep, fail I/O). This is how the recovery machinery — the deadline
// fallback (power/add_model), the thread-pool spawn degradation, crash-safe
// writes (support/io) — is exercised deterministically instead of waiting
// for a full disk or OOM in the wild.
//
// Activation surfaces:
//  * CLI:  `cfpm ... --failpoints <spec>` — a malformed spec is a usage
//          error.
//  * code: arm()/arm_from_spec()/disarm()/disarm_all() below.
//
// Spec grammar (count omitted = 1; count 0 = fire on every hit):
//   spec   := entry (',' entry)*
//   entry  := name '=' action [':' count]
//   action := throw_bad_alloc | throw_deadline | fail_io | delay_ms(N)
//
// Every fire (a hit that performs its action) adds one to the
// `failpoint.fired` counter; hits on unarmed or spent names do not count.
//
// Thread safety: arm/disarm/hit may race freely; the registry is guarded by
// a mutex on the slow path only. A hit on an unarmed process never takes
// the lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cfpm::failpoint {

enum class Action : std::uint8_t {
  kThrowBadAlloc,  ///< throw std::bad_alloc
  kThrowDeadline,  ///< throw cfpm::DeadlineExceeded
  kDelayMs,        ///< sleep for the armed number of milliseconds
  kFailIo,         ///< throw cfpm::IoError
};

/// Count value meaning "fire on every hit until disarmed".
inline constexpr std::uint64_t kForever = 0;

/// One armed failpoint, as reported by armed().
struct Status {
  std::string name;
  Action action = Action::kThrowBadAlloc;
  std::uint32_t delay_ms = 0;   ///< kDelayMs only
  std::uint64_t remaining = 0;  ///< fires left; kForever = unbounded
};

/// Arms `name` to perform `action` on its next `count` hits (kForever =
/// every hit until disarmed). Re-arming an already-armed name replaces it.
void arm(const std::string& name, Action action, std::uint64_t count = 1,
         std::uint32_t delay_ms = 0);

/// Parses and arms a full spec ("a=throw_bad_alloc:2,b=delay_ms(5)").
/// Throws cfpm::Error naming the offending entry; on throw, nothing from
/// the spec has been armed.
void arm_from_spec(std::string_view spec);

/// Parses a spec without arming anything. Same errors as arm_from_spec.
void validate_spec(std::string_view spec);

/// Disarms `name` if armed; no-op otherwise.
void disarm(const std::string& name);

/// Disarms everything.
void disarm_all();

/// Currently armed failpoints, sorted by name.
std::vector<Status> armed();

namespace detail {

// Number of currently armed entries; the hit() fast path is a relaxed load
// of this counter, so an unarmed process pays one uncontended atomic read
// per hook and never locks.
extern std::atomic<int> g_armed_count;

void hit_slow(std::string_view name);

}  // namespace detail

/// Hook body: cheap check, then the locked lookup only when something is
/// armed. Prefer the CFPM_FAILPOINT macro at call sites.
inline void hit(std::string_view name) {
  if (detail::g_armed_count.load(std::memory_order_relaxed) > 0) {
    detail::hit_slow(name);
  }
}

}  // namespace cfpm::failpoint

/// Marks a failure-prone site. `name` must be a string literal following
/// `subsystem.noun[.verb]` (e.g. "dd.allocate_node", "dd.serialize.write").
#define CFPM_FAILPOINT(name) ::cfpm::failpoint::hit(name)
