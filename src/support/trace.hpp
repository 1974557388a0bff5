// Lightweight phase tracing: nested RAII spans collected per thread and
// emitted as Chrome trace_event JSON (load the file in chrome://tracing or
// https://ui.perfetto.dev).
//
// Tracing is off by default; a disabled Span costs one relaxed atomic load.
// Span names must be string literals (the recorder stores the pointer, not
// a copy). Spans nest lexically -- a span must be destroyed before any span
// opened earlier on the same thread (guaranteed by scoping) -- and the
// usual idiom is the macro form:
//
//   void DdManager::sift(...) {
//     CFPM_TRACE_SPAN("dd.sift");
//     ...
//   }
#pragma once

#include <iosfwd>

namespace cfpm::trace {

/// True when span recording is on.
bool enabled() noexcept;

/// Turns recording on or off. Spans already open keep recording; spans
/// constructed while disabled never record.
void set_enabled(bool on) noexcept;

/// Discards every recorded event (all threads).
void clear();

/// Writes all recorded events as a Chrome trace_event JSON document
/// ({"traceEvents": [...]}, "X" complete events, microsecond timestamps,
/// one tid per recording thread).
void write_chrome_json(std::ostream& os);

/// RAII span: records [construction, destruction) under `name` when tracing
/// is enabled at construction time. `name` must outlive the trace buffer
/// (use string literals).
class Span {
 public:
  explicit Span(const char* name) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;  // nullptr when not recording
  unsigned long long start_ns_;
};

}  // namespace cfpm::trace

#define CFPM_TRACE_CONCAT_INNER(a, b) a##b
#define CFPM_TRACE_CONCAT(a, b) CFPM_TRACE_CONCAT_INNER(a, b)

/// Opens a trace span covering the rest of the enclosing scope.
#define CFPM_TRACE_SPAN(name) \
  ::cfpm::trace::Span CFPM_TRACE_CONCAT(cfpm_trace_span_, __LINE__)(name)
