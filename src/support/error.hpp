// Exception hierarchy for the cfpm library.
#pragma once

#include <stdexcept>
#include <string>

namespace cfpm {

/// Base class of all cfpm exceptions.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Violated precondition or internal invariant.
class ContractError : public Error {
 public:
  explicit ContractError(const std::string& what) : Error(what) {}
};

/// Malformed input file (netlist parser, model deserialization).
class ParseError : public Error {
 public:
  ParseError(const std::string& what, std::size_t line)
      : Error(what + " (line " + std::to_string(line) + ")"), line_(line) {}
  explicit ParseError(const std::string& what) : Error(what), line_(0) {}

  /// 1-based line of the offending input, 0 if not applicable.
  std::size_t line() const noexcept { return line_; }

 private:
  std::size_t line_;
};

/// A filesystem or stream operation failed (short write, failed rename,
/// unwritable path). Crash-safe writers (support/io) throw this instead of
/// silently truncating output.
class IoError : public Error {
 public:
  explicit IoError(const std::string& what) : Error(what) {}
};

/// A construction ran past its wall-clock deadline (support/deadline).
/// Recoverable: AddPowerModel::build (power/add_model) answers it with the
/// constant fallback model when degradation is allowed.
class DeadlineExceeded : public Error {
 public:
  explicit DeadlineExceeded(const std::string& what) : Error(what) {}
};

}  // namespace cfpm
