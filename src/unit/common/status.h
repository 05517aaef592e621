#ifndef UNIT_COMMON_STATUS_H_
#define UNIT_COMMON_STATUS_H_

#include <cassert>
#include <string>
#include <utility>

namespace unitdb {

/// Error codes for fallible library operations. The library does not use
/// exceptions; fallible construction and I/O return Status / StatusOr.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kAlreadyExists,
  kIoError,
  kInternal,
};

/// Returns a short stable name for a status code ("OK", "INVALID_ARGUMENT"...).
inline const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case StatusCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case StatusCode::kAlreadyExists:
      return "ALREADY_EXISTS";
    case StatusCode::kIoError:
      return "IO_ERROR";
    case StatusCode::kInternal:
      return "INTERNAL";
  }
  return "UNKNOWN";
}

/// A lightweight success-or-error result, modeled after absl::Status.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "CODE: message" for logs and error reporting.
  std::string ToString() const {
    if (ok()) return "OK";
    return std::string(StatusCodeName(code_)) + ": " + message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// A value or an error, modeled after absl::StatusOr. Accessing the value of
/// a non-OK result is a programming error (asserts in debug builds).
template <typename T>
class StatusOr {
 public:
  using value_type = T;

  /// Implicit from value and from Status, mirroring absl::StatusOr ergonomics.
  StatusOr(T value) : status_(), value_(std::move(value)) {}  // NOLINT
  StatusOr(Status status) : status_(std::move(status)) {      // NOLINT
    assert(!status_.ok() && "StatusOr constructed from OK status w/o value");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return value_;
  }
  T& value() & {
    assert(ok());
    return value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  T value_{};
};

}  // namespace unitdb

#endif  // UNIT_COMMON_STATUS_H_
