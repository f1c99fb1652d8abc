#ifndef HBTREE_CORE_STATUS_H_
#define HBTREE_CORE_STATUS_H_

#include <string>
#include <utility>

namespace hbtree {

/// Failure classes a caller can dispatch on. Programming errors still
/// abort via HBTREE_CHECK; these codes cover conditions the system is
/// expected to survive (device faults, overload, bad client input).
enum class StatusCode {
  kOk = 0,
  /// Unclassified recoverable failure (I/O, format errors).
  kInternal,
  /// Malformed request parameters; the request is rejected, the server
  /// keeps running.
  kInvalidArgument,
  /// Device allocation failed (the cudaMalloc out-of-memory analogue).
  kDeviceOom,
  /// A host<->device transfer faulted. Transient: retry may succeed.
  kTransferFailure,
  /// A kernel launch/execution faulted. Transient: retry may succeed.
  kKernelFailure,
  /// The request's deadline expired before it was served (load shedding).
  kDeadlineExceeded,
  /// The serving path is unavailable (e.g. submitted to a stopped server).
  kUnavailable,
  /// A size exceeds what a fixed-width field can address (a tree too big
  /// for the GPU kernels' 32-bit result word).
  kOutOfRange,
};

const char* StatusCodeName(StatusCode code);

/// Minimal error-reporting type for recoverable failures. Carries a code
/// so callers can distinguish transient device faults (worth retrying)
/// from terminal conditions (OOM, bad arguments).
class Status {
 public:
  /// Default-constructs as OK (convenient for out-parameters).
  Status() = default;

  static Status Ok() { return Status(); }
  static Status Error(std::string message) {
    return Status(StatusCode::kInternal, std::move(message));
  }
  static Status InvalidArgument(std::string message) {
    return Status(StatusCode::kInvalidArgument, std::move(message));
  }
  static Status DeviceOom(std::string message) {
    return Status(StatusCode::kDeviceOom, std::move(message));
  }
  static Status TransferFailure(std::string message) {
    return Status(StatusCode::kTransferFailure, std::move(message));
  }
  static Status KernelFailure(std::string message) {
    return Status(StatusCode::kKernelFailure, std::move(message));
  }
  static Status DeadlineExceeded(std::string message) {
    return Status(StatusCode::kDeadlineExceeded, std::move(message));
  }
  static Status Unavailable(std::string message) {
    return Status(StatusCode::kUnavailable, std::move(message));
  }
  static Status OutOfRange(std::string message) {
    return Status(StatusCode::kOutOfRange, std::move(message));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Whether a bounded retry of the failed operation may succeed.
  /// Transfer and kernel faults model transient bus/ECC glitches; OOM and
  /// argument errors do not go away on their own.
  bool IsTransient() const {
    return code_ == StatusCode::kTransferFailure ||
           code_ == StatusCode::kKernelFailure;
  }

  explicit operator bool() const { return ok(); }

 private:
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Early-return helper for call sites that propagate failures.
#define HBTREE_RETURN_IF_ERROR(expr)            \
  do {                                          \
    ::hbtree::Status _status = (expr);          \
    if (!_status.ok()) return _status;          \
  } while (0)

}  // namespace hbtree

#endif  // HBTREE_CORE_STATUS_H_
