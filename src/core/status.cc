#include "core/status.h"

namespace hbtree {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInternal:
      return "internal";
    case StatusCode::kInvalidArgument:
      return "invalid-argument";
    case StatusCode::kDeviceOom:
      return "device-oom";
    case StatusCode::kTransferFailure:
      return "transfer-failure";
    case StatusCode::kKernelFailure:
      return "kernel-failure";
    case StatusCode::kDeadlineExceeded:
      return "deadline-exceeded";
    case StatusCode::kUnavailable:
      return "unavailable";
    case StatusCode::kOutOfRange:
      return "out-of-range";
  }
  return "unknown";
}

}  // namespace hbtree
