// Result<T>: a value-or-Status holder, the return type of every fallible
// CYRUS operation that produces a value (similar to absl::StatusOr<T>).
// As with StatusOr, the accessors follow the value category of the Result:
// `*r` and `r.value()` alias the held value, while `*std::move(r)`,
// `std::move(r).value()` and `std::move(r).value_or(x)` move it out, so a
// downloaded share's buffer passes to its consumer without a copy.
#ifndef SRC_UTIL_RESULT_H_
#define SRC_UTIL_RESULT_H_

#include <cassert>
#include <optional>
#include <utility>

#include "src/util/status.h"

namespace cyrus {

template <typename T>
class [[nodiscard]] Result {
 public:
  // Implicit conversion from a value or an error Status keeps call sites
  // terse: `return shares;` / `return NotFoundError(...)`.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result constructed from OK status without value");
    if (status_.ok()) {
      status_ = InternalError("Result constructed from OK status");
    }
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  // Returns the value or a fallback.
  T value_or(T fallback) const& { return ok() ? *value_ : std::move(fallback); }
  T value_or(T fallback) && { return ok() ? *std::move(value_) : std::move(fallback); }

 private:
  std::optional<T> value_;
  Status status_;  // OK iff value_ holds a value
};

// Assigns the value of a Result expression to `lhs`, or propagates the error.
// Usage: CYRUS_ASSIGN_OR_RETURN(auto shares, codec.Encode(chunk));
#define CYRUS_ASSIGN_OR_RETURN(lhs, expr)                 \
  CYRUS_ASSIGN_OR_RETURN_IMPL_(                           \
      CYRUS_RESULT_CONCAT_(cyrus_result_, __LINE__), lhs, expr)

#define CYRUS_RESULT_CONCAT_INNER_(a, b) a##b
#define CYRUS_RESULT_CONCAT_(a, b) CYRUS_RESULT_CONCAT_INNER_(a, b)

#define CYRUS_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                 \
  if (!tmp.ok()) return tmp.status();                \
  lhs = std::move(tmp).value()

}  // namespace cyrus

#endif  // SRC_UTIL_RESULT_H_
