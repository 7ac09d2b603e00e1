// Minimal Result<T, E> (std::expected is C++23; we target C++20).
//
// Usage:
//   Result<Projection> r = project(...);
//   if (!r) return fail(r.error());
//   use(r.value());
#pragma once

#include <cassert>
#include <string>
#include <utility>
#include <variant>

namespace sdt {

/// Default error payload: a human-readable message.
struct Error {
  std::string message;
};

inline Error makeError(std::string msg) { return Error{std::move(msg)}; }

template <typename T, typename E = Error>
class Result {
 public:
  Result(T value) : storage_(std::in_place_index<0>, std::move(value)) {}  // NOLINT: implicit by design
  Result(E error) : storage_(std::in_place_index<1>, std::move(error)) {}  // NOLINT: implicit by design

  [[nodiscard]] bool ok() const { return storage_.index() == 0; }
  explicit operator bool() const { return ok(); }

  [[nodiscard]] T& value() & {
    assert(ok());
    return std::get<0>(storage_);
  }
  [[nodiscard]] const T& value() const& {
    assert(ok());
    return std::get<0>(storage_);
  }
  [[nodiscard]] T&& value() && {
    assert(ok());
    return std::get<0>(std::move(storage_));
  }

  [[nodiscard]] const E& error() const {
    assert(!ok());
    return std::get<1>(storage_);
  }

  [[nodiscard]] T valueOr(T fallback) const {
    return ok() ? std::get<0>(storage_) : std::move(fallback);
  }

 private:
  std::variant<T, E> storage_;
};

/// Result specialization-like helper for operations with no payload.
template <typename E = Error>
class Status {
 public:
  Status() = default;
  Status(E error) : error_(std::move(error)), failed_(true) {}  // NOLINT: implicit by design

  [[nodiscard]] bool ok() const { return !failed_; }
  explicit operator bool() const { return ok(); }
  [[nodiscard]] const E& error() const {
    assert(failed_);
    return error_;
  }

 private:
  E error_{};
  bool failed_ = false;
};

}  // namespace sdt
