// Minimal JSON document model for the perf subsystem.
//
// The comparator (perf/compare.hpp) diffs two BENCH_*.json files written by
// the campaign runner, so it needs to *read* JSON — every other exporter in
// the repo only writes it. This is a small recursive-descent parser over a
// value tree: objects preserve insertion order (the files are written with
// a deterministic key order and round-tripping must not shuffle them), and
// numbers stay doubles, which covers every value the bench format emits.
//
// Deliberately not a general-purpose library: no serialization (writers
// emit by hand, like obs/ does), no \uXXXX escapes beyond pass-through of
// plain text. Inputs may be user files (HMCA_HIERARCHY=@file, hmca-diff,
// hmca-report --stats), so nesting is bounded by kMaxJsonDepth.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace hmca::perf {

class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Deepest array/object nesting Json::parse accepts. The parser recurses
/// once per level, so the bound keeps hostile documents off the end of the
/// stack; committed documents nest fewer than ten levels.
inline constexpr int kMaxJsonDepth = 512;

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;

  /// Parse one complete JSON document; trailing non-whitespace and nesting
  /// deeper than kMaxJsonDepth are errors.
  static Json parse(std::string_view text);

  Type type() const noexcept { return type_; }
  bool is_object() const noexcept { return type_ == Type::kObject; }
  bool is_array() const noexcept { return type_ == Type::kArray; }
  bool is_number() const noexcept { return type_ == Type::kNumber; }
  bool is_string() const noexcept { return type_ == Type::kString; }

  /// Typed reads; throw JsonError naming the actual type on mismatch.
  bool boolean() const;
  double number() const;
  const std::string& string() const;
  const Array& array() const;
  const Object& object() const;

  /// Object member lookup: nullptr when absent (or when not an object).
  const Json* find(std::string_view key) const;
  /// Object member access; throws JsonError("missing key '...'") if absent.
  const Json& at(std::string_view key) const;

  /// The number as an integer of type T. Throws JsonError naming the
  /// value when it is not a number, has a fractional part or lies outside
  /// T's range (a plain cast would turn 2.5 into 2, and 1e300 into
  /// undefined behaviour).
  template <class T>
  T integer() const {
    static_assert(std::is_integral_v<T>);
    // Bounds are exact powers of two, so every double in [lo, hi)
    // converts to T exactly.
    const double hi = std::ldexp(1.0, std::numeric_limits<T>::digits);
    return static_cast<T>(integral_in(std::is_signed_v<T> ? -hi : 0.0, hi));
  }

  /// Convenience: `at(key).string()` / `at(key).number()` /
  /// `at(key).integer<T>()`.
  const std::string& string_at(std::string_view key) const;
  double number_at(std::string_view key) const;
  template <class T>
  T integer_at(std::string_view key) const {
    return at(key).integer<T>();
  }

  // Construction (tests build expected values by hand).
  Json() = default;
  static Json make_null() { return Json(); }
  static Json make_bool(bool b);
  static Json make_number(double v);
  static Json make_string(std::string s);
  static Json make_array(Array a);
  static Json make_object(Object o);

 private:
  /// number(), checked to be integral and within [lo, hi).
  double integral_in(double lo, double hi) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  Array arr_;
  Object obj_;
};

/// Read and parse a JSON file; JsonError on unreadable paths or bad syntax.
Json parse_json_file(const std::string& path);

}  // namespace hmca::perf
