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

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
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

  /// Convenience: `at(key).string()` / `at(key).number()`.
  const std::string& string_at(std::string_view key) const;
  double number_at(std::string_view key) const;

  // Construction (tests build expected values by hand).
  Json() = default;
  static Json make_null() { return Json(); }
  static Json make_bool(bool b);
  static Json make_number(double v);
  static Json make_string(std::string s);
  static Json make_array(Array a);
  static Json make_object(Object o);

 private:
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
