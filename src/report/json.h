#pragma once

/// \file json.h
/// Self-contained JSON document model: build, serialize, parse.
///
/// The reporting subsystem needs machine-readable output (every result the
/// CLI, benches and examples emit is a JSON document) and needs to read its
/// own output back (`mood report` aggregates result files) — so this module
/// provides both directions with no third-party dependency.
///
/// Design notes:
///  * Objects preserve insertion order (vector of pairs, linear lookup):
///    result documents stay diff-friendly and small enough that O(n) member
///    access never matters.
///  * Doubles serialize via std::to_chars (shortest round-trip form); NaN
///    and infinities become `null`, since JSON has no representation for
///    them and result consumers (python -m json.tool, jq) reject bare NaN.
///  * The parser is strict RFC 8259: it throws support::IoError with a
///    byte offset on malformed input, and decodes \uXXXX escapes
///    (including surrogate pairs) to UTF-8. Arrays and objects nest at
///    most kMaxParseDepth deep, so outside input cannot exhaust the stack
///    through the parser's recursion.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mood::report {

/// One JSON value: null, boolean, number (integer or double), string,
/// array, or object. Value semantics throughout.
class Json {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  using Array = std::vector<Json>;
  using Members = std::vector<std::pair<std::string, Json>>;

  /// Default-constructs null.
  Json() = default;
  Json(std::nullptr_t) : Json() {}
  Json(bool value) : type_(Type::kBool), bool_(value) {}
  Json(int value) : type_(Type::kInt), int_(value) {}
  Json(unsigned value) : type_(Type::kInt), int_(value) {}
  Json(std::int64_t value) : type_(Type::kInt), int_(value) {}
  Json(std::size_t value)
      : type_(Type::kInt), int_(static_cast<std::int64_t>(value)) {}
  Json(double value) : type_(Type::kDouble), double_(value) {}
  Json(const char* value) : type_(Type::kString), string_(value) {}
  Json(std::string value) : type_(Type::kString), string_(std::move(value)) {}

  /// Empty aggregate factories (distinguish `[]` / `{}` from null).
  static Json array();
  static Json object();

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const {
    return type_ == Type::kInt || type_ == Type::kDouble;
  }
  [[nodiscard]] bool is_string() const { return type_ == Type::kString; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors. Throw support::PreconditionError on type mismatch
  /// (reading a result file with an unexpected shape is a caller error,
  /// and should fail with a message rather than UB).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;    ///< kInt, or integral kDouble
  [[nodiscard]] double as_double() const;       ///< any number
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& items() const;     ///< array elements
  [[nodiscard]] const Members& members() const; ///< object members, in order

  // ---- Building ------------------------------------------------------

  /// Object member access; inserts a null member if absent. Converts a
  /// null value to an object first (so `doc["a"]["b"] = 1` just works).
  Json& operator[](std::string_view key);

  /// Appends to an array (converting null to an array first).
  void push_back(Json value);

  /// Object lookup without insertion; nullptr when absent or not an object.
  [[nodiscard]] const Json* find(std::string_view key) const;

  /// find() + typed access with a fallback — for tolerant readers.
  [[nodiscard]] double number_or(std::string_view key, double fallback) const;
  [[nodiscard]] std::int64_t int_or(std::string_view key,
                                    std::int64_t fallback) const;
  [[nodiscard]] std::string string_or(std::string_view key,
                                      std::string fallback) const;

  /// Array / object element count (0 for scalars).
  [[nodiscard]] std::size_t size() const;

  // ---- Serialization -------------------------------------------------

  /// Serializes to a string. `indent < 0` gives the compact single-line
  /// form; `indent >= 0` pretty-prints with that many spaces per level.
  [[nodiscard]] std::string dump(int indent = -1) const;

  /// Streams dump(indent) plus a trailing newline when pretty-printing.
  void write(std::ostream& out, int indent = 2) const;

  /// Deepest array/object nesting parse() accepts; mood-*/1 documents
  /// nest about 6 deep.
  static constexpr std::size_t kMaxParseDepth = 256;

  /// Parses a complete JSON document (trailing whitespace allowed, trailing
  /// garbage is an error). Throws support::IoError on malformed input,
  /// including nesting deeper than kMaxParseDepth.
  static Json parse(std::string_view text);

  friend bool operator==(const Json&, const Json&) = default;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Members members_;
};

}  // namespace mood::report
