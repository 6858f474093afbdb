#include "report/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "support/error.h"

namespace mood::report {

namespace {

using support::IoError;
using support::PreconditionError;

const char* type_name(Json::Type type) {
  switch (type) {
    case Json::Type::kNull: return "null";
    case Json::Type::kBool: return "bool";
    case Json::Type::kInt: return "int";
    case Json::Type::kDouble: return "double";
    case Json::Type::kString: return "string";
    case Json::Type::kArray: return "array";
    case Json::Type::kObject: return "object";
  }
  return "?";
}

[[noreturn]] void type_error(std::string_view wanted, Json::Type got) {
  throw PreconditionError("Json: expected " + std::string(wanted) + ", got " +
                          type_name(got));
}

/// Whether a double holds an integer exactly representable as int64_t, so
/// the narrowing cast below is defined. 2^63 itself is not representable.
bool integral_in_int64_range(double value) {
  return std::isfinite(value) && value == std::floor(value) &&
         value >= -9223372036854775808.0 /* -2^63 */ &&
         value < 9223372036854775808.0 /* 2^63 */;
}

void append_escaped(std::string& out, std::string_view text) {
  out.push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out.push_back(c);  // UTF-8 bytes pass through verbatim
        }
    }
  }
  out.push_back('"');
}

void append_double(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";  // JSON has no NaN/Infinity
    return;
  }
  char buffer[32];
  const auto [end, ec] =
      std::to_chars(buffer, buffer + sizeof buffer, value);
  out.append(buffer, end);
  // Keep numbers recognisably floating-point ("1" -> "1e0" would be odd;
  // emit "1.0" style instead) so round-tripping preserves the type.
  std::string_view written(buffer, static_cast<std::size_t>(end - buffer));
  if (written.find('.') == std::string_view::npos &&
      written.find('e') == std::string_view::npos &&
      written.find("inf") == std::string_view::npos) {
    out += ".0";
  }
}

/// Whether `token` is an RFC 8259 number,
/// -? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?
/// (std::from_chars alone also takes "01", ".5" and "1.").
bool is_json_number(std::string_view token) {
  std::size_t i = 0;
  const auto at = [&](char c) { return i < token.size() && token[i] == c; };
  const auto digits = [&] {
    const std::size_t from = i;
    while (i < token.size() && token[i] >= '0' && token[i] <= '9') ++i;
    return i > from;
  };
  if (at('-')) ++i;
  if (at('0')) {
    ++i;
  } else if (!digits()) {
    return false;
  }
  if (at('.')) {
    ++i;
    if (!digits()) return false;
  }
  if (at('e') || at('E')) {
    ++i;
    if (at('+') || at('-')) ++i;
    if (!digits()) return false;
  }
  return i == token.size();
}

/// Strict RFC 8259 recursive-descent parser over a string_view.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json run() {
    Json value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw IoError("Json::parse: " + message + " at byte " +
                  std::to_string(pos_));
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Json parse_value() {
    skip_whitespace();
    switch (peek()) {
      case '{': return parse_nested(&Parser::parse_object);
      case '[': return parse_nested(&Parser::parse_array);
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json();
        fail("invalid literal");
      default: return parse_number();
    }
  }

  /// One array/object level. The parse is abandoned on the first throw,
  /// so the depth is only unwound on success.
  Json parse_nested(Json (Parser::*parse)()) {
    if (++depth_ > Json::kMaxParseDepth) fail("nesting too deep");
    Json value = (this->*parse)();
    --depth_;
    return value;
  }

  Json parse_object() {
    expect('{');
    Json object = Json::object();
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return object;
    }
    for (;;) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      object[key] = parse_value();
      skip_whitespace();
      const char c = peek();
      ++pos_;
      if (c == '}') return object;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Json parse_array() {
    expect('[');
    Json array = Json::array();
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return array;
    }
    for (;;) {
      array.push_back(parse_value());
      skip_whitespace();
      const char c = peek();
      ++pos_;
      if (c == ']') return array;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid hex digit in \\u escape");
    }
    return value;
  }

  void append_utf8(std::string& out, unsigned codepoint) {
    if (codepoint < 0x80) {
      out.push_back(static_cast<char>(codepoint));
    } else if (codepoint < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (codepoint >> 6)));
      out.push_back(static_cast<char>(0x80 | (codepoint & 0x3F)));
    } else if (codepoint < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (codepoint >> 12)));
      out.push_back(static_cast<char>(0x80 | ((codepoint >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (codepoint & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (codepoint >> 18)));
      out.push_back(static_cast<char>(0x80 | ((codepoint >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((codepoint >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (codepoint & 0x3F)));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("truncated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned codepoint = parse_hex4();
          if (codepoint >= 0xD800 && codepoint <= 0xDBFF) {
            // High surrogate: a low surrogate escape must follow.
            if (!consume_literal("\\u")) fail("lone high surrogate");
            const unsigned low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
            codepoint =
                0x10000 + ((codepoint - 0xD800) << 10) + (low - 0xDC00);
          } else if (codepoint >= 0xDC00 && codepoint <= 0xDFFF) {
            fail("lone low surrogate");
          }
          append_utf8(out, codepoint);
          break;
        }
        default: fail("invalid escape character");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (!is_json_number(token)) {
      pos_ = start;
      fail("invalid number");
    }

    const bool integral =
        token.find('.') == std::string_view::npos &&
        token.find('e') == std::string_view::npos &&
        token.find('E') == std::string_view::npos;
    if (integral) {
      std::int64_t value = 0;
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), value);
      if (ec == std::errc() && ptr == token.data() + token.size()) {
        return Json(value);
      }
      // Overflowing integer literals fall through to double.
    }
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc() || ptr != token.data() + token.size()) {
      pos_ = start;
      fail("invalid number");
    }
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< open arrays/objects around pos_
};

}  // namespace

Json Json::array() {
  Json value;
  value.type_ = Type::kArray;
  return value;
}

Json Json::object() {
  Json value;
  value.type_ = Type::kObject;
  return value;
}

bool Json::as_bool() const {
  if (type_ != Type::kBool) type_error("bool", type_);
  return bool_;
}

std::int64_t Json::as_int() const {
  if (type_ == Type::kInt) return int_;
  if (type_ == Type::kDouble && integral_in_int64_range(double_)) {
    return static_cast<std::int64_t>(double_);
  }
  type_error("integer", type_);
}

double Json::as_double() const {
  if (type_ == Type::kInt) return static_cast<double>(int_);
  if (type_ == Type::kDouble) return double_;
  type_error("number", type_);
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString) type_error("string", type_);
  return string_;
}

const Json::Array& Json::items() const {
  if (type_ != Type::kArray) type_error("array", type_);
  return array_;
}

const Json::Members& Json::members() const {
  if (type_ != Type::kObject) type_error("object", type_);
  return members_;
}

Json& Json::operator[](std::string_view key) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  if (type_ != Type::kObject) type_error("object", type_);
  for (auto& [name, value] : members_) {
    if (name == key) return value;
  }
  members_.emplace_back(std::string(key), Json());
  return members_.back().second;
}

void Json::push_back(Json value) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  if (type_ != Type::kArray) type_error("array", type_);
  array_.push_back(std::move(value));
}

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

double Json::number_or(std::string_view key, double fallback) const {
  const Json* value = find(key);
  return value != nullptr && value->is_number() ? value->as_double() : fallback;
}

std::int64_t Json::int_or(std::string_view key, std::int64_t fallback) const {
  const Json* value = find(key);
  if (value == nullptr) return fallback;
  if (value->type_ == Type::kInt) return value->int_;
  // Tolerant reader: a non-integral or out-of-range number is "absent",
  // never an exception — malformed input files must not look like bugs.
  if (value->type_ == Type::kDouble &&
      integral_in_int64_range(value->double_)) {
    return static_cast<std::int64_t>(value->double_);
  }
  return fallback;
}

std::string Json::string_or(std::string_view key, std::string fallback) const {
  const Json* value = find(key);
  return value != nullptr && value->is_string() ? value->as_string()
                                                : std::move(fallback);
}

std::size_t Json::size() const {
  if (type_ == Type::kArray) return array_.size();
  if (type_ == Type::kObject) return members_.size();
  return 0;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const auto newline_pad = [&](int levels) {
    if (!pretty) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * levels), ' ');
  };

  switch (type_) {
    case Type::kNull: out += "null"; return;
    case Type::kBool: out += bool_ ? "true" : "false"; return;
    case Type::kInt: out += std::to_string(int_); return;
    case Type::kDouble: append_double(out, double_); return;
    case Type::kString: append_escaped(out, string_); return;
    case Type::kArray: {
      if (array_.empty()) {
        out += "[]";
        return;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i != 0) out.push_back(',');
        newline_pad(depth + 1);
        array_[i].dump_to(out, indent, depth + 1);
      }
      newline_pad(depth);
      out.push_back(']');
      return;
    }
    case Type::kObject: {
      if (members_.empty()) {
        out += "{}";
        return;
      }
      out.push_back('{');
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i != 0) out.push_back(',');
        newline_pad(depth + 1);
        append_escaped(out, members_[i].first);
        out.push_back(':');
        if (pretty) out.push_back(' ');
        members_[i].second.dump_to(out, indent, depth + 1);
      }
      newline_pad(depth);
      out.push_back('}');
      return;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

void Json::write(std::ostream& out, int indent) const {
  out << dump(indent);
  if (indent >= 0) out << '\n';
}

Json Json::parse(std::string_view text) {
  return Parser(text).run();
}

}  // namespace mood::report
