#include "perf/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace hmca::perf {

namespace {

struct Parser {
  std::string_view s;
  std::size_t i = 0;
  int depth = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError("json: " + what + " at offset " + std::to_string(i));
  }

  void skip_ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }

  char peek() {
    skip_ws();
    if (i >= s.size()) fail("unexpected end of input");
    return s[i];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', got '" + s[i] + "'");
    }
    ++i;
  }

  bool consume(std::string_view word) {
    if (s.substr(i, word.size()) != word) return false;
    i += word.size();
    return true;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (i < s.size() && s[i] != '"') {
      char c = s[i++];
      if (c == '\\') {
        if (i >= s.size()) fail("unterminated escape");
        char e = s[i++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          default: fail(std::string("unsupported escape '\\") + e + "'");
        }
      } else {
        out.push_back(c);
      }
    }
    if (i >= s.size()) fail("unterminated string");
    ++i;  // closing quote
    return out;
  }

  double parse_number() {
    const std::size_t start = i;
    if (i < s.size() && (s[i] == '-' || s[i] == '+')) ++i;
    while (i < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '.' ||
            s[i] == 'e' || s[i] == 'E' || s[i] == '+' || s[i] == '-')) {
      ++i;
    }
    if (i == start) fail("expected a number");
    const std::string text(s.substr(start, i - start));
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("malformed number '" + text + "'");
    return v;
  }

  // One array/object level; throws past kMaxJsonDepth, naming the offset
  // of the opening bracket.
  struct Nest {
    Parser& p;
    explicit Nest(Parser& parser) : p(parser) {
      if (++p.depth > kMaxJsonDepth) {
        p.fail("nesting deeper than " + std::to_string(kMaxJsonDepth) +
               " levels");
      }
    }
    ~Nest() { --p.depth; }
  };

  Json parse_value() {
    switch (peek()) {
      case '{': {
        const Nest nest(*this);
        ++i;
        Json::Object obj;
        if (peek() == '}') {
          ++i;
          return Json::make_object(std::move(obj));
        }
        for (;;) {
          std::string key = parse_string();
          expect(':');
          obj.emplace_back(std::move(key), parse_value());
          if (peek() == ',') {
            ++i;
            continue;
          }
          expect('}');
          return Json::make_object(std::move(obj));
        }
      }
      case '[': {
        const Nest nest(*this);
        ++i;
        Json::Array arr;
        if (peek() == ']') {
          ++i;
          return Json::make_array(std::move(arr));
        }
        for (;;) {
          arr.push_back(parse_value());
          if (peek() == ',') {
            ++i;
            continue;
          }
          expect(']');
          return Json::make_array(std::move(arr));
        }
      }
      case '"':
        return Json::make_string(parse_string());
      case 't':
        if (!consume("true")) fail("bad literal");
        return Json::make_bool(true);
      case 'f':
        if (!consume("false")) fail("bad literal");
        return Json::make_bool(false);
      case 'n':
        if (!consume("null")) fail("bad literal");
        return Json::make_null();
      default:
        return Json::make_number(parse_number());
    }
  }
};

const char* type_name(Json::Type t) {
  switch (t) {
    case Json::Type::kNull: return "null";
    case Json::Type::kBool: return "bool";
    case Json::Type::kNumber: return "number";
    case Json::Type::kString: return "string";
    case Json::Type::kArray: return "array";
    case Json::Type::kObject: return "object";
  }
  return "?";
}

[[noreturn]] void type_mismatch(const char* want, Json::Type got) {
  throw JsonError(std::string("json: expected ") + want + ", got " +
                  type_name(got));
}

}  // namespace

Json Json::parse(std::string_view text) {
  Parser p{text};
  Json v = p.parse_value();
  p.skip_ws();
  if (p.i != text.size()) p.fail("trailing content after document");
  return v;
}

bool Json::boolean() const {
  if (type_ != Type::kBool) type_mismatch("bool", type_);
  return bool_;
}

double Json::number() const {
  if (type_ != Type::kNumber) type_mismatch("number", type_);
  return num_;
}

double Json::integral_in(double lo, double hi) const {
  const double v = number();
  if (!(v >= lo && v < hi) || std::trunc(v) != v) {
    char val[32];
    *std::to_chars(val, val + sizeof val - 1, v).ptr = '\0';
    char msg[128];
    std::snprintf(msg, sizeof msg,
                  "json: expected an integer in [%.0f, %.0f), got %s", lo, hi,
                  val);
    throw JsonError(msg);
  }
  return v;
}

const std::string& Json::string() const {
  if (type_ != Type::kString) type_mismatch("string", type_);
  return str_;
}

const Json::Array& Json::array() const {
  if (type_ != Type::kArray) type_mismatch("array", type_);
  return arr_;
}

const Json::Object& Json::object() const {
  if (type_ != Type::kObject) type_mismatch("object", type_);
  return obj_;
}

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  if (const Json* v = find(key)) return *v;
  throw JsonError("json: missing key '" + std::string(key) + "'");
}

const std::string& Json::string_at(std::string_view key) const {
  return at(key).string();
}

double Json::number_at(std::string_view key) const { return at(key).number(); }

Json Json::make_bool(bool b) {
  Json v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

Json Json::make_number(double n) {
  Json v;
  v.type_ = Type::kNumber;
  v.num_ = n;
  return v;
}

Json Json::make_string(std::string s) {
  Json v;
  v.type_ = Type::kString;
  v.str_ = std::move(s);
  return v;
}

Json Json::make_array(Array a) {
  Json v;
  v.type_ = Type::kArray;
  v.arr_ = std::move(a);
  return v;
}

Json Json::make_object(Object o) {
  Json v;
  v.type_ = Type::kObject;
  v.obj_ = std::move(o);
  return v;
}

Json parse_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw JsonError("cannot read '" + path + "'");
  std::ostringstream body;
  body << in.rdbuf();
  return Json::parse(body.str());
}

}  // namespace hmca::perf
