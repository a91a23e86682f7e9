#include "osnt/common/json.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "osnt/common/cli.hpp"

namespace osnt::json {
namespace {

class Parser {
 public:
  Parser(const std::string& text, const std::string& context)
      : p_(text.data()),
        end_(text.data() + text.size()),
        scanned_(text.data()),
        line_start_(text.data()),
        context_(context) {}

  Value parse() {
    Value v = value();
    skip_ws();
    if (p_ != end_) fail("trailing content after JSON value");
    return v;
  }

 private:
  /// Line and column of `p_`. The cursor only moves forward, so the scan
  /// resumes where the last call stopped: linear over the document.
  [[nodiscard]] std::pair<std::size_t, std::size_t> position() {
    for (; scanned_ < p_; ++scanned_) {
      if (*scanned_ == '\n') {
        ++line_;
        line_start_ = scanned_ + 1;
      }
    }
    return {line_, static_cast<std::size_t>(p_ - line_start_) + 1};
  }

  [[noreturn]] void fail(const std::string& why) {
    const auto [line, col] = position();
    throw ParseError(context_ + ": " + why + " (line " + std::to_string(line) +
                         " column " + std::to_string(col) + ")",
                     line, col);
  }

  void skip_ws() {
    while (p_ != end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      ++p_;
    }
  }

  [[nodiscard]] bool eat(char c) {
    if (p_ != end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!eat(c)) fail(std::string("expected '") + c + "'");
  }

  /// Stamp the source position of the value that starts at `p_`.
  void stamp(Value& v) {
    const auto [line, col] = position();
    v.line = line;
    v.column = col;
  }

  /// Objects and arrays count against kMaxDepth while they are open.
  void enter() {
    if (++depth_ > kMaxDepth) {
      fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
    }
  }

  Value value() {
    skip_ws();
    if (p_ == end_) fail("unexpected end of input");
    switch (*p_) {
      case '{':
        return object();
      case '[':
        return array();
      case '"': {
        Value v;
        stamp(v);
        v.type = Value::Type::kString;
        v.string = string();
        return v;
      }
      case 't':
      case 'f':
        return boolean();
      case 'n': {
        Value v;
        stamp(v);
        literal("null");
        return v;
      }
      default:
        return number();
    }
  }

  void literal(const char* lit) {
    for (const char* c = lit; *c; ++c) {
      if (p_ == end_ || *p_ != *c) {
        fail(std::string("bad literal, expected ") + lit);
      }
      ++p_;
    }
  }

  Value boolean() {
    Value v;
    stamp(v);
    v.type = Value::Type::kBool;
    if (*p_ == 't') {
      literal("true");
      v.boolean = true;
    } else {
      literal("false");
    }
    return v;
  }

  Value number() {
    Value v;
    stamp(v);
    const char* start = p_;
    if (p_ != end_ && (*p_ == '-' || *p_ == '+')) ++p_;
    while (p_ != end_ && (std::isdigit(static_cast<unsigned char>(*p_)) ||
                          *p_ == '.' || *p_ == 'e' || *p_ == 'E' ||
                          *p_ == '-' || *p_ == '+')) {
      ++p_;
    }
    if (p_ == start) fail("expected a value");
    char* parsed_end = nullptr;
    const std::string token(start, p_);
    const double d = std::strtod(token.c_str(), &parsed_end);
    if (parsed_end != token.c_str() + token.size() || !std::isfinite(d)) {
      fail("malformed number '" + token + "'");
    }
    v.type = Value::Type::kNumber;
    v.number = d;
    return v;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (p_ != end_ && *p_ != '"') {
      char c = *p_++;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (p_ == end_) fail("unterminated escape");
      switch (*p_++) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (end_ - p_ < 4) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = *p_++;
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          if (code > 0x7f) fail("non-ASCII \\u escape unsupported");
          out.push_back(static_cast<char>(code));
          break;
        }
        default:
          fail("unknown escape");
      }
    }
    expect('"');
    return out;
  }

  Value object() {
    Value v;
    stamp(v);
    enter();
    expect('{');
    v.type = Value::Type::kObject;
    skip_ws();
    if (!eat('}')) {
      do {
        skip_ws();
        std::string key = string();
        skip_ws();
        expect(':');
        v.object.emplace_back(std::move(key), value());
        skip_ws();
      } while (eat(','));
      expect('}');
    }
    --depth_;
    return v;
  }

  Value array() {
    Value v;
    stamp(v);
    enter();
    expect('[');
    v.type = Value::Type::kArray;
    skip_ws();
    if (!eat(']')) {
      do {
        v.array.push_back(value());
        skip_ws();
      } while (eat(','));
      expect(']');
    }
    --depth_;
    return v;
  }

  const char* p_;
  const char* end_;
  const char* scanned_;     ///< position() has counted lines up to here
  const char* line_start_;  ///< first byte of line `line_`
  std::size_t line_ = 1;
  std::size_t depth_ = 0;
  const std::string& context_;
};

}  // namespace

std::string Value::where() const {
  return "line " + std::to_string(line) + " column " + std::to_string(column);
}

Value parse(const std::string& text, const std::string& context) {
  return Parser(text, context).parse();
}

std::string read_file(const std::string& path, const std::string& context) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw ParseError(context + ": cannot open '" + path + "'", 0, 0);
  std::string text;
  char buf[4096];
  for (std::size_t got; (got = std::fread(buf, 1, sizeof buf, f)) > 0;) {
    text.append(buf, got);
  }
  const bool read_err = std::ferror(f) != 0;
  std::fclose(f);
  if (read_err) {
    throw ParseError(context + ": read error on '" + path + "'", 0, 0);
  }
  return text;
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

namespace {

constexpr std::string_view kTypeNames[] = {"null",     "a bool",
                                           "a number", "a string",
                                           "an array", "an object"};

std::string_view type_name(Value::Type t) {
  return kTypeNames[static_cast<std::size_t>(t)];
}

std::string quoted(std::string_view s) {
  std::string out = "'";
  out.append(s);
  out += '\'';
  return out;
}

constexpr struct {
  std::string_view suffix;
  double to_ps;
} kTimeUnits[] = {{"_ns", 1e3}, {"_us", 1e6}, {"_ms", 1e9}};

/// `key` is `base` followed by `suffix`.
bool spells(std::string_view key, std::string_view base,
            std::string_view suffix) {
  return key.size() == base.size() + suffix.size() && key.starts_with(base) &&
         key.ends_with(suffix);
}

}  // namespace

Reader::Reader(const Value& obj, std::string_view context)
    : obj_(obj), context_(context) {
  if (!obj.is(Value::Type::kObject)) {
    fail("must be an object, got " + std::string(type_name(obj.type)));
  }
}

void Reader::fail(std::string_view why, const Value& at) const {
  std::string msg = std::string(context_) + ": " + std::string(why);
  if (at.line > 0) msg += " (" + at.where() + ")";
  throw ParseError(msg, at.line, at.column);
}

void Reader::unknown(std::string_view what, const Value& v,
                     const std::vector<std::string>& names) const {
  std::string msg = "unknown " + std::string(what) + " " + quoted(v.string);
  const std::string hint = suggest_nearest(v.string, names);
  if (!hint.empty()) {
    msg += " (did you mean " + quoted(hint) + "?)";
  } else {
    msg += " (known:";
    for (const auto& n : names) msg += " " + n;
    msg += ")";
  }
  fail(msg, v);
}

void Reader::allow(std::initializer_list<std::string_view> keys,
                   std::initializer_list<std::string_view> times) const {
  for (const auto& [k, v] : obj_.object) {
    bool ok = std::find(keys.begin(), keys.end(), k) != keys.end();
    for (const auto base : times) {
      for (const auto& u : kTimeUnits) ok = ok || spells(k, base, u.suffix);
    }
    if (ok) continue;
    std::vector<std::string> allowed(keys.begin(), keys.end());
    for (const auto base : times) {
      for (const auto& u : kTimeUnits) {
        allowed.push_back(std::string(base) + std::string(u.suffix));
      }
    }
    std::string msg = "unknown key " + quoted(k);
    const std::string hint = suggest_nearest(k, allowed);
    if (!hint.empty()) msg += " (did you mean " + quoted(hint) + "?)";
    fail(msg, v);
  }
}

const Value* Reader::get(std::string_view key, Value::Type t) const {
  const Value* v = obj_.find(key);
  if (v && !v->is(t)) {
    fail(quoted(key) + " must be " + std::string(type_name(t)) + ", got " +
             std::string(type_name(v->type)),
         *v);
  }
  return v;
}

const Value& Reader::need(std::string_view key, Value::Type t) const {
  const Value* v = get(key, t);
  if (!v) fail("missing required key " + quoted(key));
  return *v;
}

double Reader::number(std::string_view key, double fallback) const {
  const Value* v = get(key, Value::Type::kNumber);
  return v ? v->number : fallback;
}

bool Reader::boolean(std::string_view key, bool fallback) const {
  const Value* v = get(key, Value::Type::kBool);
  return v ? v->boolean : fallback;
}

std::string_view Reader::string(std::string_view key,
                                std::string_view fallback) const {
  const Value* v = get(key, Value::Type::kString);
  return v ? std::string_view(v->string) : fallback;
}

std::uint64_t Reader::count(std::string_view key, std::uint64_t fallback,
                            std::uint64_t max) const {
  const Value* v = get(key, Value::Type::kNumber);
  if (!v) return fallback;
  const double d = v->number;
  const bool integer = d >= 0 && d == std::floor(d);
  // 2^64 is the first double past the range, so the cast is exact.
  if (integer && d < 18446744073709551616.0 &&
      static_cast<std::uint64_t>(d) <= max) {
    return static_cast<std::uint64_t>(d);
  }
  char got[32];
  std::snprintf(got, sizeof got, "%.15g", d);
  fail(quoted(key) +
           (integer ? " must be at most " + std::to_string(max)
                    : std::string(" must be a non-negative integer")) +
           ", got " + got,
       *v);
}

Picos Reader::time(std::string_view base, Picos fallback) const {
  const Value* found = nullptr;
  std::string_view key;
  double to_ps = 0.0;
  for (const auto& u : kTimeUnits) {
    for (const auto& [k, v] : obj_.object) {
      if (!spells(k, base, u.suffix)) continue;
      if (found) fail(quoted(base) + " given in more than one unit", v);
      found = &v;
      key = k;
      to_ps = u.to_ps;
      break;  // a repeated key reads its first value, like find()
    }
  }
  if (!found) return fallback;
  const double ps = get(key, Value::Type::kNumber)->number * to_ps;
  if (ps < 0 || ps > 9.2e18) fail(quoted(base) + " out of range", *found);
  return static_cast<Picos>(ps);
}

Picos Reader::need_time(std::string_view base) const {
  const Picos t = time(base, -1);  // a time that was given is never < 0
  if (t < 0) fail("missing required key " + quoted(std::string(base) + "_us"));
  return t;
}

}  // namespace osnt::json
