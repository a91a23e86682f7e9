// Strict recursive-descent JSON reader shared by every declarative input
// the simulator accepts (fault plans, topology files). Inputs are small
// hand-written documents, so this parses into a value tree and favors
// diagnostics: errors carry the 1-based line/column of the offending
// byte, and Reader layers the strict field rules on top (typed keys,
// unknown-key hard errors, did-you-mean) so typos never silently no-op.
// No external dependency: the toolchain image is all we may assume.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "osnt/common/time.hpp"

namespace osnt::json {

/// Parse failure, positioned. what() already includes "line L column C".
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& msg, std::size_t line, std::size_t column)
      : std::runtime_error(msg), line_(line), column_(column) {}

  [[nodiscard]] std::size_t line() const noexcept { return line_; }
  [[nodiscard]] std::size_t column() const noexcept { return column_; }

 private:
  std::size_t line_;
  std::size_t column_;
};

struct Value {
  enum class Type : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject
  };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;  // preserves order
  /// 1-based position of the value's first byte in the source text, so
  /// schema-level errors ("unknown key") can point at the document too.
  std::size_t line = 0;
  std::size_t column = 0;

  [[nodiscard]] const Value* find(std::string_view key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  [[nodiscard]] bool is(Type t) const noexcept { return type == t; }
  /// "line L column C" — for prefixing schema diagnostics.
  [[nodiscard]] std::string where() const;
};

/// Objects and arrays nest at most this deep (scenario files use about
/// 4 levels); deeper input is a positioned ParseError, not a stack
/// overflow.
inline constexpr std::size_t kMaxDepth = 64;

/// Parse a complete JSON document (trailing content is an error).
/// `context` prefixes error messages, e.g. "topology JSON".
[[nodiscard]] Value parse(const std::string& text,
                          const std::string& context = "JSON");

/// Slurp a file; throws ParseError (line 0) when it cannot be read.
[[nodiscard]] std::string read_file(const std::string& path,
                                    const std::string& context = "JSON");

/// Strict, typed reads of one JSON object: the field rules every loader
/// shares. A failed read throws ParseError "<context>: <why> (line L
/// column C)", positioned at the offending value, or at the object when
/// a required key is missing; loaders rethrow it as their own error
/// type. Reads allocate nothing unless they fail.
class Reader {
 public:
  /// `context` names the object in messages ("topology: blocks[2] ('q')",
  /// "fault plan event 3") and must outlive the reader. Throws unless
  /// `obj` is an object.
  Reader(const Value& obj, std::string_view context);

  [[noreturn]] void fail(std::string_view why) const { fail(why, obj_); }
  [[noreturn]] void fail(std::string_view why, const Value& at) const;

  /// Every key must be one of `keys`, or `<base>_ns|_us|_ms` for a base
  /// in `times`; anything else fails with a did-you-mean.
  void allow(std::initializer_list<std::string_view> keys,
             std::initializer_list<std::string_view> times = {}) const;

  /// The value at `key`, or nullptr when absent; fails unless it is a `t`.
  [[nodiscard]] const Value* get(std::string_view key, Value::Type t) const;
  /// Like get(), but a missing key fails too.
  [[nodiscard]] const Value& need(std::string_view key, Value::Type t) const;

  [[nodiscard]] double number(std::string_view key, double fallback) const;
  [[nodiscard]] bool boolean(std::string_view key, bool fallback) const;
  [[nodiscard]] std::string_view string(std::string_view key,
                                        std::string_view fallback) const;
  /// A non-negative integer no larger than `max`, checked before the cast.
  [[nodiscard]] std::uint64_t count(
      std::string_view key, std::uint64_t fallback,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const;

  /// `<base>_ns`, `<base>_us` or `<base>_ms` (at most one) in picoseconds,
  /// in [0, 9.2e18]. need_time() fails when no unit is given.
  [[nodiscard]] Picos time(std::string_view base, Picos fallback) const;
  [[nodiscard]] Picos need_time(std::string_view base) const;

  /// A string key naming one of `names`: returns its index, or 0 (the
  /// first name is the default) when the key is absent. need_choice()
  /// requires the key. Anything else fails as "unknown <what> 'x'" (what
  /// defaults to the key) with a did-you-mean.
  template <class Names = std::initializer_list<std::string_view>>
  [[nodiscard]] std::size_t choice(std::string_view key,
                                   const Names& names) const {
    const Value* v = get(key, Value::Type::kString);
    return v ? index_of(*v, names, key) : 0;
  }
  template <class Names = std::initializer_list<std::string_view>>
  [[nodiscard]] std::size_t need_choice(std::string_view key,
                                        const Names& names,
                                        std::string_view what = {}) const {
    return index_of(need(key, Value::Type::kString), names,
                    what.empty() ? key : what);
  }

 private:
  template <class Names>
  std::size_t index_of(const Value& v, const Names& names,
                       std::string_view what) const {
    std::size_t i = 0;
    for (const auto& name : names) {
      if (v.string == name) return i;
      ++i;
    }
    unknown(what, v, std::vector<std::string>(std::begin(names),
                                              std::end(names)));
  }
  [[noreturn]] void unknown(std::string_view what, const Value& v,
                            const std::vector<std::string>& names) const;

  const Value& obj_;
  std::string_view context_;
};

}  // namespace osnt::json
