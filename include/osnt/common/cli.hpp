// Tiny declarative flag parser for the OSNT command-line drivers. Flags
// are `--name value` or `--name=value`; bools may omit the value.
// Unknown flags are an error; `--help` renders the registered table.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace osnt {

/// Levenshtein distance with two rolling rows — names are short, so the
/// quadratic DP is microscopic. Shared by the CLI's unknown-flag hint and
/// the topology loader's unknown-block-type hint.
[[nodiscard]] std::size_t edit_distance(const std::string& a,
                                        const std::string& b);

/// Closest candidate to a (misspelled) name, or "" when nothing is close
/// enough to be a plausible typo: at most 1 edit for short names, scaling
/// to roughly a third of the name's length for long ones.
[[nodiscard]] std::string suggest_nearest(
    const std::string& name, const std::vector<std::string>& candidates);

class CliParser {
 public:
  explicit CliParser(std::string program_description);

  /// Register flags (call before parse()). `target` must outlive parse().
  void add_flag(const std::string& name, std::string* target,
                const std::string& help);
  void add_flag(const std::string& name, double* target,
                const std::string& help);
  void add_flag(const std::string& name, std::int64_t* target,
                const std::string& help);
  void add_flag(const std::string& name, bool* target,
                const std::string& help);

  /// Parse argv. Returns false (after printing a message) on bad input or
  /// --help; callers should exit(0) on help_requested(), exit(1) otherwise.
  [[nodiscard]] bool parse(int argc, const char* const* argv);

  [[nodiscard]] bool help_requested() const noexcept { return help_; }
  /// Whether the parsed arguments set flag `name`.
  [[nodiscard]] bool given(const std::string& name) const noexcept;
  /// Positional (non-flag) arguments, in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  [[nodiscard]] std::string usage() const;

  /// Closest registered flag to a (misspelled) name, or "" when nothing
  /// is close enough to be a plausible typo. Exposed for tests.
  [[nodiscard]] std::string nearest_flag(const std::string& name) const;

 private:
  enum class Kind : std::uint8_t { kString, kDouble, kInt, kBool };
  struct Flag {
    std::string name;
    Kind kind;
    void* target;
    std::string help;
    std::string default_repr;
    bool given = false;
  };

  [[nodiscard]] Flag* find(const std::string& name);
  [[nodiscard]] bool assign(Flag& flag, const std::string& value);

  std::string description_;
  std::vector<Flag> flags_;
  std::vector<std::string> positional_;
  bool help_ = false;
};

}  // namespace osnt
