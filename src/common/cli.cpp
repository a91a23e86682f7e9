#include "osnt/common/cli.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace osnt {

std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t subst = prev[j - 1] + (a[i - 1] != b[j - 1] ? 1 : 0);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, subst});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

std::string suggest_nearest(const std::string& name,
                            const std::vector<std::string>& candidates) {
  std::size_t best = std::string::npos;
  const std::string* winner = nullptr;
  for (const auto& candidate : candidates) {
    const std::size_t d = edit_distance(name, candidate);
    if (d < best) {
      best = d;
      winner = &candidate;
    }
  }
  // Suggest only plausible typos: at most 1 edit for short names, scaling
  // to roughly a third of the name's length for long ones.
  const std::size_t limit = std::max<std::size_t>(1, name.size() / 3);
  return winner && best <= limit ? *winner : std::string();
}

CliParser::CliParser(std::string program_description)
    : description_(std::move(program_description)) {}

void CliParser::add_flag(const std::string& name, std::string* target,
                         const std::string& help) {
  flags_.push_back({name, Kind::kString, target, help, *target});
}

void CliParser::add_flag(const std::string& name, double* target,
                         const std::string& help) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", *target);
  flags_.push_back({name, Kind::kDouble, target, help, buf});
}

void CliParser::add_flag(const std::string& name, std::int64_t* target,
                         const std::string& help) {
  flags_.push_back({name, Kind::kInt, target, help, std::to_string(*target)});
}

void CliParser::add_flag(const std::string& name, bool* target,
                         const std::string& help) {
  flags_.push_back({name, Kind::kBool, target, help, *target ? "true" : "false"});
}

CliParser::Flag* CliParser::find(const std::string& name) {
  for (auto& f : flags_)
    if (f.name == name) return &f;
  return nullptr;
}

bool CliParser::given(const std::string& name) const noexcept {
  for (const auto& f : flags_)
    if (f.name == name) return f.given;
  return false;
}

bool CliParser::assign(Flag& flag, const std::string& value) {
  char* end = nullptr;
  switch (flag.kind) {
    case Kind::kString:
      *static_cast<std::string*>(flag.target) = value;
      return true;
    case Kind::kDouble: {
      const double v = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') return false;
      *static_cast<double*>(flag.target) = v;
      return true;
    }
    case Kind::kInt: {
      const long long v = std::strtoll(value.c_str(), &end, 0);
      if (end == value.c_str() || *end != '\0') return false;
      *static_cast<std::int64_t*>(flag.target) = v;
      return true;
    }
    case Kind::kBool:
      if (value == "true" || value == "1" || value == "yes") {
        *static_cast<bool*>(flag.target) = true;
        return true;
      }
      if (value == "false" || value == "0" || value == "no") {
        *static_cast<bool*>(flag.target) = false;
        return true;
      }
      return false;
  }
  return false;
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_ = true;
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::optional<std::string> value;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name.resize(eq);
    }
    Flag* flag = find(name);
    if (!flag) {
      // Hard error (callers exit nonzero on false): a typoed flag that
      // silently fell through would run the wrong experiment.
      const std::string hint = nearest_flag(name);
      if (!hint.empty()) {
        std::fprintf(stderr, "unknown flag --%s (did you mean --%s?)\n",
                     name.c_str(), hint.c_str());
      } else {
        std::fprintf(stderr, "unknown flag --%s (try --help)\n", name.c_str());
      }
      return false;
    }
    if (!value) {
      if (flag->kind == Kind::kBool) {
        value = "true";  // bare boolean switch
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        std::fprintf(stderr, "flag --%s needs a value\n", name.c_str());
        return false;
      }
    }
    if (!assign(*flag, *value)) {
      std::fprintf(stderr, "bad value '%s' for --%s\n", value->c_str(),
                   name.c_str());
      return false;
    }
    flag->given = true;
  }
  return true;
}

std::string CliParser::nearest_flag(const std::string& name) const {
  std::vector<std::string> candidates;
  candidates.reserve(flags_.size() + 1);
  for (const auto& f : flags_) candidates.push_back(f.name);
  candidates.emplace_back("help");
  return suggest_nearest(name, candidates);
}

std::string CliParser::usage() const {
  std::string out = description_ + "\n\nflags:\n";
  for (const auto& f : flags_) {
    out += "  --" + f.name;
    out.append(f.name.size() < 18 ? 18 - f.name.size() : 1, ' ');
    out += f.help;
    // Each default once: none when empty or stated by the help text.
    if (!f.default_repr.empty() &&
        f.help.find("(default:") == std::string::npos) {
      out += " (default: " + f.default_repr + ")";
    }
    out += "\n";
  }
  out += "  --help              show this message\n";
  return out;
}

}  // namespace osnt
