// Seeded, structure-aware mutations of JSON documents for the loader
// sweeps: truncate, bit-flip, splice, duplicate key, deep nesting and
// huge numbers. Each case is a pure function of the corpus and the seed,
// so a failing case index replays exactly.
#pragma once

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "osnt/common/json.hpp"
#include "osnt/common/random.hpp"

namespace osnt::fuzz {

/// Every *.json file under `dir`, in name order.
inline std::vector<std::string> read_corpus(const std::string& dir) {
  std::vector<std::filesystem::path> paths;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".json") paths.push_back(e.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> out;
  for (const auto& p : paths) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    out.push_back(text.str());
  }
  return out;
}

inline void write_string(const std::string& s, std::string& out) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

inline void write_json(const json::Value& v, std::string& out) {
  using T = json::Value::Type;
  switch (v.type) {
    case T::kNull: out += "null"; break;
    case T::kBool: out += v.boolean ? "true" : "false"; break;
    case T::kNumber: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", v.number);
      out += buf;
      break;
    }
    case T::kString:
      write_string(v.string, out);
      break;
    case T::kArray:
      out += '[';
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        if (i) out += ", ";
        write_json(v.array[i], out);
      }
      out += ']';
      break;
    case T::kObject:
      out += '{';
      for (std::size_t i = 0; i < v.object.size(); ++i) {
        if (i) out += ", ";
        write_string(v.object[i].first, out);
        out += ": ";
        write_json(v.object[i].second, out);
      }
      out += '}';
      break;
  }
}

class JsonMutator {
 public:
  JsonMutator(std::vector<std::string> corpus, std::uint64_t seed)
      : corpus_(std::move(corpus)), rng_(seed) {
    for (const auto& text : corpus_) trees_.push_back(json::parse(text));
  }

  /// One mutated document.
  std::string next() {
    const std::size_t doc = pick(corpus_.size());
    const std::string& text = corpus_[doc];
    switch (pick(6)) {
      case 0:  // truncate
        return text.substr(0, pick(text.size()));
      case 1: {  // flip one to four bits
        std::string out = text;
        for (std::size_t n = 1 + pick(4); n > 0; --n) {
          out[pick(out.size())] ^= static_cast<char>(1u << pick(8));
        }
        return out;
      }
      case 2: {  // splice a slice of any document into this one
        const std::string& other = corpus_[pick(corpus_.size())];
        const std::size_t from = pick(other.size());
        const std::size_t at = pick(text.size());
        return text.substr(0, at) +
               other.substr(from, pick(other.size() - from + 1)) +
               text.substr(at + pick(text.size() - at + 1));
      }
      default:
        return mutate_tree(trees_[doc]);
    }
  }

 private:
  std::size_t pick(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng_.uniform_int(0, n - 1));
  }

  /// Duplicate a key, nest a value deeply (either side of the parser's
  /// depth limit), or swap in a huge number, in a copy of `tree`.
  std::string mutate_tree(json::Value tree) {
    std::vector<json::Value*> nodes;
    collect(tree, nodes);
    std::vector<json::Value*> objects, numbers;
    for (json::Value* n : nodes) {
      if (!n->object.empty()) objects.push_back(n);
      if (n->is(json::Value::Type::kNumber)) numbers.push_back(n);
    }
    switch (pick(3)) {
      case 0: {
        auto& members = objects[pick(objects.size())]->object;
        auto member = members[pick(members.size())];
        if (pick(2) == 0) member.second = huge();
        members.insert(members.begin() + static_cast<std::ptrdiff_t>(
                                              pick(members.size() + 1)),
                       std::move(member));
        break;
      }
      case 1: {
        json::Value& v = *nodes[pick(nodes.size())];
        const std::size_t depth =
            pick(2) == 0 ? 1 + pick(8) : json::kMaxDepth - 8 + pick(16);
        for (std::size_t i = 0; i < depth; ++i) {
          json::Value outer;
          if (pick(2) == 0) {
            outer.type = json::Value::Type::kArray;
            outer.array.push_back(std::move(v));
          } else {
            outer.type = json::Value::Type::kObject;
            outer.object.emplace_back("k", std::move(v));
          }
          v = std::move(outer);
        }
        break;
      }
      default:
        *numbers[pick(numbers.size())] = huge();
        break;
    }
    std::string out;
    write_json(tree, out);
    return out;
  }

  json::Value huge() {
    static constexpr double kHuge[] = {1e30,  -1e30, 18446744073709551616.0,
                                       9.3e18, 4294967296.0, 3e9,
                                       2147483648.0, -1.0, 0.5, 1e300};
    json::Value v;
    v.type = json::Value::Type::kNumber;
    v.number = kHuge[pick(std::size(kHuge))];
    return v;
  }

  static void collect(json::Value& v, std::vector<json::Value*>& out) {
    out.push_back(&v);
    for (auto& e : v.array) collect(e, out);
    for (auto& [k, e] : v.object) collect(e, out);
  }

  std::vector<std::string> corpus_;
  std::vector<json::Value> trees_;
  Rng rng_;
};

}  // namespace osnt::fuzz
