#include "osnt/telemetry/trace.hpp"

#include <cstdio>
#include <fstream>

namespace osnt::telemetry {
namespace {

/// Chrome's `ts`/`dur` unit is microseconds; sim time is integer picos.
/// %.6f keeps full picosecond precision in the decimals and renders
/// identical picos as identical bytes.
void append_micros(std::string& out, Picos t) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6f",
                static_cast<double>(t) / static_cast<double>(kPicosPerMicro));
  out += buf;
}

}  // namespace

TraceRecorder::TrackId TraceRecorder::track(const std::string& name) {
  const auto [it, added] =
      index_.try_emplace(name, static_cast<TrackId>(tracks_.size()));
  if (added) tracks_.push_back(name);
  return it->second;
}

void TraceRecorder::write_chrome_json(std::ostream& os) const {
  std::string out = "[\n";
  out +=
      "{\"ph\": \"M\", \"pid\": 0, \"name\": \"process_name\", "
      "\"args\": {\"name\": \"osnt-sim\"}}";
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    out += ",\n{\"ph\": \"M\", \"pid\": 0, \"tid\": " + std::to_string(i) +
           ", \"name\": \"thread_name\", \"args\": {\"name\": \"" +
           tracks_[i] + "\"}}";
  }
  for (const Event& e : events_) {
    out += ",\n{\"ph\": \"";
    out += e.ph;
    out += "\", \"pid\": 0, \"tid\": " + std::to_string(e.track) +
           ", \"ts\": ";
    append_micros(out, e.start);
    if (e.ph == 'X') {
      out += ", \"dur\": ";
      append_micros(out, e.dur);
    } else if (e.ph == 'i') {
      out += ", \"s\": \"t\"";
    }
    out += ", \"cat\": \"sim\", \"name\": \"";
    out += e.name;
    if (e.ph == 'C') {
      out += "\", \"args\": {\"value\": " +
             std::to_string(static_cast<std::uint64_t>(e.dur)) + "}}";
    } else {
      out += "\"}";
    }
    if (out.size() >= std::size_t{1} << 20) {
      os.write(out.data(), static_cast<std::streamsize>(out.size()));
      out.clear();
    }
  }
  out += "\n]\n";
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

bool TraceRecorder::write_chrome_json(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  write_chrome_json(f);
  return static_cast<bool>(f);
}

}  // namespace osnt::telemetry
