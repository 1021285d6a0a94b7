#include "telemetry/exporters.hpp"

#include <cstdio>
#include <ostream>
#include <string_view>

namespace flexfetch::telemetry {

namespace {

/// Shortest-round-trip-ish deterministic double formatting; integers print
/// without a trailing ".0" (matching what the JSON grammar calls a number).
void write_num(std::ostream& os, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  os << buf;
}

void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default: os << c;
    }
  }
  os << '"';
}

void write_args_object(std::ostream& os, const TraceEvent& ev) {
  os << "{";
  bool first = true;
  if (ev.phase == Phase::kCounter) {
    os << "\"value\": ";
    write_num(os, ev.value);
    first = false;
  }
  for (std::size_t i = 0; i < ev.n_args; ++i) {
    const Arg& a = ev.args[i];
    if (!first) os << ", ";
    first = false;
    write_json_string(os, a.key);
    os << ": ";
    if (a.str != nullptr) {
      write_json_string(os, a.str);
    } else {
      write_num(os, a.num);
    }
  }
  os << "}";
}

void write_metadata(std::ostream& os, const char* name, std::uint32_t tid,
                    const char* arg_key, const char* str_value,
                    std::uint64_t num_value) {
  os << "    {\"name\": \"" << name << "\", \"ph\": \"M\", \"pid\": 1, "
     << "\"tid\": " << tid << ", \"args\": {\"" << arg_key << "\": ";
  if (str_value != nullptr) {
    write_json_string(os, str_value);
  } else {
    os << num_value;
  }
  os << "}},\n";
}

}  // namespace

void write_chrome_trace(std::ostream& os, std::span<const TraceEvent> events,
                        std::uint64_t dropped,
                        const MetricsRegistry* metrics) {
  os << "{\n";
  os << "  \"displayTimeUnit\": \"ms\",\n";
  os << "  \"otherData\": {\n";
  os << "    \"dropped_events\": " << dropped;
  if (metrics != nullptr) {
    for (const auto& [name, m] : metrics->items()) {
      os << ",\n    ";
      write_json_string(os, name);
      os << ": ";
      write_num(os, m.value);
    }
  }
  os << "\n  },\n";
  os << "  \"traceEvents\": [\n";

  write_metadata(os, "process_name", 0, "name", "flexfetch-sim", 0);
  // Ring losses surfaced in-band so trace viewers (not just otherData
  // readers) can see the capture was partial.
  write_metadata(os, "telemetry.dropped", 0, "dropped", nullptr, dropped);
  for (std::uint32_t tid = 0; tid < track::kCount; ++tid) {
    write_metadata(os, "thread_name", tid, "name", track_name(tid), 0);
    write_metadata(os, "thread_sort_index", tid, "sort_index", nullptr, tid);
  }

  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
    os << "    {\"name\": ";
    write_json_string(os, ev.name);
    os << ", \"cat\": \"" << to_string(ev.category) << "\"";
    os << ", \"pid\": 1, \"tid\": " << ev.track;
    os << ", \"ts\": ";
    write_num(os, ev.start.value() * 1e6);
    switch (ev.phase) {
      case Phase::kInstant:
        os << ", \"ph\": \"i\", \"s\": \"t\"";
        break;
      case Phase::kSpan:
        os << ", \"ph\": \"X\", \"dur\": ";
        write_num(os, ev.duration.value() * 1e6);
        break;
      case Phase::kCounter:
        os << ", \"ph\": \"C\"";
        break;
    }
    os << ", \"args\": ";
    write_args_object(os, ev);
    os << "}" << (i + 1 < events.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
}

}  // namespace flexfetch::telemetry
