// Text (CSV) serialization of traces — the interchange format between the
// trace collectors/generators and the simulator.
//
// Format: one header line `# flexfetch-trace v1 name=<name>` followed by one
// record per line:
//   timestamp,op,pid,pgid,fd,inode,offset,size,duration
//
// Times are written as the shortest text that reads back bit-equal, and the
// reader takes each field as one whole token (parse_field), so write -> read
// is the identity and a malformed field throws TraceError naming its line.
#pragma once

#include <cmath>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/format.hpp"
#include "trace/trace.hpp"

namespace flexfetch::trace {

void write_trace(std::ostream& os, const Trace& trace);
Trace read_trace(std::istream& is);

/// Reads one field of line `lineno` as a whole T (parse_whole); a double
/// must also be finite and non-negative. Throws TraceError naming the line
/// and the field otherwise. core::Profile::read shares it.
template <typename T>
T parse_field(std::string_view tok, const char* field, std::size_t lineno) {
  T v{};
  bool ok = parse_whole(tok, v);
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(v) && v >= 0.0;
  if (!ok) {
    throw TraceError("line " + std::to_string(lineno) + ": bad " + field + " '" +
                     std::string(tok) + "'");
  }
  return v;
}

/// Splits on every `sep`: n separators always give n + 1 fields.
std::vector<std::string_view> split_fields(std::string_view line, char sep);

void save_trace(const std::string& path, const Trace& trace);
Trace load_trace(const std::string& path);

}  // namespace flexfetch::trace
