#include "trace/trace_io.hpp"

#include <fstream>

namespace flexfetch::trace {
namespace {

[[noreturn]] void fail(std::size_t lineno, const std::string& what) {
  throw TraceError("line " + std::to_string(lineno) + ": " + what);
}

OpType parse_op(std::string_view s, std::size_t lineno) {
  if (s == "open") return OpType::kOpen;
  if (s == "close") return OpType::kClose;
  if (s == "read") return OpType::kRead;
  if (s == "write") return OpType::kWrite;
  if (s == "seek") return OpType::kSeek;
  fail(lineno, "unknown op '" + std::string(s) + "'");
}

}  // namespace

std::vector<std::string_view> split_fields(std::string_view line, char sep) {
  std::vector<std::string_view> out;
  for (std::size_t pos; (pos = line.find(sep)) != std::string_view::npos;) {
    out.push_back(line.substr(0, pos));
    line.remove_prefix(pos + 1);
  }
  out.push_back(line);
  return out;
}

void write_trace(std::ostream& os, const Trace& trace) {
  os << "# flexfetch-trace v1 name=" << trace.name() << '\n';
  for (const auto& r : trace) {
    os << format_round_trip(r.timestamp.value())
       << strprintf(",%s,%u,%u,%d,%llu,%llu,%llu,", to_string(r.op), r.pid,
                    r.pgid, r.fd, static_cast<unsigned long long>(r.inode),
                    static_cast<unsigned long long>(r.offset.value()),
                    static_cast<unsigned long long>(r.size.value()))
       << format_round_trip(r.duration.value()) << '\n';
  }
}

Trace read_trace(std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) throw TraceError("empty trace stream");
  constexpr std::string_view kMagic = "# flexfetch-trace v1";
  if (line.rfind(kMagic, 0) != 0) {
    throw TraceError("bad trace header: '" + line + "'");
  }
  Trace trace;
  const auto name_pos = line.find("name=");
  if (name_pos != std::string::npos) {
    trace.set_name(line.substr(name_pos + 5));
  }
  std::size_t lineno = 1;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    const auto fields = split_fields(line, ',');
    if (fields.size() != 9) {
      fail(lineno, "expected 9 fields, got " + std::to_string(fields.size()));
    }
    SyscallRecord r;
    r.timestamp = Seconds{parse_field<double>(fields[0], "timestamp", lineno)};
    r.op = parse_op(fields[1], lineno);
    r.pid = parse_field<Pid>(fields[2], "pid", lineno);
    r.pgid = parse_field<ProcessGroup>(fields[3], "pgid", lineno);
    r.fd = parse_field<Fd>(fields[4], "fd", lineno);  // Signed: -1 is "none".
    r.inode = parse_field<Inode>(fields[5], "inode", lineno);
    r.offset = Bytes{parse_field<std::uint64_t>(fields[6], "offset", lineno)};
    r.size = Bytes{parse_field<std::uint64_t>(fields[7], "size", lineno)};
    if (r.size.value() > ~std::uint64_t{0} - r.offset.value()) {
      fail(lineno, "offset + size overflows 64 bits");
    }
    r.duration = Seconds{parse_field<double>(fields[8], "duration", lineno)};
    trace.push_back(r);
  }
  return trace;
}

void save_trace(const std::string& path, const Trace& trace) {
  std::ofstream os(path);
  if (!os) throw TraceError("cannot open for writing: " + path);
  write_trace(os, trace);
  if (!os) throw TraceError("write failed: " + path);
}

Trace load_trace(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw TraceError("cannot open for reading: " + path);
  return read_trace(is);
}

}  // namespace flexfetch::trace
