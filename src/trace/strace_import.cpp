#include "trace/strace_import.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <map>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "common/error.hpp"

namespace flexfetch::trace {
namespace {

/// One parsed strace line.
struct Line {
  Pid pid = 0;
  Seconds timestamp = Seconds{0.0};
  std::string_view syscall;
  std::string_view args;      ///< Text between the outer parentheses.
  long long result = -1;      ///< Value after '='.
  Seconds duration = Seconds{0.0};     ///< <...> suffix, if present.
};

bool skip_ws(std::string_view& s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  return !s.empty();
}

/// The number at the front of `s` (after blanks), read as a whole token
/// that ends at a blank, at `stop` or at the end of `s`: a finite decimal,
/// or nullopt. (strtod would also take hex, inf and nan; from_chars alone
/// would read the "0" of "0x64" and leave the rest for the next field.)
std::optional<double> parse_number(std::string_view& s, char stop = ' ') {
  skip_ws(s);
  std::size_t n = 0;
  while (n < s.size() && s[n] != ' ' && s[n] != '\t' && s[n] != stop) ++n;
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + n, v);
  if (n == 0 || ec != std::errc{} || ptr != s.data() + n || !std::isfinite(v)) {
    return std::nullopt;
  }
  s.remove_prefix(n);
  return v;
}

std::optional<long long> parse_int(std::string_view& s) {
  skip_ws(s);
  long long v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{}) return std::nullopt;
  s.remove_prefix(static_cast<std::size_t>(ptr - s.data()));
  return v;
}

/// Parses one strace line; nullopt if it is not a syscall line (signal
/// notes, "resumed" fragments, exit messages...). A line with a malformed or
/// non-finite timestamp or duration is nullopt too, with `bad_number` set.
std::optional<Line> parse_line(std::string_view s, const char*& bad_number) {
  Line out;
  bad_number = nullptr;
  if (!skip_ws(s)) return std::nullopt;

  // Optional pid column (strace -f).
  {
    std::string_view probe = s;
    const auto pid = parse_int(probe);
    if (pid && !probe.empty() && probe.front() == ' ') {
      // A pid column is followed by the timestamp; a timestamp itself
      // contains '.', so "1234  118000.5 read(...)" disambiguates by the
      // dot check below.
      std::string_view probe2 = probe;
      const auto maybe_ts = parse_number(probe2);
      if (maybe_ts && *pid >= 0 && s.find('.') != std::string_view::npos) {
        out.pid = static_cast<Pid>(*pid);
        s = probe;
      }
    }
  }

  const auto ts = parse_number(s);
  if (!ts) {
    bad_number = "malformed or non-finite timestamp";
    return std::nullopt;
  }
  out.timestamp = Seconds{*ts};

  if (!skip_ws(s)) return std::nullopt;
  const auto paren = s.find('(');
  if (paren == std::string_view::npos) return std::nullopt;
  out.syscall = s.substr(0, paren);
  // "<... read resumed>" style fragments are not complete calls.
  if (out.syscall.find('<') != std::string_view::npos) return std::nullopt;
  s.remove_prefix(paren + 1);

  // Find the matching close paren from the right: args may contain quoted
  // parentheses, but strace always ends the call as ")= RESULT".
  const auto eq = s.rfind('=');
  if (eq == std::string_view::npos) return std::nullopt;
  auto close = s.rfind(')', eq);
  if (close == std::string_view::npos) return std::nullopt;
  out.args = s.substr(0, close);
  s.remove_prefix(eq + 1);

  const auto result = parse_int(s);
  if (!result) return std::nullopt;
  out.result = *result;

  const auto open_angle = s.find('<');
  if (open_angle != std::string_view::npos) {
    std::string_view d = s.substr(open_angle + 1);
    const auto dur = parse_number(d, '>');
    if (!dur || *dur < 0.0 || !d.starts_with('>')) {
      bad_number = "malformed, negative or non-finite duration";
      return std::nullopt;
    }
    out.duration = Seconds{*dur};
  }
  return out;
}

/// First quoted string in an argument list (the path of open()).
std::optional<std::string> first_quoted(std::string_view args) {
  const auto open = args.find('"');
  if (open == std::string_view::npos) return std::nullopt;
  const auto close = args.find('"', open + 1);
  if (close == std::string_view::npos) return std::nullopt;
  return std::string(args.substr(open + 1, close - open - 1));
}

/// First integer argument (the fd of read/write/close/lseek).
std::optional<long long> first_int(std::string_view args) {
  return parse_int(args);
}

/// lseek(fd, offset, WHENCE) -> (offset, whence).
struct SeekArgs {
  long long offset = 0;
  std::string whence;
};

std::optional<SeekArgs> parse_seek(std::string_view args) {
  auto fd = parse_int(args);
  if (!fd) return std::nullopt;
  if (!args.empty() && args.front() == ',') args.remove_prefix(1);
  auto off = parse_int(args);
  if (!off) return std::nullopt;
  if (!args.empty() && args.front() == ',') args.remove_prefix(1);
  skip_ws(args);
  SeekArgs out;
  out.offset = *off;
  out.whence = std::string(args.substr(0, args.find_first_of(" ,)")));
  return out;
}

struct OpenFile {
  Inode inode = 0;
  Bytes offset = Bytes{0};
};

}  // namespace

Trace import_strace(std::istream& is, const std::string& name,
                    const StraceImportOptions& options) {
  Trace trace(name);
  std::unordered_map<std::string, Inode> inode_by_path;
  std::map<std::pair<Pid, Fd>, OpenFile> open_files;
  Inode next_inode = 1;
  std::optional<Seconds> origin;
  std::string raw;
  std::size_t lineno = 0;

  auto fail = [&](const std::string& what) {
    if (!options.lenient) {
      throw TraceError("strace line " + std::to_string(lineno) + ": " + what);
    }
  };

  while (std::getline(is, raw)) {
    ++lineno;
    const char* bad_number = nullptr;
    const auto parsed = parse_line(raw, bad_number);
    if (!parsed) {
      if (!raw.empty() && raw.find('(') != std::string::npos) {
        fail(bad_number != nullptr ? bad_number : "unparseable syscall line");
      }
      continue;
    }
    const Line& ln = *parsed;
    if (!origin) origin = ln.timestamp;
    const Seconds t =
        options.rebase_time ? ln.timestamp - *origin : ln.timestamp;
    if (t < Seconds{}) {
      fail("timestamp before origin");
      continue;
    }

    SyscallRecord r;
    r.pid = ln.pid;
    r.pgid = options.pgid;
    r.timestamp = t;
    r.duration = ln.duration;

    if (ln.syscall == "open" || ln.syscall == "openat" ||
        ln.syscall == "creat") {
      if (ln.result < 0) continue;  // Failed open.
      const auto path = first_quoted(ln.args);
      if (!path) {
        fail("open without a path");
        continue;
      }
      auto [it, inserted] = inode_by_path.try_emplace(*path, next_inode);
      if (inserted) ++next_inode;
      const auto fd = static_cast<Fd>(ln.result);
      open_files[{ln.pid, fd}] = OpenFile{it->second, Bytes{}};
      r.op = OpType::kOpen;
      r.fd = fd;
      r.inode = it->second;
      trace.push_back(r);
    } else if (ln.syscall == "close") {
      const auto fd = first_int(ln.args);
      if (!fd) continue;
      auto it = open_files.find({ln.pid, static_cast<Fd>(*fd)});
      if (it == open_files.end()) continue;  // Sockets, pipes, ...
      r.op = OpType::kClose;
      r.fd = static_cast<Fd>(*fd);
      r.inode = it->second.inode;
      trace.push_back(r);
      open_files.erase(it);
    } else if (ln.syscall == "read" || ln.syscall == "write" ||
               ln.syscall == "pread64" || ln.syscall == "pwrite64") {
      if (ln.result <= 0) continue;  // EOF or error: no data moved.
      const auto fd = first_int(ln.args);
      if (!fd) {
        fail("read/write without fd");
        continue;
      }
      auto it = open_files.find({ln.pid, static_cast<Fd>(*fd)});
      if (it == open_files.end()) continue;  // Not a traced file.
      OpenFile& f = it->second;
      const bool is_write =
          ln.syscall == "write" || ln.syscall == "pwrite64";
      r.op = is_write ? OpType::kWrite : OpType::kRead;
      r.fd = static_cast<Fd>(*fd);
      r.inode = f.inode;
      r.offset = f.offset;
      r.size = Bytes{static_cast<std::uint64_t>(ln.result)};
      trace.push_back(r);
      // p{read,write} do not advance the descriptor; plain calls do. The
      // explicit offset of p* calls is the third argument, which we treat
      // as the running offset for simplicity of the common -e trace set.
      if (ln.syscall == "read" || ln.syscall == "write") {
        f.offset += Bytes{static_cast<std::uint64_t>(ln.result)};
      }
    } else if (ln.syscall == "lseek" || ln.syscall == "_llseek") {
      const auto seek = parse_seek(ln.args);
      if (!seek) {
        fail("bad lseek arguments");
        continue;
      }
      auto it = open_files.find(
          {ln.pid, static_cast<Fd>(first_int(ln.args).value_or(-1))});
      if (it == open_files.end()) continue;
      // The kernel-resolved position is the return value for SEEK_CUR/END.
      it->second.offset =
          ln.result >= 0
              ? Bytes{static_cast<std::uint64_t>(ln.result)}
              : Bytes{static_cast<std::uint64_t>(
                    std::max<long long>(seek->offset, 0))};
      r.op = OpType::kSeek;
      r.inode = it->second.inode;
      r.offset = it->second.offset;
      trace.push_back(r);
    }
  }
  trace.validate();
  return trace;
}

Trace import_strace_file(const std::string& path,
                         const StraceImportOptions& options) {
  std::ifstream is(path);
  if (!is) throw TraceError("cannot open strace log: " + path);
  std::string name = path;
  const auto slash = name.find_last_of('/');
  if (slash != std::string::npos) name = name.substr(slash + 1);
  return import_strace(is, name, options);
}

}  // namespace flexfetch::trace
