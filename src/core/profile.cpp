#include "core/profile.hpp"

#include <algorithm>
#include <istream>
#include <ostream>

#include "common/error.hpp"
#include "common/format.hpp"
#include "trace/trace_io.hpp"

namespace flexfetch::core {

namespace {

[[noreturn]] void fail(std::size_t lineno, const std::string& what) {
  throw TraceError("profile line " + std::to_string(lineno) + ": " + what);
}

}  // namespace

Profile Profile::from_trace(const trace::Trace& trace, Seconds burst_threshold) {
  return Profile(trace.name(), extract_bursts(trace, burst_threshold));
}

Profile Profile::merge(const std::vector<Profile>& profiles, std::string name) {
  std::vector<IOBurst> all;
  for (const auto& p : profiles) {
    all.insert(all.end(), p.bursts().begin(), p.bursts().end());
  }
  std::stable_sort(all.begin(), all.end(), [](const IOBurst& a, const IOBurst& b) {
    return a.start < b.start;
  });
  // Recompute think gaps against the interleaved order.
  Seconds prev_end = Seconds{0.0};
  for (auto& b : all) {
    b.think_before = std::max(Seconds{}, b.start - prev_end);
    prev_end = std::max(prev_end, b.end());
  }
  return Profile(std::move(name), std::move(all));
}

std::span<const IOBurst> Profile::span(std::size_t first, std::size_t count) const {
  FF_ASSERT(first <= bursts_.size());
  count = std::min(count, bursts_.size() - first);
  return std::span<const IOBurst>(bursts_.data() + first, count);
}

Bytes Profile::total_bytes() const {
  Bytes sum = Bytes{0};
  for (const auto& b : bursts_) sum += b.total_bytes();
  return sum;
}

Seconds Profile::span_seconds() const {
  return bursts_.empty() ? Seconds{} : bursts_.back().end();
}

std::vector<Bytes> Profile::byte_prefix_sums() const {
  std::vector<Bytes> sums(bursts_.size() + 1, Bytes{});
  for (std::size_t i = 0; i < bursts_.size(); ++i) {
    sums[i + 1] = sums[i] + bursts_[i].total_bytes();
  }
  return sums;
}

void Profile::write(std::ostream& os) const {
  os << "# flexfetch-profile v1 name=" << program_ << '\n';
  for (const auto& b : bursts_) {
    os << "burst," << format_round_trip(b.think_before.value()) << ','
       << format_round_trip(b.start.value()) << ','
       << format_round_trip(b.duration.value()) << ',' << b.requests.size()
       << '\n';
    for (const auto& r : b.requests) {
      os << "req," << r.inode << ',' << r.offset.value() << ','
         << r.size.value() << ',' << (r.is_write ? 1 : 0) << '\n';
    }
  }
}

Profile Profile::read(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) ||
      line.rfind("# flexfetch-profile v1", 0) != 0) {
    throw TraceError("bad profile header");
  }
  Profile p;
  const auto name_pos = line.find("name=");
  if (name_pos != std::string::npos) p.program_ = line.substr(name_pos + 5);

  IOBurst* open = nullptr;
  std::size_t expected = 0;
  std::size_t lineno = 1;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    const auto f = trace::split_fields(line, ',');
    if (f[0] != "burst" && f[0] != "req") {
      fail(lineno, "unknown tag '" + std::string(f[0]) + "'");
    }
    if (f.size() != 5) {
      fail(lineno, "expected 5 fields, got " + std::to_string(f.size()));
    }
    if (f[0] == "burst") {
      if (open != nullptr && open->requests.size() != expected) {
        fail(lineno, "truncated burst");
      }
      IOBurst b;
      b.think_before = Seconds{trace::parse_field<double>(f[1], "think", lineno)};
      b.start = Seconds{trace::parse_field<double>(f[2], "start", lineno)};
      b.duration = Seconds{trace::parse_field<double>(f[3], "duration", lineno)};
      expected = trace::parse_field<std::size_t>(f[4], "request count", lineno);
      p.bursts_.push_back(b);
      open = &p.bursts_.back();
    } else {
      if (open == nullptr) fail(lineno, "request before burst");
      BurstRequest r;
      r.inode = trace::parse_field<trace::Inode>(f[1], "inode", lineno);
      r.offset = Bytes{trace::parse_field<std::uint64_t>(f[2], "offset", lineno)};
      r.size = Bytes{trace::parse_field<std::uint64_t>(f[3], "size", lineno)};
      const auto is_write = trace::parse_field<unsigned>(f[4], "is_write", lineno);
      if (is_write > 1) fail(lineno, "is_write must be 0 or 1");
      r.is_write = is_write == 1;
      open->requests.push_back(r);
    }
  }
  if (open != nullptr && open->requests.size() != expected) {
    fail(lineno, "truncated final burst");
  }
  return p;
}

}  // namespace flexfetch::core
