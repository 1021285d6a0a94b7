#include "common/format.hpp"

#include <cstdarg>
#include <cstdio>
#include <vector>

namespace flexfetch {

std::string format_bytes(Bytes bytes) {
  const double b = bytes.as_double();
  if (bytes < kKiB)
    return strprintf("%llu B",
                     static_cast<unsigned long long>(bytes.value()));
  if (bytes < kMiB) return strprintf("%.1f KiB", b / kKiB.as_double());
  if (bytes < kGiB) return strprintf("%.1f MiB", b / kMiB.as_double());
  return strprintf("%.2f GiB", b / kGiB.as_double());
}

std::string format_seconds(Seconds s) {
  if (s < Seconds{}) return "-" + format_seconds(-s);
  if (s < units::us(1000.0)) return strprintf("%.1f us", s.value() * 1e6);
  if (s < Seconds{1.0}) return strprintf("%.1f ms", s.value() * 1e3);
  if (s < Seconds{120.0}) return strprintf("%.2f s", s.value());
  return strprintf("%.1f min", s.value() / 60.0);
}

std::string format_joules(Joules j) { return strprintf("%.1f J", j.value()); }

std::string format_round_trip(double v) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, end);
}

std::string strprintf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args2;
  va_copy(args2, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (needed <= 0) {
    va_end(args2);
    return {};
  }
  std::vector<char> buf(static_cast<std::size_t>(needed) + 1);
  std::vsnprintf(buf.data(), buf.size(), fmt, args2);
  va_end(args2);
  return std::string(buf.data(), static_cast<std::size_t>(needed));
}

}  // namespace flexfetch
