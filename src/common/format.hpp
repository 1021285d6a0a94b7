// Human-readable formatting helpers (std::format is unavailable on GCC 12),
// and the exact text form of numbers that the file formats write and read.
#pragma once

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>

#include "common/units.hpp"

namespace flexfetch {

/// "1.5 KiB", "240.0 MiB", ...
std::string format_bytes(Bytes bytes);

/// "12.3 ms", "4.56 s", "2.1 min", ...
std::string format_seconds(Seconds s);

/// "1522.4 J"
std::string format_joules(Joules j);

/// printf-style helper returning std::string.
std::string strprintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// The shortest text that parse_whole reads back as exactly `v`
/// (std::to_chars), so write -> read is the identity.
std::string format_round_trip(double v);

/// Reads the whole of `text` as a T in T's range (std::from_chars: no
/// whitespace, no '+', no trailing characters, and no '-' for an unsigned
/// T). A double may still come out infinite or NaN ("inf", "nan"); callers
/// that need a finite value check for it.
template <typename T>
bool parse_whole(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

}  // namespace flexfetch
