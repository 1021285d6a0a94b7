#include "fleet/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/format.hpp"

namespace flexfetch::fleet {

namespace {

using sim::RunningStat;
using sim::StratumAggregate;
using sim::SweepAggregator;
using telemetry::Histogram;

/// Stratum keys become single tokens on the line; whitespace inside one
/// would corrupt the stream (none of the paper's scenario/policy names
/// contain any — this enforces it). Metric names are tokens too, and the
/// metric table fixes them.
void check_token(const std::string& name) {
  FF_REQUIRE(!name.empty(), "checkpoint: empty token name");
  for (const char c : name) {
    FF_REQUIRE(std::isspace(static_cast<unsigned char>(c)) == 0,
               "checkpoint: whitespace in name '" + name + "'");
  }
}

/// C99 hexfloat (%a): the only printf form that round-trips every finite
/// double exactly. A non-finite value is refused here rather than
/// written as a line the reader drops.
void put_hex(std::ostream& os, double v) {
  FF_REQUIRE(std::isfinite(v), "checkpoint: non-finite value");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  os << buf;
}

/// True iff `t` reads 0x<hex>[.<hex>]p[+-]<digits>, the way %a prints a
/// finite non-negative double: no decimal, no '+', no upper case, no inf
/// or nan.
bool is_hexfloat_magnitude(std::string_view t) {
  const auto take = [&t](char c) {
    if (t.empty() || t.front() != c) return false;
    t.remove_prefix(1);
    return true;
  };
  const auto take_run = [&t](auto in_set) {
    std::size_t n = 0;
    while (n < t.size() && in_set(t[n])) ++n;
    t.remove_prefix(n);
    return n > 0;
  };
  const auto hex = [](char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
  };
  const auto dec = [](char c) { return c >= '0' && c <= '9'; };
  if (!take('0') || !take('x') || !take_run(hex)) return false;
  if (take('.') && !take_run(hex)) return false;
  return take('p') && (take('+') || take('-')) && take_run(dec) && t.empty();
}

/// Forward-only token reader over one line. Every accessor sets ok=false
/// on malformed input and the caller checks once at the end — truncated
/// (kill-mid-write) lines fail cleanly instead of throwing.
struct Cursor {
  std::string_view s;
  bool ok = true;

  std::string_view next() {
    while (!s.empty() && s.front() == ' ') s.remove_prefix(1);
    if (s.empty()) {
      ok = false;
      return {};
    }
    const std::size_t end = s.find(' ');
    const std::string_view tok = s.substr(0, end);
    s.remove_prefix(end == std::string_view::npos ? s.size() : end);
    return tok;
  }

  void expect(std::string_view keyword) {
    if (next() != keyword) ok = false;
  }

  /// The whole next token as a T in T's range (parse_whole: no sign on
  /// an unsigned T, no '+', no trailing characters).
  template <typename T>
  T whole() {
    T v{};
    if (!parse_whole(next(), v)) ok = false;
    return v;
  }

  std::uint64_t u64() { return whole<std::uint64_t>(); }

  /// The whole next token as put_hex writes it: -?<hexfloat magnitude>.
  double dbl() {
    std::string_view tok = next();
    const bool negative = tok.starts_with('-');
    if (negative) tok.remove_prefix(1);
    double v = 0.0;
    if (!ok || !is_hexfloat_magnitude(tok)) {
      ok = false;
      return v;
    }
    const char* end = tok.data() + tok.size();
    const auto [ptr, ec] =
        std::from_chars(tok.data() + 2, end, v, std::chars_format::hex);
    if (ec != std::errc{} || ptr != end) ok = false;
    return negative ? -v : v;
  }

  /// The line must be fully consumed but for trailing spaces.
  bool at_end() {
    while (!s.empty() && s.front() == ' ') s.remove_prefix(1);
    return s.empty();
  }
};

void put_stat(std::ostream& os, const RunningStat& s) {
  os << " stat " << s.count() << ' ';
  put_hex(os, s.mean());
  os << ' ';
  put_hex(os, s.m2());
  os << ' ';
  put_hex(os, s.min());
  os << ' ';
  put_hex(os, s.max());
}

RunningStat parse_stat(Cursor& c) {
  c.expect("stat");
  const std::uint64_t n = c.u64();
  const double mean = c.dbl();
  const double m2 = c.dbl();
  const double min = c.dbl();
  const double max = c.dbl();
  return RunningStat::from_raw(n, mean, m2, min, max);
}

void write_agg_tokens(std::ostream& os, const SweepAggregator& agg) {
  os << "agg " << agg.cells_seen() << " strata " << agg.strata().size();
  for (const auto& [key, st] : agg.strata()) {
    check_token(key);
    os << " key " << key << " cells " << st.cells;
    put_stat(os, st.energy_j);
    put_stat(os, st.disk_energy_j);
    put_stat(os, st.wnic_energy_j);
    put_stat(os, st.makespan_s);
    put_stat(os, st.io_time_s);
    os << " metrics " << st.metrics.items().size();
    for (const auto& [name, metric] : st.metrics.items()) {
      os << ' ' << name << ' ' << static_cast<int>(metric.kind) << ' ';
      put_hex(os, metric.value);
    }
    os << " hists " << st.metrics.histograms().size();
    for (const auto& [name, h] : st.metrics.histograms()) {
      os << ' ' << name << ' ' << h.count() << ' ';
      put_hex(os, h.sum());
      os << ' ';
      put_hex(os, h.min());
      os << ' ';
      put_hex(os, h.max());
      std::size_t populated = 0;
      for (const std::uint64_t b : h.buckets()) populated += (b != 0) ? 1 : 0;
      os << " nb " << populated;
      for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
        if (h.buckets()[i] != 0) os << ' ' << i << ' ' << h.buckets()[i];
      }
    }
  }
}

bool parse_agg_tokens(Cursor& c, SweepAggregator* agg) {
  c.expect("agg");
  const std::uint64_t total_cells = c.u64();
  c.expect("strata");
  const std::uint64_t n_strata = c.u64();
  if (!c.ok || n_strata > 1'000'000) return false;
  for (std::uint64_t s = 0; s < n_strata && c.ok; ++s) {
    c.expect("key");
    const std::string key(c.next());
    StratumAggregate st;
    c.expect("cells");
    st.cells = c.u64();
    st.energy_j = parse_stat(c);
    st.disk_energy_j = parse_stat(c);
    st.wnic_energy_j = parse_stat(c);
    st.makespan_s = parse_stat(c);
    st.io_time_s = parse_stat(c);
    // A name outside the metric table, a name given twice in one stratum
    // and a kind other than the table's are as malformed as a torn line.
    c.expect("metrics");
    const std::uint64_t n_metrics = c.u64();
    if (!c.ok || n_metrics > telemetry::kMetricCount) return false;
    for (std::uint64_t m = 0; m < n_metrics && c.ok; ++m) {
      const auto id = telemetry::find_metric(c.next());
      const std::uint64_t kind = c.u64();
      const double value = c.dbl();
      if (!c.ok || !id || st.metrics.contains(*id) ||
          kind != static_cast<std::uint64_t>(telemetry::kind_of(*id))) {
        return false;
      }
      st.metrics.restore(*id, value);
    }
    c.expect("hists");
    const std::uint64_t n_hists = c.u64();
    if (!c.ok || n_hists > telemetry::kHistCount) return false;
    for (std::uint64_t h = 0; h < n_hists && c.ok; ++h) {
      const auto id = telemetry::find_hist(c.next());
      const std::uint64_t count = c.u64();
      const double sum = c.dbl();
      const double min = c.dbl();
      const double max = c.dbl();
      c.expect("nb");
      const std::uint64_t populated = c.u64();
      if (!c.ok || populated > Histogram::kBuckets) return false;
      std::array<std::uint64_t, Histogram::kBuckets> buckets{};
      for (std::uint64_t b = 0; b < populated && c.ok; ++b) {
        const std::uint64_t i = c.u64();
        const std::uint64_t v = c.u64();
        if (!c.ok || i >= Histogram::kBuckets) return false;
        buckets[i] = v;
      }
      if (!c.ok || !id || st.metrics.find_histogram(*id) != nullptr) {
        return false;
      }
      st.metrics.histogram(*id) =
          Histogram::from_raw(count, sum, min, max, buckets);
    }
    if (!c.ok || key.empty() || agg->strata().contains(key)) return false;
    agg->restore_stratum(key, std::move(st));
  }
  return c.ok && agg->cells_seen() == total_cells;
}

}  // namespace

void write_block_line(std::ostream& os, const BlockSummary& summary) {
  os << "block " << summary.block << ' ' << summary.user_lo << ' '
     << summary.user_hi << ' ';
  write_agg_tokens(os, summary.agg);
  os << " end\n";
}

bool parse_block_line(std::string_view line, BlockSummary* out) {
  Cursor c{line};
  c.expect("block");
  BlockSummary b;
  b.block = c.u64();
  b.user_lo = c.u64();
  b.user_hi = c.u64();
  if (!c.ok || b.user_hi <= b.user_lo) return false;
  if (!parse_agg_tokens(c, &b.agg)) return false;
  c.expect("end");
  if (!c.ok || !c.at_end()) return false;
  *out = std::move(b);
  return true;
}

void write_meta_line(std::ostream& os, const ShardMeta& meta) {
  os << "meta shard " << meta.shard << " wall ";
  put_hex(os, meta.wall_seconds);
  os << " rss " << meta.peak_rss_bytes << " users " << meta.users
     << " blocks " << meta.blocks << " end\n";
}

bool parse_meta_line(std::string_view line, ShardMeta* out) {
  Cursor c{line};
  c.expect("meta");
  c.expect("shard");
  ShardMeta m;
  m.shard = c.whole<int>();
  if (m.shard < 0) c.ok = false;
  c.expect("wall");
  m.wall_seconds = c.dbl();
  c.expect("rss");
  m.peak_rss_bytes = c.u64();
  c.expect("users");
  m.users = c.u64();
  c.expect("blocks");
  m.blocks = c.u64();
  c.expect("end");
  if (!c.ok || !c.at_end()) return false;
  *out = m;
  return true;
}

std::string shard_file_name(int shard) {
  return "shard-" + std::to_string(shard);
}

CheckpointState load_checkpoint_dir(const std::string& dir) {
  CheckpointState state;
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return state;

  // Sort file names so the recovered state never depends on directory
  // iteration order (only duplicate-block resolution could see it, but
  // determinism is cheap here).
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() &&
        entry.path().filename().string().rfind("shard-", 0) == 0) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());

  for (const auto& path : files) {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("block ", 0) == 0) {
        BlockSummary b;
        if (parse_block_line(line, &b) && !state.blocks.contains(b.block)) {
          state.blocks.emplace(b.block, std::move(b));
        }
      } else if (line.rfind("meta ", 0) == 0) {
        ShardMeta m;
        if (parse_meta_line(line, &m)) state.metas.push_back(m);
      }
      // Anything else (including a torn trailing line) is skipped.
    }
  }
  return state;
}

std::string fingerprint(const sim::SweepAggregator& agg) {
  std::ostringstream os;
  write_agg_tokens(os, agg);
  return std::move(os).str();
}

}  // namespace flexfetch::fleet
