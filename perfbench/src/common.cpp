#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <thread>

#include "workloads.hpp"

namespace perfbench {

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv1a(std::uint64_t h, std::string_view s) {
  return fnv1a(h, s.data(), s.size());
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double peak_rss_mb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  // Linux reports ru_maxrss in KiB.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int bench_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

void perturb_result(flexfetch::sim::SimResult& r) { ++r.syscalls; }

namespace {

std::uint64_t digest_trace(std::uint64_t h, const flexfetch::trace::Trace& t) {
  h = fnv1a(h, t.name());
  for (const auto& r : t) {
    h = fnv1a_value(h, r.pid);
    h = fnv1a_value(h, r.pgid);
    h = fnv1a_value(h, r.fd);
    h = fnv1a_value(h, r.inode);
    h = fnv1a_value(h, r.offset.value());
    h = fnv1a_value(h, r.size.value());
    h = fnv1a_value(h, r.op);
    h = fnv1a_value(h, r.timestamp.value());
    h = fnv1a_value(h, r.duration.value());
  }
  return h;
}

}  // namespace

std::uint64_t digest_bundle(std::uint64_t h,
                            const flexfetch::workloads::ScenarioBundle& b) {
  h = fnv1a(h, b.name);
  for (const auto& p : b.programs) {
    h = digest_trace(fnv1a(h, p.name), p.trace);
    h = fnv1a_value(h, p.profiled);
    h = fnv1a_value(h, p.disk_pinned);
  }
  for (const auto& profile : b.profiles) {
    h = fnv1a(h, profile.program());
    for (const auto& burst : profile.bursts()) {
      h = fnv1a_value(h, burst.think_before.value());
      h = fnv1a_value(h, burst.start.value());
      h = fnv1a_value(h, burst.duration.value());
      for (const auto& q : burst.requests) {
        h = fnv1a_value(h, q.inode);
        h = fnv1a_value(h, q.offset.value());
        h = fnv1a_value(h, q.size.value());
        h = fnv1a_value(h, q.is_write);
      }
    }
  }
  return digest_trace(h, b.oracle_future);
}

void PassLoop::run(const RunOptions& opt,
                   const std::function<PassResult(int, bool)>& pass) {
  // Runs one pass, times it, and applies the digest gate. Returns the
  // pass rate (tasks/s), or a negative value if the pass failed.
  const auto timed = [&](int index, bool traced) {
    const auto t0 = Clock::now();
    PassResult r;
    try {
      r = pass(index, traced);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: pass %d failed: %s\n", index, e.what());
      attempted += tasks_per_pass;
      failed += tasks_per_pass;
      return -1.0;
    }
    const double wall = seconds_between(t0, Clock::now());
    attempted += r.tasks;
    if (index == 0) {
      reference = r.digest;
      tasks_per_pass = r.tasks;
    } else if (r.digest != reference) {
      std::fprintf(stderr,
                   "perfbench: pass %d digest %s != reference %s\n", index,
                   hex64(r.digest).c_str(), hex64(reference).c_str());
      failed += r.tasks;
      return -1.0;
    }
    return wall > 0.0 ? static_cast<double>(r.tasks) / wall : 0.0;
  };

  // Warm-up pass: fills caches and fixes the reference digest. A run
  // whose first pass throws has nothing to compare against.
  if (timed(0, false) < 0.0) {
    throw std::runtime_error("warm-up pass failed");
  }
  const auto start = Clock::now();
  int index = 1;
  do {
    const double u = timed(index++, false);
    if (u > 0.0) untraced_rates.push_back(u);
    if (opt.trace) {
      const double t = timed(index++, true);
      if (t > 0.0) traced_rates.push_back(t);
    }
  } while (seconds_between(start, Clock::now()) < opt.seconds);
  if (!untraced_rates.empty()) {
    const auto [lo, hi] =
        std::minmax_element(untraced_rates.begin(), untraced_rates.end());
    std::fprintf(stderr,
                 "perfbench: %zu untraced passes, tasks/s min %.1f median "
                 "%.1f max %.1f\n",
                 untraced_rates.size(), *lo, median(untraced_rates), *hi);
  }
}

void PassLoop::check_golden(const RunOptions& opt) {
  if (opt.expect_digest.empty() || opt.expect_digest == hex64(reference)) {
    return;
  }
  std::fprintf(stderr, "perfbench: digest %s != golden %s for seed %llu\n",
               hex64(reference).c_str(), opt.expect_digest.c_str(),
               static_cast<unsigned long long>(opt.seed));
  failed = attempted;
}

void add_end_to_end(Outcome& out, const PassLoop& loop,
                    const std::vector<double>& setup_seconds,
                    const FlexFetchTotals& ff) {
  out.metrics.push_back({"sims_per_s", median(loop.untraced_rates), "1/s"});
  out.metrics.push_back({"setup_s", median(setup_seconds), "s"});
  out.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MiB"});
  out.metrics.push_back({"ff_energy_j", ff.energy_j, "J"});
  out.metrics.push_back({"ff_io_time_s", ff.io_time_s, "s"});
}

}  // namespace perfbench
