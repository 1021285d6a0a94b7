// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload grid|fleet|crowd --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--expect-digest HEX]
//             [--inputs-digest] [--perturb]
//
// Prints, as its last stdout line, one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics of an
// untraced run, or the per-layer metrics of a traced one. The line
// before it ("perfbench-record {...}") carries the run's digest and build
// provenance. A traced run also writes its spans to the work directory.
// perfbench/run.py builds this program and is the usual entry point.

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "spans.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_LTO
#define PERFBENCH_LTO 0
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload grid|fleet|crowd --seed N "
               "--seconds S --trace 0|1\n"
               "                 [--work-dir DIR] [--expect-digest HEX] "
               "[--inputs-digest] [--perturb]\n",
               why);
  std::exit(2);
}

/// Parses a whole decimal token into [lo, hi]; usage error otherwise.
std::uint64_t parse_uint(const char* flag, const char* s, std::uint64_t lo,
                         std::uint64_t hi) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*s == '\0' || *s == '-' || *end != '\0' || errno != 0 || v < lo ||
      v > hi) {
    usage((std::string("bad value for ") + flag + ": '" + s + "'").c_str());
  }
  return v;
}

RunOptions parse(int argc, char** argv) {
  RunOptions o;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
      if (o.workload != "grid" && o.workload != "fleet" &&
          o.workload != "crowd") {
        usage(("unknown workload '" + o.workload + "'").c_str());
      }
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = parse_uint("--seed", value(), 0, UINT64_MAX);
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = static_cast<double>(parse_uint("--seconds", value(), 1, 3600));
      have_seconds = true;
    } else if (a == "--trace") {
      o.trace = parse_uint("--trace", value(), 0, 1) == 1;
      have_trace = true;
    } else if (a == "--work-dir") {
      o.work_dir = value();
    } else if (a == "--expect-digest") {
      o.expect_digest = value();
    } else if (a == "--inputs-digest") {
      o.inputs_digest = true;
    } else if (a == "--perturb") {
      o.perturb = true;
    } else {
      usage(("unknown argument '" + a + "'").c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!o.inputs_digest && !(have_seed && have_seconds && have_trace)) {
    usage("--seed, --seconds and --trace are required");
  }
  return o;
}

void print_metrics(const std::vector<Metric>& metrics) {
  std::printf("{");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // JSON has no NaN or infinity; a metric that came out non-finite is a
    // benchmark bug, reported as 0 rather than as an unparsable line.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}");
}

int run(const RunOptions& opt) {
  if (opt.inputs_digest) {
    const std::uint64_t h = opt.workload == "grid"    ? grid_inputs_digest(opt.seed)
                            : opt.workload == "fleet" ? fleet_inputs_digest(opt.seed)
                                                      : crowd_inputs_digest(opt.seed);
    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"inputs_digest\": \"%s\"}\n",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                hex64(h).c_str());
    return 0;
  }
  std::filesystem::create_directories(opt.work_dir);
  const Outcome out = opt.workload == "grid"    ? run_grid(opt)
                      : opt.workload == "fleet" ? run_fleet(opt)
                                                : run_crowd(opt);
  if (opt.trace) {
    const std::string path = opt.work_dir + "/spans-" + opt.workload +
                             "-seed" + std::to_string(opt.seed) + ".json";
    if (!write_spans(path, opt.workload, opt.seed)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "perfbench: spans written to %s\n", path.c_str());
    std::fprintf(stderr, "%-24s %8s %12s %12s\n", "span", "count", "total_s",
                 "self_s");
    for (const auto& [name, t] : span_totals()) {
      std::fprintf(stderr, "%-24s %8llu %12.6f %12.6f\n", name.c_str(),
                   static_cast<unsigned long long>(t.count), t.total_s,
                   t.self_s);
    }
  }
  std::printf("perfbench-record {\"workload\": \"%s\", \"seed\": %llu, "
              "\"trace\": %d, \"digest\": \"%s\", \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"lto\": %s, \"jobs\": %d}\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0, hex64(out.digest).c_str(), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE, PERFBENCH_LTO ? "true" : "false",
              bench_jobs());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": ",
              out.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  print_metrics(opt.trace ? out.layers : out.metrics);
  std::printf("}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const RunOptions opt = parse(argc, argv);
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
