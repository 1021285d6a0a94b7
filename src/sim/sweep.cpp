#include "sim/sweep.hpp"

#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

#include "common/error.hpp"
#include "common/format.hpp"
#include "common/thread_pool.hpp"
#include "policies/factory.hpp"

namespace flexfetch::sim {

int resolve_jobs(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("FF_JOBS")) {
    int n = 0;
    FF_REQUIRE(parse_whole(env, n) && n > 0,
               "FF_JOBS must be a positive integer, got '" + std::string(env) + "'");
    return n;
  }
  // Unset: clamp to what the host can actually run in parallel.
  return static_cast<int>(ThreadPool::default_concurrency());
}

SimResult run_cell(const SweepCell& cell) {
  FF_REQUIRE(cell.scenario != nullptr, "sweep: cell has no scenario");
  SimConfig config = cell.config;
  config.wnic = cell.wnic;
  auto policy = policies::make_policy(cell.policy, cell.scenario->profiles,
                                      &cell.scenario->oracle_future,
                                      cell.loss_rate);
  Simulator simulator(config, cell.scenario->programs, *policy);
  return simulator.run();
}

std::vector<SimResult> run_sweep(const std::vector<SweepCell>& cells,
                                 const SweepOptions& options) {
  std::vector<SimResult> results(cells.size());
  run_sweep_streaming(cells, options,
                      [&results](std::size_t i, const SweepCell&,
                                 SimResult&& result) {
                        results[i] = std::move(result);
                      });
  return results;
}

void run_sweep_streaming(const std::vector<SweepCell>& cells,
                         const SweepOptions& options, const CellSink& sink) {
  FF_REQUIRE(sink != nullptr, "run_sweep_streaming: null sink");
  const int jobs = resolve_jobs(options.jobs);
  if (jobs <= 1 || cells.size() <= 1) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      sink(i, cells[i], run_cell(cells[i]));
    }
    return;
  }

  // Bounded-reorder streaming: workers take cells in grid order (the pool
  // queue is FIFO) but may finish out of order; completed results park in
  // `parked` until the emission cursor reaches them. A worker may not
  // *start* a cell more than `window` ahead of the cursor, which bounds
  // parked results — and therefore peak memory — at O(jobs).
  //
  // No deadlock: the gate admits any index < next_emit + window, and with
  // window >= jobs the cell at next_emit is always either already parked
  // (the cursor then advances) or held by a worker whose gate is open.
  const std::size_t window = static_cast<std::size_t>(jobs) * 4;
  std::mutex mu;
  std::condition_variable gate;
  std::map<std::size_t, SimResult> parked;
  std::size_t next_emit = 0;
  std::exception_ptr first_error;

  const auto run_one = [&](std::size_t i) {
    {
      std::unique_lock lock(mu);
      gate.wait(lock, [&] {
        return first_error != nullptr || i < next_emit + window;
      });
      if (first_error != nullptr) return;  // Drain without running.
    }
    SimResult result;
    std::exception_ptr error;
    try {
      result = run_cell(cells[i]);
    } catch (...) {
      error = std::current_exception();
    }
    std::unique_lock lock(mu);
    if (error != nullptr) {
      if (first_error == nullptr) first_error = error;
      gate.notify_all();
      return;
    }
    parked.emplace(i, std::move(result));
    // Whoever completes the head of the window drains every consecutive
    // parked result. The sink runs under the lock: serial, in order.
    while (first_error == nullptr && !parked.empty() &&
           parked.begin()->first == next_emit) {
      auto node = parked.extract(parked.begin());
      const std::size_t idx = node.key();
      try {
        sink(idx, cells[idx], std::move(node.mapped()));
      } catch (...) {
        if (first_error == nullptr) first_error = std::current_exception();
        break;
      }
      ++next_emit;
    }
    gate.notify_all();
  };

  {
    ThreadPool pool(static_cast<unsigned>(jobs));
    parallel_for(pool, cells.size(), run_one);
  }
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

void RunningStat::add(double x) {
  ++n_;
  if (n_ == 1) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStat::merge(const RunningStat& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n_total = na + nb;
  mean_ += delta * (nb / n_total);
  m2_ += other.m2_ + delta * delta * (na * nb / n_total);
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

void StratumAggregate::add(const SimResult& result) {
  ++cells;
  energy_j.add(result.total_energy().value());
  disk_energy_j.add(result.disk_energy().value());
  wnic_energy_j.add(result.wnic_energy().value());
  makespan_s.add(result.makespan.value());
  io_time_s.add(result.io_time.value());
  metrics.merge(result.metrics);
}

void StratumAggregate::merge(const StratumAggregate& other) {
  cells += other.cells;
  energy_j.merge(other.energy_j);
  disk_energy_j.merge(other.disk_energy_j);
  wnic_energy_j.merge(other.wnic_energy_j);
  makespan_s.merge(other.makespan_s);
  io_time_s.merge(other.io_time_s);
  metrics.merge(other.metrics);
}

void SweepAggregator::add(const SweepCell& cell, const SimResult& result) {
  ++cells_seen_;
  std::string key =
      (cell.scenario != nullptr ? cell.scenario->name : std::string{"?"});
  key += '/';
  key += cell.policy;
  strata_[std::move(key)].add(result);
}

void SweepAggregator::merge(const SweepAggregator& other) {
  cells_seen_ += other.cells_seen_;
  for (const auto& [key, st] : other.strata_) strata_[key].merge(st);
}

void SweepAggregator::restore_stratum(std::string key,
                                      StratumAggregate partial) {
  FF_REQUIRE(!strata_.contains(key),
             "sweep: restore_stratum over an existing stratum");
  cells_seen_ += partial.cells;
  strata_.emplace(std::move(key), std::move(partial));
}

std::uint64_t fold_result_digest(std::uint64_t digest,
                                 const SimResult& result) {
  const auto fold_u64 = [&digest](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      digest = (digest ^ ((v >> (byte * 8)) & 0xffULL)) * 0x100000001b3ULL;
    }
  };
  const auto fold_double = [&](double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    fold_u64(bits);
  };
  for (const char c : result.policy) {
    fold_u64(static_cast<unsigned char>(c));
  }
  fold_double(result.makespan.value());
  fold_double(result.io_time.value());
  fold_double(result.total_energy().value());
  fold_double(result.disk_energy().value());
  fold_double(result.wnic_energy().value());
  fold_u64(result.syscalls);
  fold_u64(result.disk_requests);
  fold_u64(result.net_requests);
  fold_u64(result.disk_bytes.value());
  fold_u64(result.net_bytes.value());
  return digest;
}

std::vector<SweepCell> make_grid(
    const std::vector<const workloads::ScenarioBundle*>& scenarios,
    const std::vector<std::string>& policies,
    const std::vector<device::WnicParams>& wnics, const SimConfig& base) {
  std::vector<SweepCell> cells;
  cells.reserve(scenarios.size() * policies.size() * wnics.size());
  for (const auto* scenario : scenarios) {
    for (const auto& policy : policies) {
      for (const auto& wnic : wnics) {
        SweepCell cell;
        cell.scenario = scenario;
        cell.policy = policy;
        cell.wnic = wnic;
        cell.config = base;
        cells.push_back(std::move(cell));
      }
    }
  }
  return cells;
}

namespace {

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

void write_stat(std::ostream& os, const char* key, const RunningStat& s) {
  os << '"' << key << "\": {\"mean\": " << s.mean()
     << ", \"stddev\": " << s.stddev() << ", \"min\": " << s.min()
     << ", \"max\": " << s.max() << "}";
}

}  // namespace

double histogram_quantile(const telemetry::Histogram& h, double q) {
  if (h.empty()) return 0.0;  // No samples — no quantiles to report.
  // Clamp the rank to [1, count]: q <= 0 lands on the first populated
  // bucket rather than tripping the `seen >= 0` degenerate match at
  // bucket 0, and q >= 1 is the max-populated bucket.
  const auto target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(h.count()))));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < telemetry::Histogram::kBuckets; ++b) {
    seen += h.buckets()[b];
    if (seen >= target) return telemetry::Histogram::bucket_upper_edge(b);
  }
  return h.max();
}

void write_strata_json(std::ostream& os, const SweepAggregator& agg,
                       int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  os << pad << "\"strata\": [\n";
  std::size_t i = 0;
  const auto& strata = agg.strata();
  for (const auto& [key, st] : strata) {
    os << pad << "  {\"key\": ";
    write_json_string(os, key);
    os << ", \"cells\": " << st.cells << ",\n" << pad << "   ";
    write_stat(os, "energy_j", st.energy_j);
    os << ",\n" << pad << "   ";
    write_stat(os, "disk_energy_j", st.disk_energy_j);
    os << ",\n" << pad << "   ";
    write_stat(os, "wnic_energy_j", st.wnic_energy_j);
    os << ",\n" << pad << "   ";
    write_stat(os, "makespan_s", st.makespan_s);
    os << ",\n" << pad << "   ";
    write_stat(os, "io_time_s", st.io_time_s);
    if (!st.metrics.items().empty()) {
      os << ",\n" << pad << "   \"metrics\": {";
      bool first = true;
      for (const auto& [name, metric] : st.metrics.items()) {
        if (!first) os << ", ";
        first = false;
        write_json_string(os, name);
        os << ": " << metric.value;
      }
      os << "}";
    }
    if (!st.metrics.histograms().empty()) {
      os << ",\n" << pad << "   \"histograms\": {";
      bool first = true;
      for (const auto& [name, h] : st.metrics.histograms()) {
        if (!first) os << ", ";
        first = false;
        write_json_string(os, name);
        os << ": {\"count\": " << h.count() << ", \"mean\": " << h.mean()
           << ", \"min\": " << h.min() << ", \"max\": " << h.max()
           << ", \"p50\": " << histogram_quantile(h, 0.50)
           << ", \"p99\": " << histogram_quantile(h, 0.99) << "}";
      }
      os << "}";
    }
    os << "}" << (++i < strata.size() ? "," : "") << "\n";
  }
  os << pad << "]";
}

}  // namespace flexfetch::sim
