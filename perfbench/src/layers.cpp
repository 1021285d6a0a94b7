#include "layers.hpp"

#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/flexfetch.hpp"
#include "policies/factory.hpp"
#include "sim/simulator.hpp"
#include "spans.hpp"
#include "trace/compiled.hpp"

namespace perfbench {

namespace ff = flexfetch;

namespace {

/// Every per-layer metric with its unit, in print order.
const std::vector<std::pair<std::string, std::string>>& layer_list() {
  static const std::vector<std::pair<std::string, std::string>> list = {
      {"workloads.build_ms", "ms"},
      {"trace.compile_ms", "ms"},
      {"fleet.catalog_build_ms", "ms"},
      {"policies.make_us", "us"},
      {"sim.construct_us", "us"},
      {"os.vfs_construct_us", "us"},
      {"sim.run_ms", "ms"},
      {"sim.events", "count"},
      {"sim.step_ns", "ns"},
      {"sim.syscalls", "count"},
      {"os.vfs.plan_ns", "ns"},
      {"os.cache.lookups", "count"},
      {"os.cache.hit_rate", "ratio"},
      {"os.cache.evictions", "count"},
      {"os.cscan.ns_per_request", "ns"},
      {"os.cscan.merge_ratio", "ratio"},
      {"os.writeback.flushes", "count"},
      {"device.disk.service_ns", "ns"},
      {"device.disk.requests", "count"},
      {"device.disk.spin_ups", "count"},
      {"device.wnic.service_ns", "ns"},
      {"device.wnic.requests", "count"},
      {"device.wnic.wakes", "count"},
      {"core.estimate_us", "us"},
      {"core.replay_ratio", "ratio"},
      {"core.shadow_replayed", "count"},
      {"core.decisions", "count"},
      {"telemetry.overhead_pct", "%"},
      {"sweep.busy_frac", "ratio"},
      {"sweep.aggregate_us", "us"},
      {"fleet.block_ms", "ms"},
      {"fleet.checkpoint_write_us", "us"},
      {"fleet.checkpoint_bytes", "bytes"},
      {"fleet.load_merge_ms", "ms"},
      {"medium.run_ms", "ms"},
      {"medium.ns_per_syscall", "ns"},
      {"medium.transfers", "count"},
      {"medium.contended_frac", "ratio"},
      {"medium.queue_waits", "count"},
      {"trace_overhead_pct", "%"},
  };
  return list;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double per_call(const SpanTotals& t, double scale) {
  return ratio(t.total_s * scale, static_cast<double>(t.count));
}

}  // namespace

void TaskCounts::add(const ff::sim::SimResult& r) {
  ++tasks;
  syscalls += r.syscalls;
  cache_lookups += r.cache_stats.lookups;
  cache_hits += r.cache_stats.hits;
  cache_evictions += r.cache_stats.evictions;
  sched_submitted += r.scheduler_stats.submitted;
  sched_merged += r.scheduler_stats.merged;
  disk_requests += r.disk_counters.requests;
  disk_spin_ups += r.disk_counters.spin_ups;
  wnic_requests += r.wnic_counters.requests;
  wnic_wakes += r.wnic_counters.wakes;
}

void TaskCounts::add(const ff::sim::Policy& policy) {
  const auto* f = dynamic_cast<const ff::core::FlexFetchPolicy*>(&policy);
  if (f == nullptr) return;
  ff_tracked += f->stats().syscalls_tracked;
  ff_replayed += f->stats().estimator_requests_replayed;
  ff_shadow += f->stats().shadow_requests_replayed;
  ff_decisions += f->decision_log().size();
}

void TaskCounts::merge(const TaskCounts& o) {
  tasks += o.tasks;
  events += o.events;
  syscalls += o.syscalls;
  cache_lookups += o.cache_lookups;
  cache_hits += o.cache_hits;
  cache_evictions += o.cache_evictions;
  sched_submitted += o.sched_submitted;
  sched_merged += o.sched_merged;
  disk_requests += o.disk_requests;
  disk_spin_ups += o.disk_spin_ups;
  wnic_requests += o.wnic_requests;
  wnic_wakes += o.wnic_wakes;
  ff_tracked += o.ff_tracked;
  ff_replayed += o.ff_replayed;
  ff_shadow += o.ff_shadow;
  ff_decisions += o.ff_decisions;
}

ff::sim::SimResult run_traced_cell(const ff::sim::SweepCell& cell,
                                   std::uint64_t task, TaskCounts& counts) {
  ScopedSpan task_span("task", task);
  ff::sim::SimConfig config = cell.config;
  config.wnic = cell.wnic;
  std::unique_ptr<ff::sim::Policy> policy;
  {
    ScopedSpan s("policies.make", task);
    policy = ff::policies::make_policy(cell.policy, cell.scenario->profiles,
                                       &cell.scenario->oracle_future,
                                       cell.loss_rate);
  }
  std::optional<ff::sim::Simulator> sim;
  {
    ScopedSpan s("sim.construct", task);
    sim.emplace(config, cell.scenario->programs, *policy);
  }
  {
    ScopedSpan s("sim.start", task);
    sim->start();
  }
  {
    ScopedSpan s("sim.step_loop", task);
    while (sim->step()) ++counts.events;
  }
  ff::sim::SimResult result;
  {
    ScopedSpan s("sim.finish", task);
    result = sim->finish();
  }
  counts.add(result);
  counts.add(*policy);
  return result;
}

void time_trace_compile(
    const std::vector<ff::workloads::ScenarioBundle>& bundles) {
  ScopedSpan s("trace.compile", 0);
  for (const auto& b : bundles) {
    for (const auto& p : b.programs) ff::trace::CompiledTrace ct(p.trace);
  }
}

double span_mean(const std::string& name, double scale) {
  return per_call(span_totals(name), scale);
}

void fill_task_layers(LayerValues& v, const TaskCounts& c,
                      const ProbeTotals& p) {
  const auto d = [](std::uint64_t x) { return static_cast<double>(x); };
  v["policies.make_us"] = span_mean("policies.make", 1e6);
  v["sim.construct_us"] = span_mean("sim.construct", 1e6);
  v["os.vfs_construct_us"] = ratio(p.vfs_construct_s * 1e6, d(p.tasks));

  // Every traced pass runs the same tasks, so the step-loop spans cover
  // (spans / tasks) passes of c.events events each.
  const SpanTotals start = span_totals("sim.start");
  const SpanTotals loop = span_totals("sim.step_loop");
  const SpanTotals finish = span_totals("sim.finish");
  v["sim.run_ms"] = ratio((start.total_s + loop.total_s + finish.total_s) * 1e3,
                          d(start.count));
  v["sim.events"] = d(c.events);
  v["sim.step_ns"] = ratio(loop.total_s * 1e9,
                           d(c.events) * ratio(d(loop.count), d(c.tasks)));
  v["sim.syscalls"] = d(c.syscalls);

  v["os.vfs.plan_ns"] = ratio(p.plan_s * 1e9, d(p.plans));
  v["os.cache.lookups"] = d(c.cache_lookups);
  v["os.cache.hit_rate"] = ratio(d(c.cache_hits), d(c.cache_lookups));
  v["os.cache.evictions"] = d(c.cache_evictions);
  v["os.cscan.ns_per_request"] = ratio(p.cscan_s * 1e9, d(p.cscan_requests));
  v["os.cscan.merge_ratio"] = ratio(d(c.sched_merged), d(c.sched_submitted));

  v["device.disk.service_ns"] = ratio(p.disk_s * 1e9, d(p.disk_services));
  v["device.disk.requests"] = d(c.disk_requests);
  v["device.disk.spin_ups"] = d(c.disk_spin_ups);
  v["device.wnic.service_ns"] = ratio(p.wnic_s * 1e9, d(p.wnic_services));
  v["device.wnic.requests"] = d(c.wnic_requests);
  v["device.wnic.wakes"] = d(c.wnic_wakes);

  v["core.estimate_us"] = ratio(p.estimate_s * 1e6, d(p.estimates));
  v["core.replay_ratio"] = ratio(d(c.ff_replayed), d(c.ff_tracked));
  v["core.shadow_replayed"] = d(c.ff_shadow);
  v["core.decisions"] = d(c.ff_decisions);
}

void fill_trace_overhead(LayerValues& v, const PassLoop& loop) {
  const double traced = median(loop.traced_rates);
  v["trace_overhead_pct"] =
      traced > 0.0 ? 100.0 * (median(loop.untraced_rates) / traced - 1.0)
                   : 0.0;
}

double telemetry_overhead_pct(const PassLoop& loop, std::uint64_t tasks,
                              double seconds) {
  return tasks > 0 ? 100.0 * (median(loop.untraced_rates) * seconds /
                                  static_cast<double>(tasks) -
                              1.0)
                   : 0.0;
}

void emit_layers(Outcome& out, const LayerValues& values) {
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const auto& entry : layer_list()) known = known || entry.first == name;
    if (!known) throw std::logic_error("unlisted layer metric " + name);
  }
  for (const auto& [name, unit] : layer_list()) {
    const auto it = values.find(name);
    out.layers.push_back({name, it == values.end() ? 0.0 : it->second, unit});
  }
}

double writeback_flushes(const ff::telemetry::MetricsRegistry& m) {
  return m.value("wb.sync_flushes") + m.value("wb.periodic_flushes");
}

}  // namespace perfbench
