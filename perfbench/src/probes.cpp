#include "probes.hpp"

#include <algorithm>
#include <memory>
#include <optional>

#include "common.hpp"
#include "core/decision.hpp"
#include "core/estimator.hpp"
#include "core/stage.hpp"
#include "device/disk.hpp"
#include "device/wnic.hpp"
#include "os/file_layout.hpp"
#include "os/io_scheduler.hpp"
#include "os/vfs.hpp"
#include "trace/compiled.hpp"

namespace perfbench {

namespace ff = flexfetch;

namespace {

/// Runs fn and adds its wall time to `acc`.
template <typename Fn>
void timed(double& acc, Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  acc += seconds_between(t0, Clock::now());
}

/// The evaluation-stage length FlexFetch segments profiles with.
constexpr ff::Seconds kStageMinLength{40.0};

}  // namespace

void ProbeTotals::merge(const ProbeTotals& o) {
  tasks += o.tasks;
  vfs_construct_s += o.vfs_construct_s;
  plans += o.plans;
  plan_s += o.plan_s;
  cscan_requests += o.cscan_requests;
  cscan_s += o.cscan_s;
  disk_services += o.disk_services;
  disk_s += o.disk_s;
  wnic_services += o.wnic_services;
  wnic_s += o.wnic_s;
  estimates += o.estimates;
  estimate_s += o.estimate_s;
}

ProbeTotals probe_task(const std::vector<ff::sim::ProgramSpec>& programs,
                       const ff::sim::SimConfig& config,
                       const std::vector<ff::core::Profile>& profiles,
                       double loss_rate) {
  ProbeTotals t;
  t.tasks = 1;
  std::optional<ff::os::Vfs> vfs;
  timed(t.vfs_construct_s, [&] { vfs.emplace(config.vfs); });
  ff::os::FileLayout layout(config.disk.capacity, config.layout_seed);
  ff::os::CScanScheduler scheduler;
  ff::device::Disk disk(config.disk);
  ff::device::Wnic wnic(config.wnic);
  const ff::device::Disk disk_at_start = disk;
  const ff::device::Wnic wnic_at_start = wnic;

  std::vector<std::shared_ptr<const ff::trace::CompiledTrace>> compiled;
  for (const auto& p : programs) {
    compiled.push_back(p.compiled != nullptr
                           ? p.compiled
                           : std::make_shared<const ff::trace::CompiledTrace>(
                                 p.trace));
    layout.place_all(compiled.back()->file_extents());
  }

  ff::os::ReadPlan read_plan;
  ff::os::WritePlan write_plan;
  for (std::size_t p = 0; p < programs.size(); ++p) {
    const ff::trace::Trace& trace = programs[p].trace;
    const ff::trace::CompiledTrace& ct = *compiled[p];
    ff::Seconds now = ct.start_time();
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (i > 0) now += ct.think(i);
      const ff::trace::SyscallRecord& r = trace[i];
      if (r.op == ff::trace::OpType::kWrite) {
        timed(t.plan_s, [&] {
          vfs->plan_write(r, now, ct.first_page(i), ct.end_page(i),
                          write_plan);
        });
        ++t.plans;
        continue;
      }
      if (r.op != ff::trace::OpType::kRead) continue;
      timed(t.plan_s, [&] {
        vfs->plan_read(r, now, layout.extent_of(r.inode), ct.first_page(i),
                       ct.end_page(i), read_plan);
      });
      ++t.plans;
      for (const auto& range : read_plan.fetches) {
        layout.ensure(range.inode, range.offset() + range.size());
        const ff::device::DeviceRequest req{
            .lba = layout.lba(range.inode, range.offset()),
            .size = range.size(),
            .is_write = false};
        timed(t.cscan_s, [&] { scheduler.submit(req); });
        ++t.cscan_requests;
      }
      ff::Seconds done = now;
      for (;;) {
        std::optional<ff::device::DeviceRequest> req;
        timed(t.cscan_s, [&] { req = scheduler.dispatch(); });
        if (!req) break;
        ff::device::ServiceResult res;
        timed(t.disk_s, [&] { res = disk.service(now, *req); });
        ++t.disk_services;
        timed(t.wnic_s, [&] { wnic.service(now, *req); });
        ++t.wnic_services;
        done = std::max(done, res.completion);
      }
      now = done;
    }
  }

  if (!profiles.empty()) {
    const ff::core::Profile merged =
        profiles.size() == 1 ? profiles.front()
                             : ff::core::Profile::merge(profiles, "<merged>");
    timed(t.estimate_s, [&] {
      for (const auto& stage :
           ff::core::segment_stages(merged, kStageMinLength)) {
        const auto bursts = merged.span(stage.first_burst, stage.burst_count);
        const auto d = ff::core::SourceEstimator::estimate_disk(
            disk_at_start, bursts, stage.start, layout);
        const auto n = ff::core::SourceEstimator::estimate_network(
            wnic_at_start, bursts, stage.start);
        ff::core::decide_source(d, n, loss_rate);
        ++t.estimates;
      }
    });
  }
  return t;
}

}  // namespace perfbench
