#include "core/estimator.hpp"

#include <algorithm>

namespace flexfetch::core {
namespace {

/// Replays bursts on a detached copy of the live device; Device is Disk or
/// Wnic (both expose detached_copy(), service(t, req) and meter()). The
/// copy is explicitly detached from telemetry so a counterfactual replay
/// can never emit phantom events into the live recorder; it shares the
/// live device's fault schedule, so the estimate prices upcoming outages
/// and stalls.
template <typename Device, typename MakeRequest>
Estimate replay(const Device& live, std::span<const IOBurst> bursts,
                Seconds start_time, const CacheFilter* filter,
                MakeRequest&& make_request) {
  Device dev = live.detached_copy();
  const Joules energy_before = dev.meter().total();
  Seconds t = std::max(start_time, dev.now());
  for (const IOBurst& burst : bursts) {
    // Inter-burst think time: the device idles (and may drop to its
    // low-power state) while the program computes — so a sparse stage
    // naturally charges the disk its idle/rundown cycles.
    t += burst.think_before;
    for (const BurstRequest& r : burst.requests) {
      if (filter != nullptr && (*filter)(r)) continue;
      const auto res = dev.service(t, make_request(r));
      t = res.completion;
    }
  }
  // The horizon ends with the last burst: for a continuous workload the
  // next stage follows immediately, so charging a hypothetical rundown
  // here would systematically overprice the disk. Short splice horizons,
  // where the end-of-horizon truncation would bias the comparison, are
  // gated by the caller (FlexFetchPolicy) instead.
  dev.advance_to(t);
  return Estimate{.time = t - start_time,
                  .energy = dev.meter().total() - energy_before};
}

}  // namespace

Estimate SourceEstimator::estimate_disk(const device::Disk& live_disk,
                                        std::span<const IOBurst> bursts,
                                        Seconds start_time,
                                        os::FileLayout& layout,
                                        const CacheFilter* filter) {
  return replay(live_disk, bursts, start_time, filter,
                [&layout](const BurstRequest& r) {
                  const trace::FileId file = layout.ensure(r.inode, r.offset + r.size);
                  return device::DeviceRequest{
                      .lba = layout.lba(file, r.offset),
                      .size = r.size,
                      .is_write = r.is_write,
                  };
                });
}

Estimate SourceEstimator::estimate_network(const device::Wnic& live_wnic,
                                           std::span<const IOBurst> bursts,
                                           Seconds start_time,
                                           const CacheFilter* filter) {
  return replay(live_wnic, bursts, start_time, filter,
                [](const BurstRequest& r) {
                  return device::DeviceRequest{
                      .lba = Bytes{}, .size = r.size, .is_write = r.is_write};
                });
}

}  // namespace flexfetch::core
