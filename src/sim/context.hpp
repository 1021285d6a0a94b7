// Read/write view of the simulated machine handed to policies.
#pragma once

#include "common/units.hpp"
#include "device/disk.hpp"
#include "device/wnic.hpp"
#include "energy/battery.hpp"
#include "os/file_layout.hpp"
#include "os/vfs.hpp"
#include "telemetry/recorder.hpp"

namespace flexfetch::faults {
struct FaultSchedule;
class SimAudit;
}  // namespace flexfetch::faults

namespace flexfetch::sim {

class SimContext {
 public:
  SimContext(device::Disk& disk, device::Wnic& wnic, os::Vfs& vfs,
             os::FileLayout& layout, telemetry::Recorder* recorder = nullptr,
             const faults::FaultSchedule* faults = nullptr,
             faults::SimAudit* audit = nullptr)
      : disk_(disk), wnic_(wnic), vfs_(vfs), layout_(layout),
        recorder_(recorder), faults_(faults), audit_(audit) {}

  Seconds now() const { return now_; }
  void set_now(Seconds t) { now_ = t; }

  device::Disk& disk() { return disk_; }
  const device::Disk& disk() const { return disk_; }
  device::Wnic& wnic() { return wnic_; }
  const device::Wnic& wnic() const { return wnic_; }

  os::Vfs& vfs() { return vfs_; }
  const os::Vfs& vfs() const { return vfs_; }
  os::FileLayout& layout() { return layout_; }

  /// The simulator's event recorder, or nullptr when telemetry is off.
  /// Policies may emit their own events through it.
  telemetry::Recorder* recorder() const { return recorder_; }

  /// The run's fault schedule, or nullptr when no faults are injected.
  /// Policies may consult it to react to an ongoing outage/stall.
  const faults::FaultSchedule* faults() const { return faults_; }

  /// The run's invariant auditor, or nullptr when auditing is off.
  faults::SimAudit* audit() const { return audit_; }

  /// The simulator's battery tracker (read-only for policies; the
  /// simulator owns and advances it), or nullptr when no battery is
  /// modeled (contexts built outside a Simulator). Adaptive loss-rate
  /// curves read their BatteryState here.
  const energy::BatteryTracker* battery() const { return battery_; }
  void set_battery(const energy::BatteryTracker* battery) {
    battery_ = battery;
  }

 private:
  Seconds now_ = Seconds{0.0};
  device::Disk& disk_;
  device::Wnic& wnic_;
  os::Vfs& vfs_;
  os::FileLayout& layout_;
  telemetry::Recorder* recorder_ = nullptr;
  const faults::FaultSchedule* faults_ = nullptr;
  faults::SimAudit* audit_ = nullptr;
  const energy::BatteryTracker* battery_ = nullptr;
};

}  // namespace flexfetch::sim
