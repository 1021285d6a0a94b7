// Trace-driven discrete-event simulator of the mobile I/O stack.
//
// Replays one or more syscall traces closed-loop (request i+1 becomes ready
// `think time` after request i completes, so wall-clock time depends on the
// chosen devices), through the VFS (buffer cache + readahead), to the disk
// and WNIC power models, under a pluggable data-source Policy. This is the
// counterpart of the simulator described in Section 3.1 of the paper.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "device/adaptive_timeout.hpp"
#include "device/disk.hpp"
#include "device/wnic.hpp"
#include "energy/battery.hpp"
#include "faults/audit.hpp"
#include "faults/schedule.hpp"
#include "hoard/sync.hpp"
#include "medium/link.hpp"
#include "os/file_layout.hpp"
#include "os/io_scheduler.hpp"
#include "os/vfs.hpp"
#include "sim/context.hpp"
#include "sim/policy.hpp"
#include "sim/results.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/recorder.hpp"
#include "trace/compiled.hpp"
#include "trace/trace.hpp"

namespace flexfetch::sim {

/// One program participating in a simulation.
struct ProgramSpec {
  trace::Trace trace;
  std::string name;
  /// Tracked by FlexFetch profiles (Section 2.3.3 distinguishes profiled
  /// programs from other disk users).
  bool profiled = true;
  /// Data exists only on the local disk (forces all its requests there),
  /// like the xmms MP3 files of Section 3.3.4.
  bool disk_pinned = false;
  /// The compiled form of `trace` within its program set (derived data
  /// only — see trace/compiled.hpp), set by compile_programs. Every
  /// simulation of the same programs shares it; the Simulator requires it.
  std::shared_ptr<const trace::CompiledTrace> compiled = nullptr;
};

/// Compiles `programs` as one set and returns them with `compiled` set:
/// program i's compiled form is the set's program i, and it keeps the whole
/// set alive. Copies of the returned specs share the records and the set.
std::vector<ProgramSpec> compile_programs(std::vector<ProgramSpec> programs);

struct SimConfig {
  device::DiskParams disk = device::DiskParams::hitachi_dk23da_distance();
  device::WnicParams wnic = device::WnicParams::cisco_aironet350();
  os::VfsConfig vfs;
  std::uint64_t layout_seed = 42;
  /// Run the periodic background flusher (asynchronous write-back).
  bool enable_writeback = true;
  /// Order batched disk requests with the C-SCAN elevator (false = FIFO,
  /// for the scheduler ablation; only measurable with the kDistance disk
  /// seek model).
  bool use_cscan = true;
  /// When set, run the replica synchronization daemon: local writes
  /// accumulate upload debt that is periodically shipped to the server over
  /// the WNIC (the hoarding-system traffic the paper's Section 5 assumes
  /// away).
  std::optional<hoard::SyncConfig> sync;
  /// When set, adapt the disk's spin-down timeout at run time
  /// (Douglis/Helmbold style, the paper's Section 4 related work) instead
  /// of the fixed laptop-mode 20 s.
  std::optional<device::AdaptiveTimeoutConfig> adaptive_timeout;
  /// Keep a per-request log in the result (memory-hungry; off by default).
  bool collect_request_log = false;
  /// Battery model fed by the event loop (validated at construction).
  /// The defaults — full charge, on battery — reproduce the paper's
  /// setting; adaptive loss-rate policies read the tracked state through
  /// SimContext::battery().
  energy::BatteryParams battery;
  /// Structured event tracing + metrics (off by default; when off, the
  /// instrumentation cost is one null-pointer branch per site).
  telemetry::TelemetryConfig telemetry;
  /// Deterministic injected faults (WNIC outages/degradations, disk
  /// spin-up stalls). An empty schedule — the default — leaves the devices
  /// entirely unhooked, so results are bit-identical to a fault-free build.
  faults::FaultSchedule faults;
  /// Run-time invariant checks (see faults/audit.hpp). Observation only:
  /// enabling the audit never changes results, it can only throw.
  faults::AuditConfig audit;
};

class Simulator {
 public:
  /// The policy is owned by the caller and must outlive run(); this allows
  /// callers to inspect policy state (e.g. recorded profiles) afterwards.
  /// `programs` must be one compiled set, in order (compile_programs);
  /// otherwise this throws ConfigError. The Simulator keeps the set alive
  /// and does not copy the specs.
  Simulator(SimConfig config, const std::vector<ProgramSpec>& programs,
            Policy& policy);

  /// Runs the whole simulation and returns the aggregate result.
  /// Equivalent to start(); while (step()) {}; finish().
  SimResult run();

  // Steppable interface — what MultiClientSim (medium/multi_client.hpp)
  // drives to interleave N simulators over shared resources on one global
  // event loop. The decomposition is exact: run() is defined in terms of
  // it, so stepping a lone simulator to completion is bit-identical to
  // run().

  /// Connects this simulator's WNIC to a shared medium (see
  /// medium/link.hpp). Must be called before start(); the link must
  /// outlive the simulation.
  void attach_medium(medium::ClientLink* link);

  /// Schedules the initial events and opens the policy. Call once.
  void start();
  /// Processes the single earliest pending event. Returns false (doing
  /// nothing) once no events remain.
  bool step();
  /// True once every pending event has been processed.
  bool done() const { return queue_.empty(); }
  /// Time of the earliest pending event. Only valid while !done().
  Seconds next_event_time() const;
  /// Closes the policy, settles trailing idle energy and returns the
  /// result. Call once, after done().
  SimResult finish();

  /// Simulation clock: the time of the last processed event.
  Seconds now() const { return ctx_.now(); }
  /// Total metered device energy so far — the coordinator's input to
  /// battery reporting.
  Joules device_energy() const {
    return disk_.meter().total() + wnic_.meter().total();
  }
  /// The battery model tracking this simulator's energy trajectory.
  const energy::BatteryTracker& battery() const { return battery_; }

 private:
  struct Program {
    const trace::CompiledTrace* ct = nullptr;
    /// ct's records, taken once: one indirection per syscall.
    const trace::SyscallRecord* records = nullptr;
    std::size_t size = 0;
    std::size_t cursor = 0;
    bool profiled = true;
    bool disk_pinned = false;
    bool done() const { return cursor >= size; }
  };

  enum class EventKind : std::uint8_t { kSyscall, kFlusher, kSync };

  struct Event {
    Seconds time;
    std::uint64_t seq;  ///< Tie-breaker for deterministic ordering.
    EventKind kind;
    std::size_t program;  ///< Valid for kSyscall.

    bool operator>(const Event& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };

  void schedule(Seconds t, EventKind kind, std::size_t program);
  Event pop_event();
  void handle_syscall(const Event& ev);
  void run_flusher(Seconds t);
  void run_sync(Seconds t);

  /// Services page ranges (each carrying its file id) on policy-chosen
  /// devices; returns the completion time of the last range.
  Seconds service_ranges(Seconds t, const std::vector<os::PageRange>& ranges,
                         const trace::SyscallRecord* origin,
                         const Program& program, bool is_writeback);

  /// Synchronously flushes dirty pages evicted under pressure.
  Seconds flush_dirty(Seconds t, const std::vector<os::DirtyPage>& dirty,
                      const Program* program);

  device::DeviceKind choose_device(RequestContext& rc);
  Seconds dispatch(Seconds t, const RequestContext& rc, device::DeviceKind kind);
  void log_request(const RequestContext& rc, device::DeviceKind kind,
                   const device::ServiceResult& res);
  /// Fills result_.metrics from the run's final stats (telemetry only).
  void populate_metrics();

  SimConfig config_;
  /// The programs' compiled set (dense file ids, pinned flags, placement
  /// order, page spans); keeps every program's records alive.
  std::shared_ptr<const trace::CompiledSet> set_;
  std::vector<Program> programs_;
  Policy& policy_;

  device::Disk disk_;
  device::Wnic wnic_;
  os::Vfs vfs_;
  os::FileLayout layout_;
  os::CScanScheduler scheduler_;
  std::optional<hoard::SyncManager> sync_;
  std::optional<device::AdaptiveTimeoutController> timeout_controller_;
  /// Must precede ctx_: ctx_ captures recorder_.get() at construction.
  std::unique_ptr<telemetry::Recorder> recorder_;
  /// Must precede ctx_ for the same reason (ctx_ captures &*audit_).
  std::optional<faults::SimAudit> audit_;
  /// Must precede ctx_ (ctx_ captures &battery_).
  energy::BatteryTracker battery_;
  SimContext ctx_;

  /// Pre-reserved flat binary heap ordered by Event::operator> (min-heap on
  /// (time, seq)); holds at most one event per program plus the flusher and
  /// sync timers.
  std::vector<Event> queue_;
  std::uint64_t next_seq_ = 0;
  std::size_t active_programs_ = 0;
  bool started_ = false;

  // Scratch buffers reused across events so the steady-state event loop
  // performs no heap allocation. Planning (read_plan_/write_plan_) and
  // flushing (flush_ranges_, wb_scratch_) never nest with themselves, so
  // one buffer each suffices.
  os::ReadPlan read_plan_;
  os::WritePlan write_plan_;
  std::vector<os::DirtyPage> wb_scratch_;
  std::vector<os::PageRange> flush_ranges_;

  // Telemetry bookkeeping (only advanced when recorder_ is live).
  std::uint64_t wb_sync_flushes_ = 0;
  std::uint64_t wb_periodic_flushes_ = 0;
  std::uint64_t sched_max_depth_ = 0;

  /// Last: its metrics block is large and cold until finish().
  SimResult result_;
};

/// Convenience: simulate a single trace under a policy.
SimResult simulate(const SimConfig& config, const trace::Trace& trace,
                   Policy& policy);

}  // namespace flexfetch::sim
