#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/error.hpp"
#include "telemetry/emit.hpp"

namespace flexfetch::sim {

namespace {

namespace tele = flexfetch::telemetry;

constexpr tele::EventDesc kSyscallRead{.name = "syscall.read",
                                       .category = tele::Category::kSim,
                                       .phase = tele::Phase::kSpan,
                                       .level = tele::Level::kVerbose,
                                       .n_args = 3,
                                       .track = tele::track::kSim,
                                       .keys = {"inode", "bytes", "pgid"}};

constexpr tele::EventDesc kSyscallWrite{.name = "syscall.write",
                                        .category = tele::Category::kSim,
                                        .phase = tele::Phase::kSpan,
                                        .level = tele::Level::kVerbose,
                                        .n_args = 3,
                                        .track = tele::track::kSim,
                                        .keys = {"inode", "bytes", "pgid"}};

// Battery trajectory counters, sampled at the tracker's cadence (not per
// event): the level story of a run in a handful of points.
constexpr tele::EventDesc kBatteryLevel{.name = "battery.level",
                                        .category = tele::Category::kBattery,
                                        .phase = tele::Phase::kCounter,
                                        .level = tele::Level::kVerbose,
                                        .track = tele::track::kBattery};

constexpr tele::EventDesc kBatteryDrain{.name = "battery.drain_w",
                                        .category = tele::Category::kBattery,
                                        .phase = tele::Phase::kCounter,
                                        .level = tele::Level::kVerbose,
                                        .track = tele::track::kBattery};

constexpr tele::EventDesc kSchedDepth{.name = "sched.depth",
                                      .category = tele::Category::kScheduler,
                                      .phase = tele::Phase::kCounter,
                                      .level = tele::Level::kVerbose,
                                      .track = tele::track::kScheduler};

constexpr tele::EventDesc kFlushSync{.name = "flush.sync",
                                     .category = tele::Category::kWriteback,
                                     .phase = tele::Phase::kSpan,
                                     .level = tele::Level::kDetail,
                                     .n_args = 1,
                                     .track = tele::track::kWriteback,
                                     .keys = {"pages"}};

constexpr tele::EventDesc kFlushPeriodic{.name = "flush.periodic",
                                         .category = tele::Category::kWriteback,
                                         .phase = tele::Phase::kSpan,
                                         .level = tele::Level::kDetail,
                                         .n_args = 1,
                                         .track = tele::track::kWriteback,
                                         .keys = {"pages"}};

constexpr tele::EventDesc kCacheDirty{.name = "cache.dirty",
                                      .category = tele::Category::kCache,
                                      .phase = tele::Phase::kCounter,
                                      .level = tele::Level::kVerbose,
                                      .track = tele::track::kWriteback};

}  // namespace

Simulator::Simulator(SimConfig config, std::vector<ProgramSpec> programs,
                     Policy& policy)
    : config_(config),
      policy_(policy),
      disk_(config.disk),
      wnic_(config.wnic),
      vfs_(config.vfs),
      layout_(config.disk.capacity, config.layout_seed),
      recorder_(config.telemetry.enabled
                    ? std::make_unique<telemetry::Recorder>(config.telemetry)
                    : nullptr),
      battery_(config.battery),  // Validates config.battery.
      ctx_(disk_, wnic_, vfs_, layout_, processes_, recorder_.get(),
           config_.faults.empty() ? nullptr : &config_.faults,
           config_.audit.enabled ? &audit_.emplace(config_.audit) : nullptr) {
  FF_REQUIRE(!programs.empty(), "simulator: no programs");
  ctx_.set_battery(&battery_);
  if (recorder_) {
    disk_.attach_telemetry(recorder_.get());
    wnic_.attach_telemetry(recorder_.get());
  }
  if (!config_.faults.empty()) {
    // Schedules are owned by config_ and outlive the devices and every
    // copy made of them (estimator replicas share the pointer).
    config_.faults.validate();
    disk_.set_fault_schedule(&config_.faults.disk);
    wnic_.set_fault_schedule(&config_.faults.wnic);
  }
  trace::ProcessGroup next_pgid = 1;
  for (auto& spec : programs) {
    Program p;
    p.spec = std::move(spec);
    // The compiled trace carries the closed-loop think times, per-record
    // page spans, and file extents/sets derived once from the trace.
    if (p.spec.compiled != nullptr) {
      p.ct = p.spec.compiled.get();
    } else {
      p.owned = std::make_shared<trace::CompiledTrace>(p.spec.trace);
      p.ct = p.owned.get();
    }
    const auto& t = p.spec.trace;
    const trace::ProcessGroup pgid =
        t.empty() ? next_pgid++ : t[0].pgid;
    processes_.register_program(pgid, p.spec.name, p.spec.profiled);
    if (p.spec.disk_pinned) {
      for (const auto ino : p.ct->file_set()) pinned_inodes_.insert(ino);
    }
    programs_.push_back(std::move(p));
  }
  // One pending syscall per program plus the flusher and sync timers; the
  // heap never outgrows this, so it never reallocates mid-run.
  queue_.reserve(programs_.size() + 2);
}

void Simulator::schedule(Seconds t, EventKind kind, std::size_t program) {
  queue_.push_back(Event{t, next_seq_++, kind, program});
  std::push_heap(queue_.begin(), queue_.end(), std::greater<>{});
}

Simulator::Event Simulator::pop_event() {
  std::pop_heap(queue_.begin(), queue_.end(), std::greater<>{});
  const Event e = queue_.back();
  queue_.pop_back();
  return e;
}

SimResult Simulator::run() {
  start();
  while (step()) {
  }
  return finish();
}

void Simulator::attach_medium(medium::ClientLink* link) {
  FF_REQUIRE(!started_, "simulator: attach_medium after start");
  wnic_.attach_medium(link);
}

void Simulator::start() {
  FF_REQUIRE(!started_, "simulator: start called twice");
  started_ = true;
  result_ = SimResult{};
  result_.policy = policy_.name();

  std::size_t expected_requests = 0;
  for (std::size_t i = 0; i < programs_.size(); ++i) {
    const Program& p = programs_[i];
    if (p.spec.trace.empty()) continue;
    // Pre-place the program's files so disk layout follows inode order,
    // mirroring the paper's sequential file mapping.
    layout_.place_all(p.ct->file_extents());
    schedule(p.ct->start_time(), EventKind::kSyscall, i);
    ++active_programs_;
    expected_requests += p.ct->data_transfers();
  }
  if (config_.collect_request_log) {
    result_.request_log.reserve(expected_requests);
  }
  if (config_.enable_writeback) {
    schedule(vfs_.writeback().next_wakeup(Seconds{}), EventKind::kFlusher, 0);
  }
  if (config_.sync) {
    sync_.emplace(*config_.sync);
    schedule(sync_->next_wakeup(Seconds{}), EventKind::kSync, 0);
  }
  if (config_.adaptive_timeout) {
    timeout_controller_.emplace(*config_.adaptive_timeout);
  }

  policy_.begin(ctx_);
}

Seconds Simulator::next_event_time() const {
  FF_ASSERT(!queue_.empty());
  // Flat binary min-heap on (time, seq): the root is the front.
  return queue_.front().time;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  const Event ev = pop_event();
  ctx_.set_now(ev.time);
  if (ev.kind == EventKind::kSyscall) {
    handle_syscall(ev);
  } else if (ev.kind == EventKind::kFlusher && active_programs_ > 0) {
    run_flusher(ev.time);
    schedule(vfs_.writeback().next_wakeup(ev.time), EventKind::kFlusher, 0);
  } else if (ev.kind == EventKind::kSync &&
             (active_programs_ > 0 ||
              (sync_ && sync_->pending_upload() > Bytes{}))) {
    run_sync(ev.time);
    if (active_programs_ > 0 || sync_->pending_upload() > Bytes{}) {
      schedule(sync_->next_wakeup(ev.time), EventKind::kSync, 0);
    }
  }
  // Feed the battery model the post-event energy trajectory. The tracker
  // subsamples internally, so the common case is one compare; counters go
  // out only when a sample is actually folded.
  if (battery_.observe(ev.time, device_energy())) {
    FF_EMIT_COUNTER(recorder_.get(), kBatteryLevel, ev.time,
                    battery_.fraction());
    FF_EMIT_COUNTER(recorder_.get(), kBatteryDrain, ev.time,
                    battery_.drain_estimate().value());
  }
  if (audit_) audit_->on_event(ev.time, disk_, wnic_, vfs_);
  return true;
}

SimResult Simulator::finish() {
  FF_REQUIRE(started_ && queue_.empty(),
             "simulator: finish before events drained");
  policy_.end(ctx_);

  // Account trailing idle/standby energy up to the end of the run so every
  // policy is charged over the same window it produced.
  disk_.advance_to(result_.makespan);
  wnic_.advance_to(result_.makespan);

  result_.disk_meter = disk_.meter();
  result_.wnic_meter = wnic_.meter();
  result_.disk_counters = disk_.counters();
  result_.wnic_counters = wnic_.counters();
  result_.cache_stats = vfs_.cache().stats();
  result_.scheduler_stats = scheduler_.stats();

  if (recorder_) {
    // Close the open power-state spans now that the devices sit at makespan.
    disk_.flush_telemetry();
    wnic_.flush_telemetry();
    populate_metrics();
    policy_.export_metrics(result_.metrics);
    result_.trace_events = recorder_->take_events();
    result_.trace_events_dropped = recorder_->dropped();
  }
  if (audit_) {
    // With telemetry off the span is empty and on_run_end only re-checks
    // the meters.
    audit_->on_run_end(disk_, wnic_, result_.trace_events,
                       result_.trace_events_dropped);
  }
  return result_;
}

void Simulator::handle_syscall(const Event& ev) {
  Program& p = programs_[ev.program];
  FF_ASSERT(!p.done());
  const trace::SyscallRecord& r = p.spec.trace[p.cursor];

  policy_.on_syscall(r, ctx_);

  Seconds completion = ev.time;
  switch (r.op) {
    case trace::OpType::kRead: {
      vfs_.plan_read(r, ev.time, layout_.extent_of(r.inode),
                     p.ct->first_page(p.cursor), p.ct->end_page(p.cursor),
                     read_plan_);
      if (!read_plan_.evicted_dirty.empty()) {
        completion = std::max(
            completion, flush_dirty(ev.time, read_plan_.evicted_dirty, &p));
      }
      if (!read_plan_.fetches.empty()) {
        completion = std::max(completion, service_ranges(completion,
                                                         read_plan_.fetches,
                                                         &r, p, false));
      }
      break;
    }
    case trace::OpType::kWrite: {
      vfs_.plan_write(r, ev.time, p.ct->first_page(p.cursor),
                      p.ct->end_page(p.cursor), write_plan_);
      if (!write_plan_.evicted_dirty.empty()) {
        completion = std::max(
            completion, flush_dirty(ev.time, write_plan_.evicted_dirty, &p));
      }
      // Local writes diverge the replica; the sync daemon will upload them.
      if (sync_) sync_->on_local_write(r.inode, r.size, ev.time);
      break;
    }
    case trace::OpType::kClose:
      vfs_.readahead().forget(r.inode);
      break;
    case trace::OpType::kOpen:
    case trace::OpType::kSeek:
      break;
  }

  if (recorder_ && completion > ev.time &&
      (r.op == trace::OpType::kRead || r.op == trace::OpType::kWrite)) {
    recorder_->hist(telemetry::HistId::kSyscallLatency)
        .record((completion - ev.time).value());
    FF_EMIT_SPAN(recorder_.get(),
                 r.op == trace::OpType::kRead ? kSyscallRead : kSyscallWrite,
                 ev.time, completion, static_cast<double>(r.inode),
                 r.size.as_double(), static_cast<double>(r.pgid));
  }

  ++result_.syscalls;
  result_.io_time += completion - ev.time;
  result_.makespan = std::max(result_.makespan, completion);

  ++p.cursor;
  if (!p.done()) {
    schedule(completion + p.ct->think(p.cursor), EventKind::kSyscall,
             ev.program);
  } else {
    --active_programs_;
  }
}

Seconds Simulator::service_ranges(Seconds t,
                                  const std::vector<os::PageRange>& ranges,
                                  const trace::SyscallRecord* origin,
                                  const Program& program, bool is_writeback) {
  Seconds completion = t;
  std::optional<RequestContext> disk_rc;

  for (const auto& range : ranges) {
    layout_.ensure(range.inode, range.offset() + range.size());
    RequestContext rc;
    rc.request = device::DeviceRequest{
        .lba = layout_.lba(range.inode, range.offset()),
        .size = range.size(),
        .is_write = is_writeback,
    };
    rc.syscall = origin;
    rc.pgid = origin != nullptr ? origin->pgid
                                : (program.spec.trace.empty()
                                       ? 0
                                       : program.spec.trace[0].pgid);
    rc.profiled = program.spec.profiled;
    rc.disk_pinned =
        program.spec.disk_pinned || pinned_inodes_.contains(range.inode);
    rc.is_writeback = is_writeback;

    const device::DeviceKind kind = choose_device(rc);
    if (kind == device::DeviceKind::kDisk) {
      if (config_.use_cscan) {
        // Disk requests of one call go through the C-SCAN scheduler so
        // they are serviced in elevator order and LBA-adjacent ranges
        // merge.
        scheduler_.submit(rc.request);
        // All ranges of one call share identity fields; keep one
        // representative context for the batch.
        if (!disk_rc) disk_rc = rc;
      } else {
        completion = std::max(completion, dispatch(t, rc, kind));
      }
    } else {
      completion = std::max(completion, dispatch(t, rc, kind));
    }
  }

  if (disk_rc) {
    if (recorder_) {
      const auto depth = static_cast<std::uint64_t>(scheduler_.pending());
      sched_max_depth_ = std::max(sched_max_depth_, depth);
      recorder_->hist(telemetry::HistId::kSchedDepth)
          .record(static_cast<double>(depth));
      FF_EMIT_COUNTER(recorder_.get(), kSchedDepth, t,
                      static_cast<double>(depth));
    }
    Seconds cursor = t;
    while (auto req = scheduler_.dispatch()) {
      disk_rc->request = *req;
      cursor = dispatch(cursor, *disk_rc, device::DeviceKind::kDisk);
      completion = std::max(completion, cursor);
    }
  }
  return completion;
}

Seconds Simulator::flush_dirty(Seconds t, const std::vector<os::DirtyPage>& dirty,
                               const Program* program) {
  flush_pages_.clear();
  flush_pages_.reserve(dirty.size());
  for (const auto& d : dirty) flush_pages_.push_back(d.page);
  // Oldest-dirty-first submission; the I/O scheduler (if enabled) reorders
  // for the head, exactly as pdflush + elevator divide the work.
  os::Vfs::coalesce_ordered_into(flush_pages_, flush_ranges_);
  const auto& ranges = flush_ranges_;
  // Write-back issued by the kernel (periodic flusher) is not attributed to
  // any profiled program.
  static const Program kSystem = [] {
    Program p;
    p.spec.name = "<writeback>";
    p.spec.profiled = false;
    return p;
  }();
  const Seconds completion =
      service_ranges(t, ranges, nullptr, program != nullptr ? *program : kSystem,
                     /*is_writeback=*/true);
  vfs_.complete_writeback(dirty);
  if (recorder_) {
    // Flushes triggered by eviction pressure block the evicting program
    // (sync); the periodic flusher runs in the background.
    const bool sync_flush = program != nullptr;
    if (sync_flush) {
      ++wb_sync_flushes_;
    } else {
      ++wb_periodic_flushes_;
    }
    FF_EMIT_SPAN(recorder_.get(), sync_flush ? kFlushSync : kFlushPeriodic, t,
                 completion, static_cast<double>(dirty.size()));
  }
  return completion;
}

void Simulator::run_sync(Seconds t) {
  FF_ASSERT(sync_.has_value());
  const auto batch = sync_->take_batch(t);
  Seconds cursor = t;
  for (const auto& item : batch) {
    // Replica traffic goes to the server by definition: always the WNIC.
    const device::DeviceRequest req{
        .lba = Bytes{}, .size = item.bytes, .is_write = item.upload};
    const auto res = wnic_.service(cursor, req);
    cursor = res.completion;
    ++result_.net_requests;
    result_.net_bytes += item.bytes;
    result_.sync_bytes += item.bytes;
    result_.makespan = std::max(result_.makespan, res.completion);
    if (config_.collect_request_log) {
      result_.request_log.push_back(RequestLogEntry{
          .arrival = res.arrival,
          .completion = res.completion,
          .device = device::DeviceKind::kNetwork,
          .size = item.bytes,
          .energy = res.energy,
          .pgid = 0,
          .is_writeback = true,
      });
    }
  }
  if (!batch.empty()) ++result_.sync_batches;
}

void Simulator::run_flusher(Seconds t) {
  disk_.advance_to(t);
  wnic_.advance_to(t);
  FF_EMIT_COUNTER(recorder_.get(), kCacheDirty, t,
                  static_cast<double>(vfs_.cache().dirty_count()));
  const bool device_active =
      disk_.is_spinning() || wnic_.state() == device::WnicState::kCam;
  vfs_.select_writeback(t, device_active, wb_scratch_);
  if (!wb_scratch_.empty()) flush_dirty(t, wb_scratch_, nullptr);
}

device::DeviceKind Simulator::choose_device(RequestContext& rc) {
  if (rc.disk_pinned) return device::DeviceKind::kDisk;
  return policy_.select(rc, ctx_);
}

Seconds Simulator::dispatch(Seconds t, const RequestContext& rc,
                            device::DeviceKind kind) {
  device::ServiceResult res;
  if (kind == device::DeviceKind::kDisk) {
    res = disk_.service(t, rc.request);
    if (timeout_controller_) timeout_controller_->observe(disk_, res);
    ++result_.disk_requests;
    result_.disk_bytes += rc.request.size;
  } else {
    res = wnic_.service(t, rc.request);
    ++result_.net_requests;
    result_.net_bytes += rc.request.size;
  }
  policy_.observe(rc, kind, res, ctx_);
  log_request(rc, kind, res);
  return res.completion;
}

void Simulator::log_request(const RequestContext& rc, device::DeviceKind kind,
                            const device::ServiceResult& res) {
  if (!config_.collect_request_log) return;
  result_.request_log.push_back(RequestLogEntry{
      .arrival = res.arrival,
      .completion = res.completion,
      .device = kind,
      .size = rc.request.size,
      .energy = res.energy,
      .pgid = rc.pgid,
      .is_writeback = rc.is_writeback,
  });
}

void Simulator::populate_metrics() {
  FF_ASSERT(recorder_ != nullptr);
  auto& m = result_.metrics;
  const auto num = [](std::uint64_t v) { return static_cast<double>(v); };

  m.add("sim.syscalls", num(result_.syscalls));
  m.set("sim.makespan_s", result_.makespan.value());
  m.set("sim.io_time_s", result_.io_time.value());
  m.add("sim.disk_requests", num(result_.disk_requests));
  m.add("sim.net_requests", num(result_.net_requests));
  m.add("sim.disk_bytes", num(result_.disk_bytes.value()));
  m.add("sim.net_bytes", num(result_.net_bytes.value()));
  m.add("sim.sync_batches", num(result_.sync_batches));
  m.add("sim.sync_bytes", num(result_.sync_bytes.value()));

  m.set("disk.energy_j", result_.disk_meter.total().value());
  m.add("disk.requests", num(result_.disk_counters.requests));
  m.add("disk.spin_ups", num(result_.disk_counters.spin_ups));
  m.add("disk.spin_downs", num(result_.disk_counters.spin_downs));
  m.add("disk.sequential_hits", num(result_.disk_counters.sequential_hits));
  m.set("disk.seek_time_s", result_.disk_counters.seek_time.value());
  m.add("disk.spin_up_stalls", num(result_.disk_counters.spin_up_stalls));
  m.set("disk.stall_time_s", result_.disk_counters.stall_time.value());

  m.set("wnic.energy_j", result_.wnic_meter.total().value());
  m.add("wnic.requests", num(result_.wnic_counters.requests));
  m.add("wnic.wakes", num(result_.wnic_counters.wakes));
  m.add("wnic.sleeps", num(result_.wnic_counters.sleeps));
  m.add("wnic.psm_transfers", num(result_.wnic_counters.psm_transfers));
  m.add("wnic.outage_stalls", num(result_.wnic_counters.outage_stalls));
  m.add("wnic.degraded_transfers",
        num(result_.wnic_counters.degraded_transfers));
  m.set("wnic.outage_wait_s", result_.wnic_counters.outage_wait.value());
  m.add("wnic.contended_transfers",
        num(result_.wnic_counters.contended_transfers));
  m.add("wnic.server_queue_waits",
        num(result_.wnic_counters.server_queue_waits));
  m.set("wnic.server_queue_wait_s",
        result_.wnic_counters.server_queue_wait.value());

  m.add("cache.lookups", num(result_.cache_stats.lookups));
  m.add("cache.hits", num(result_.cache_stats.hits));
  m.add("cache.ghost_hits", num(result_.cache_stats.ghost_hits));
  m.add("cache.insertions", num(result_.cache_stats.insertions));
  m.add("cache.evictions", num(result_.cache_stats.evictions));
  m.set("cache.hit_rate", result_.cache_stats.hit_rate());

  m.add("sched.submitted", num(result_.scheduler_stats.submitted));
  m.add("sched.merged", num(result_.scheduler_stats.merged));
  m.add("sched.dispatched", num(result_.scheduler_stats.dispatched));
  m.add("sched.sweeps", num(result_.scheduler_stats.sweeps));
  m.set_max("sched.max_depth", num(sched_max_depth_));

  m.add("wb.sync_flushes", num(wb_sync_flushes_));
  m.add("wb.periodic_flushes", num(wb_periodic_flushes_));

  m.set("battery.fraction_end", battery_.fraction());
  m.set("battery.drain_w_est", battery_.drain_estimate().value());
  // Unbounded on wall power — JSON has no infinity, so only a finite
  // horizon is recorded.
  if (std::isfinite(battery_.horizon().value())) {
    m.set("battery.horizon_s", battery_.horizon().value());
  }

  m.add("telemetry.events_emitted", num(recorder_->emitted()));
  m.add("telemetry.dropped", num(recorder_->dropped()));

  // Pre-aggregated hot-path histograms (service times, request sizes,
  // queue depths) ride beside the scalar namespace.
  recorder_->export_histograms(m);
}

SimResult simulate(const SimConfig& config, const trace::Trace& trace,
                   Policy& policy) {
  std::vector<ProgramSpec> programs;
  programs.push_back(ProgramSpec{.trace = trace, .name = trace.name()});
  Simulator sim(config, std::move(programs), policy);
  return sim.run();
}

}  // namespace flexfetch::sim
