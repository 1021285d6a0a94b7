#include "trace/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/error.hpp"
#include "common/format.hpp"

namespace flexfetch::trace {

const char* to_string(OpType op) {
  switch (op) {
    case OpType::kOpen: return "open";
    case OpType::kClose: return "close";
    case OpType::kRead: return "read";
    case OpType::kWrite: return "write";
    case OpType::kSeek: return "seek";
  }
  return "?";
}

std::string to_string(const SyscallRecord& r) {
  return strprintf("%.6f %s pid=%u pgid=%u fd=%d ino=%llu off=%llu size=%llu dur=%.6f",
                   r.timestamp.value(), to_string(r.op), r.pid, r.pgid, r.fd,
                   static_cast<unsigned long long>(r.inode),
                   static_cast<unsigned long long>(r.offset.value()),
                   static_cast<unsigned long long>(r.size.value()),
                   r.duration.value());
}

namespace {

bool finite_times(const SyscallRecord& r) {
  return std::isfinite(r.timestamp.value()) && std::isfinite(r.duration.value());
}

}  // namespace

const std::vector<SyscallRecord>& Trace::records() const {
  static const std::vector<SyscallRecord> kNone;
  return records_ ? *records_ : kNone;
}

std::vector<SyscallRecord>& Trace::own() {
  if (records_ == nullptr) {
    records_ = std::make_shared<std::vector<SyscallRecord>>();
  } else if (records_.use_count() > 1) {
    records_ = std::make_shared<std::vector<SyscallRecord>>(*records_);
  } else {
    // Sole owner. Orders these writes after the reads of a copy another
    // thread has just dropped (the drop is a release decrement). TSan
    // models no fences, and GCC warns about them under it.
#ifndef __SANITIZE_THREAD__
    std::atomic_thread_fence(std::memory_order_acquire);
#endif
  }
  return *records_;
}

void Trace::push_back(const SyscallRecord& r) {
  if (r.is_data_transfer() && r.size == Bytes{}) {
    throw TraceError("data-transfer record with zero size: " + to_string(r));
  }
  if (!finite_times(r)) {
    throw TraceError("record with a non-finite time: " + to_string(r));
  }
  if (r.timestamp < Seconds{}) {
    throw TraceError("record with negative timestamp: " + to_string(r));
  }
  std::vector<SyscallRecord>& records = own();
  const bool in_order = records.empty() || r.timestamp >= records.back().timestamp;
  records.push_back(r);
  if (!in_order) sort_records();
}

void Trace::merge(const Trace& other) {
  if (other.empty()) return;
  // Read `other` through its own handle: own() may replace records_ even
  // when other is *this.
  const auto source = other.records_;
  std::vector<SyscallRecord>& records = own();
  records.insert(records.end(), source->begin(), source->end());
  sort_records();
}

void Trace::append_after(const Trace& other, Seconds gap) {
  FF_REQUIRE(gap >= Seconds{}, "append_after: negative gap");
  const Seconds base = empty() ? Seconds{} : end_time();
  Trace shifted = other;
  shifted.shift(base + gap - shifted.start_time());
  merge(shifted);
}

void Trace::shift(Seconds delta) {
  if (empty()) return;
  if (records_->front().timestamp + delta < Seconds{}) {
    throw TraceError("shift would produce negative timestamps");
  }
  for (auto& r : own()) r.timestamp += delta;
}

Seconds Trace::start_time() const {
  return empty() ? Seconds{} : records_->front().timestamp;
}

Seconds Trace::end_time() const {
  Seconds end = Seconds{0.0};
  for (const auto& r : records()) {
    end = std::max(end, r.timestamp + r.duration);
  }
  return end;
}

TraceStats Trace::stats() const {
  TraceStats s;
  s.records = size();
  std::map<Inode, Bytes> extents = file_extents();
  s.distinct_files = extents.size();
  for (const auto& [ino, extent] : extents) s.footprint += extent;
  for (const auto& r : records()) {
    if (r.op == OpType::kRead) {
      ++s.reads;
      s.bytes_read += r.size;
    } else if (r.op == OpType::kWrite) {
      ++s.writes;
      s.bytes_written += r.size;
    }
  }
  s.duration = empty() ? Seconds{} : end_time() - start_time();
  return s;
}

std::set<Inode> Trace::file_set() const {
  std::set<Inode> files;
  for (const auto& r : records()) {
    if (r.is_data_transfer()) files.insert(r.inode);
  }
  return files;
}

std::map<Inode, Bytes> Trace::file_extents() const {
  std::map<Inode, Bytes> extents;
  for (const auto& r : records()) {
    if (!r.is_data_transfer()) continue;
    Bytes& e = extents[r.inode];
    e = std::max(e, r.end_offset());
  }
  return extents;
}

void Trace::validate() const {
  Seconds prev = Seconds{0.0};
  for (const auto& r : records()) {
    // NaN compares false against everything, so order checks alone pass it.
    if (!finite_times(r)) {
      throw TraceError("non-finite time: " + to_string(r));
    }
    if (r.timestamp < prev) {
      throw TraceError("records out of order at t=" +
                       std::to_string(r.timestamp.value()));
    }
    if (r.is_data_transfer() && r.size == Bytes{}) {
      throw TraceError("zero-size transfer: " + to_string(r));
    }
    if (r.duration < Seconds{}) {
      throw TraceError("negative duration: " + to_string(r));
    }
    prev = r.timestamp;
  }
}

void Trace::sort_records() {
  std::stable_sort(records_->begin(), records_->end(),
                   [](const SyscallRecord& a, const SyscallRecord& b) {
                     return a.timestamp < b.timestamp;
                   });
}

}  // namespace flexfetch::trace
