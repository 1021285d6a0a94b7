// Trace container: an ordered sequence of syscall records plus metadata.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "trace/record.hpp"

namespace flexfetch::trace {

/// Summary statistics of a trace (drives Table 3 style reporting).
struct TraceStats {
  std::size_t records = 0;
  std::size_t reads = 0;
  std::size_t writes = 0;
  std::size_t distinct_files = 0;
  Bytes bytes_read = Bytes{0};
  Bytes bytes_written = Bytes{0};
  /// Total footprint: sum over files of the highest offset touched.
  Bytes footprint = Bytes{0};
  Seconds duration = Seconds{0.0};
};

/// An ordered (by timestamp) sequence of syscall records.
///
/// Invariants maintained by the class:
///  * records are sorted by timestamp (stable for ties),
///  * every data-transfer record has size > 0,
///  * every timestamp and duration is finite.
///
/// The records live in shared immutable storage: copying a Trace shares
/// them, and a mutator first takes a private copy while the storage is
/// shared, so no copy ever sees another copy's change. Only the thread that
/// owns a Trace mutates it; other threads may copy and read their own
/// copies concurrently (only reference counts change).
class Trace {
 public:
  Trace() = default;
  explicit Trace(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Appends a record; throws TraceError if a data transfer has zero size or
  /// the timestamp is negative or either time is not finite.
  void push_back(const SyscallRecord& r);

  /// Appends all records of `other`, then restores timestamp order.
  /// Used to compose concurrent-program scenarios.
  void merge(const Trace& other);

  /// Appends `other` shifted so it starts `gap` seconds after this trace
  /// ends. Used to compose sequential scenarios (grep then make).
  void append_after(const Trace& other, Seconds gap);

  /// Shifts all timestamps by delta (may not produce negative times).
  void shift(Seconds delta);

  bool empty() const { return size() == 0; }
  std::size_t size() const { return records_ ? records_->size() : 0; }
  const SyscallRecord& operator[](std::size_t i) const { return (*records_)[i]; }
  const SyscallRecord& at(std::size_t i) const { return records().at(i); }

  auto begin() const { return records().begin(); }
  auto end() const { return records().end(); }
  const std::vector<SyscallRecord>& records() const;

  /// The shared record storage (null while empty): a compiled form keeps it
  /// alive and reads it without going through the Trace.
  std::shared_ptr<const std::vector<SyscallRecord>> shared_records() const {
    return records_;
  }

  Seconds start_time() const;
  Seconds end_time() const;  ///< Last record's timestamp + duration.

  TraceStats stats() const;

  /// Set of distinct inodes touched by data transfers.
  std::set<Inode> file_set() const;

  /// Per-file maximum end offset (an approximation of file sizes).
  std::map<Inode, Bytes> file_extents() const;

  /// Verifies ordering/invariants; throws TraceError on violation.
  void validate() const;

 private:
  /// The records for writing: a private copy first if they are shared.
  std::vector<SyscallRecord>& own();
  void sort_records();

  std::string name_;
  std::shared_ptr<std::vector<SyscallRecord>> records_;
};

}  // namespace flexfetch::trace
