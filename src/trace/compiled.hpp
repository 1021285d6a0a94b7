// Compiled traces and compiled program sets: flat arrays derived once from
// the traces of a simulation's programs, so every simulation of the same
// programs (every cell of a sweep grid, every fleet user of a scenario)
// shares them instead of re-deriving them per run.
//
// A CompiledSet numbers the files its programs touch 0..F-1 in ascending
// inode order (trace::FileId), so every ordered walk keeps inode order and
// per-run structures index flat arrays by id. It holds:
//   * per program, a CompiledTrace: the program's shared records, and per
//     record its closed-loop think time (traced inter-call distance minus
//     the traced service duration of record i-1), its page span and its
//     file id; plus the program's files with their extents (per-inode
//     maximum end offset), ascending;
//   * per file, whether a disk-pinned program touches it, and its span of
//     the buffer cache's page index (trace::PageSpan), sized for the file's
//     final extent;
//   * the placement sequence: program by program, each program's files in
//     ascending inode order — the order disk layout draws its gaps in.
// All of these are pure functions of the traces, so sharing one set across
// simulations (and threads) is safe and changes no simulated number.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "trace/trace.hpp"

namespace flexfetch::trace {

/// One file of a program with the highest offset the program touches.
struct FileExtent {
  Inode inode = 0;
  FileId file{};
  Bytes size = Bytes{0};
};

/// A file's span of the buffer cache's page index: page p of the file has
/// its slot in index[base + p]. os::BufferCache keeps one per file.
struct PageSpan {
  Inode inode = 0;
  std::uint32_t base = 0;
  std::uint32_t pages = 0;
};

class CompiledSet;

class CompiledTrace {
 public:
  CompiledTrace() = default;
  /// Compiles `trace` on its own: file ids number its own files, and set()
  /// is null, so a Simulator does not accept it.
  explicit CompiledTrace(const Trace& trace);

  std::size_t size() const { return think_.size(); }
  bool empty() const { return think_.empty(); }

  /// The compiled trace's records (shared with the Trace it came from).
  const SyscallRecord* records() const {
    return records_ ? records_->data() : nullptr;
  }
  /// True if `trace` holds the very records this form was compiled from.
  bool compiled_from(const Trace& trace) const {
    return records_ == trace.shared_records();
  }

  /// Closed-loop think time before record i (0 for the first record).
  Seconds think(std::size_t i) const { return think_[i]; }

  /// Page span of record i: [first_page(i), end_page(i)). Zero-width for
  /// non-transfer records.
  std::uint64_t first_page(std::size_t i) const { return first_page_[i]; }
  std::uint64_t end_page(std::size_t i) const { return end_page_[i]; }

  /// Dense id of record i's file.
  FileId file(std::size_t i) const { return file_[i]; }

  Seconds start_time() const { return start_time_; }

  /// Number of read/write records — a reserve hint for request logs.
  std::size_t data_transfers() const { return data_transfers_; }

  /// The files the trace reads or writes, ascending by inode (and id).
  std::span<const FileExtent> file_extents() const { return file_extents_; }

  /// The set this trace was compiled in; null for a standalone compile.
  const CompiledSet* set() const { return set_; }

 private:
  friend class CompiledSet;
  /// `inodes` is the sorted id table (the set's, or the trace's own).
  CompiledTrace(const Trace& trace, std::span<const Inode> inodes,
                const CompiledSet* set);

  std::shared_ptr<const std::vector<SyscallRecord>> records_;
  std::vector<Seconds> think_;
  std::vector<std::uint64_t> first_page_;
  std::vector<std::uint64_t> end_page_;
  std::vector<FileId> file_;
  std::size_t data_transfers_ = 0;
  Seconds start_time_ = Seconds{0.0};
  std::vector<FileExtent> file_extents_;
  const CompiledSet* set_ = nullptr;
};

/// The compiled form of a simulation's programs. Immutable once built and
/// shared by std::shared_ptr<const CompiledSet> across every simulation.
class CompiledSet {
 public:
  struct Member {
    const Trace* trace = nullptr;
    /// The program's data exists only on the local disk.
    bool disk_pinned = false;
  };

  /// Compiles `members` as one set; member i becomes program(i). Throws
  /// ConfigError if the files' pages do not fit 32-bit index positions.
  static std::shared_ptr<const CompiledSet> compile(std::span<const Member> members);

  // Its programs point back at the set, so it stays where it was built.
  CompiledSet(const CompiledSet&) = delete;
  CompiledSet& operator=(const CompiledSet&) = delete;

  std::size_t size() const { return programs_.size(); }
  const CompiledTrace& program(std::size_t i) const { return programs_[i]; }

  std::size_t file_count() const { return inodes_.size(); }
  /// The id of `inode`, if a program of the set touches it: one probe of a
  /// hash table at most half full, in the common case.
  std::optional<FileId> find(Inode inode) const;

  /// True if a disk-pinned program reads or writes the file.
  bool pinned(FileId f) const { return pinned_[index_of(f)] != 0; }

  /// Each file's span of the page index, by id, laid end to end: pages
  /// enough for the largest extent any program touches.
  std::span<const PageSpan> page_spans() const { return spans_; }
  std::uint32_t total_pages() const { return total_pages_; }

 private:
  CompiledSet() = default;

  std::vector<CompiledTrace> programs_;
  std::vector<Inode> inodes_;  ///< Id -> inode, ascending.
  /// Inode -> id: open addressing with linear probing over a power-of-two
  /// table at least twice the file count; free cells hold kNoFile.
  std::vector<std::uint32_t> by_inode_;
  std::vector<std::uint8_t> pinned_;
  std::vector<PageSpan> spans_;
  std::uint32_t total_pages_ = 0;
};

/// Inode -> dense id for one run's per-file arrays: an adopted set's files
/// keep their ids 0..F-1, and any other inode gets the next id when it is
/// first added. Lookups run in bursts on one file, so the last answer is
/// memoized.
class FileIds {
 public:
  /// Adopts `set`'s ids; call before adding any inode. `set` must outlive
  /// this object.
  void adopt(const CompiledSet& set);

  std::optional<FileId> find(Inode inode) const;
  /// The inode's id, assigning the next one to a new inode.
  FileId add(Inode inode);
  /// Ids assigned so far: every id is below this.
  std::size_t size() const;

 private:
  const CompiledSet* set_ = nullptr;
  /// Inodes outside the set, sorted, with their ids.
  std::vector<std::pair<Inode, FileId>> others_;
  mutable Inode memo_inode_ = 0;
  mutable std::optional<FileId> memo_;
};

}  // namespace flexfetch::trace
