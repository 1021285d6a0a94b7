// The VFS layer: turns application read/write syscalls into device page
// fetches, going through the buffer cache and readahead, and exposes
// write-back flush planning. This is the glue the simulator drives.
#pragma once

#include <vector>

#include "os/buffer_cache.hpp"
#include "os/readahead.hpp"
#include "os/writeback.hpp"
#include "trace/record.hpp"

namespace flexfetch::os {

struct VfsConfig {
  BufferCacheConfig cache;
  ReadaheadConfig readahead;
  WritebackConfig writeback;
};

/// Outcome of planning a read syscall.
struct ReadPlan {
  /// Contiguous page ranges that must be fetched from a device
  /// (miss runs inside the demanded+readahead window).
  std::vector<PageRange> fetches;
  std::uint64_t pages_demanded = 0;
  std::uint64_t pages_hit = 0;  ///< Demanded pages already resident.
  /// Dirty pages evicted while inserting the fetched pages; the caller must
  /// write these to a device synchronously.
  std::vector<DirtyPage> evicted_dirty;

  bool fully_cached() const { return fetches.empty(); }
  Bytes bytes_to_fetch() const;

  /// Resets counters and empties the vectors, keeping their capacity —
  /// callers on the hot path reuse one plan across calls.
  void reset();
};

/// Outcome of planning a write syscall (writes are buffered).
struct WritePlan {
  std::uint64_t pages_dirtied = 0;
  std::vector<DirtyPage> evicted_dirty;  ///< Forced synchronous flushes.

  void reset();
};

class Vfs {
 public:
  explicit Vfs(VfsConfig config = {});

  /// Registers the set's files (ids 0..F-1) with the cache and readahead,
  /// so planning their reads and writes by id never allocates. Call first;
  /// `set` must outlive the Vfs.
  void register_files(const trace::CompiledSet& set);

  /// Plans a read of record `r` on `file` (its dense id) into a caller-owned
  /// plan (reset() + refilled; reusing one plan across calls makes this
  /// allocation-free at steady state). One BufferCache::read_range call
  /// returns the miss runs (with readahead applied) and inserts the
  /// to-be-fetched pages into the cache.
  /// `file_extent`, when non-zero, caps the readahead at end-of-file (the
  /// kernel never prefetches past EOF); the demanded range is never
  /// truncated. `demand_first`/`demand_end` are the record's page span
  /// (page_index/page_end_index of its byte range), which compiled traces
  /// precompute.
  void plan_read(const trace::SyscallRecord& r, trace::FileId file, Seconds now,
                 Bytes file_extent, std::uint64_t demand_first,
                 std::uint64_t demand_end, ReadPlan& plan);

  /// Inode form: resolves r.inode through the cache.
  void plan_read(const trace::SyscallRecord& r, Seconds now, Bytes file_extent,
                 std::uint64_t demand_first, std::uint64_t demand_end,
                 ReadPlan& plan);

  /// Allocating convenience: derives the page span from the record.
  ReadPlan plan_read(const trace::SyscallRecord& r, Seconds now,
                     Bytes file_extent = Bytes{});

  /// Plans a buffered write: dirties the pages of [first, end) of `file`
  /// with one BufferCache::write_range call.
  void plan_write(const trace::SyscallRecord& r, trace::FileId file, Seconds now,
                  std::uint64_t first, std::uint64_t end, WritePlan& plan);

  /// Inode form: resolves r.inode through the cache.
  void plan_write(const trace::SyscallRecord& r, Seconds now,
                  std::uint64_t first, std::uint64_t end, WritePlan& plan);

  WritePlan plan_write(const trace::SyscallRecord& r, Seconds now);

  /// Appends the dirty pages the write-back policy wants flushed now to the
  /// caller-owned `out` (cleared first).
  void select_writeback(Seconds now, bool device_active,
                        std::vector<DirtyPage>& out) const;

  std::vector<DirtyPage> select_writeback(Seconds now, bool device_active) const;

  /// Marks pages clean after their flush completed, by file id.
  void complete_writeback(const std::vector<DirtyPage>& pages);

  /// Coalesces dirty pages into runs of consecutive pages of one file, each
  /// carrying the file's inode and id, keeping the given order: write-back
  /// submits oldest-dirty-first and leaves reordering to the I/O scheduler.
  /// `out` is cleared and refilled (capacity kept).
  static void coalesce(const std::vector<DirtyPage>& pages, std::vector<PageRange>& out);

  /// True if every page of [offset, offset+size) in `inode` is resident —
  /// FlexFetch's Section 2.3.2 cache filter uses this.
  bool range_cached(Inode inode, Bytes offset, Bytes size) const;

  /// Page-span form for callers that already know the range's pages.
  bool range_cached_pages(Inode inode, std::uint64_t first_page,
                          std::uint64_t end_page) const;

  BufferCache& cache() { return cache_; }
  const BufferCache& cache() const { return cache_; }
  Readahead& readahead() { return readahead_; }
  const WritebackPolicy& writeback() const { return writeback_; }

 private:
  BufferCache cache_;
  Readahead readahead_;
  WritebackPolicy writeback_;
};

}  // namespace flexfetch::os
