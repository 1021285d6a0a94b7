// 2Q buffer cache (Johnson & Shasha, VLDB'94) — the "2Q-like page
// replacement algorithm" the paper's simulator uses for the Linux buffer
// cache (Section 3.1).
//
// Three structures:
//   * A1in : FIFO of pages seen once recently (hot admission buffer),
//   * A1out: ghost FIFO of page ids recently evicted from A1in,
//   * Am   : LRU of pages re-referenced after leaving A1in.
//
// A page hit in A1out on (re)admission goes straight to Am; a brand-new page
// goes to A1in. Dirty state is tracked per page so the write-back substrate
// can find flush candidates.
//
// Storage layout: each page (resident or ghost) lives in one slot of an arena
// reserved for capacity + kout slots and appended to on first use, once the
// free list of recycled slots is empty. The queues and the age-ordered dirty
// list are intrusive chains of slot indices. A per-file page index, shaped
// like Linux's page cache, maps pages to slots: one flat array holds a span
// per file (page p is cell base + p, kNull when absent); a slot records its
// cell. Files are numbered by dense id (trace::FileId): a cache registered
// from a compiled set copies the set's span table (ids 0..F-1) and sizes the
// index once; any other inode gets the next id on first use. Once a run's
// files are registered no operation allocates: evicted dirty pages go to a
// caller-owned scratch buffer, and only a page past its file's span grows
// the span (geometrically, so O(log) times per file).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "os/page.hpp"
#include "trace/compiled.hpp"

namespace flexfetch::os {

struct BufferCacheConfig {
  /// Total cache capacity in pages (default 64 MiB of 4 KiB pages — a
  /// laptop-era memory budget).
  std::size_t capacity_pages = 16384;
  /// A1in capacity as a fraction of total (2Q paper recommends ~25%).
  double kin_fraction = 0.25;
  /// A1out ghost capacity as a fraction of total (2Q recommends ~50%).
  double kout_fraction = 0.50;
};

struct CacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t ghost_hits = 0;  ///< Misses whose id was in A1out.
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;

  double hit_rate() const {
    return lookups ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0;
  }
};

/// A dirty page due for write-back.
struct DirtyPage {
  PageId page;
  Seconds dirtied_at = Seconds{0.0};
};

class BufferCache {
 public:
  explicit BufferCache(BufferCacheConfig config = {});

  /// Adopts the set's file ids and copies its page-span table, sizing the
  /// index once at the set's total page count. Call first, on a fresh
  /// cache; `set` must outlive the cache.
  void register_files(const trace::CompiledSet& set);

  /// Sizes the page index of each file of `extents` (inode -> bytes).
  void register_files(const std::map<Inode, Bytes>& extents);

  /// A file's dense id: the set's id, or the next free one for any other
  /// inode.
  using FileHandle = trace::FileId;
  /// Resolves `inode`, adding an empty entry for a new file.
  FileHandle file(Inode inode);

  /// One page of a read: a demanded page is looked up (counted; promoted on
  /// a hit), a readahead page only checked; a miss is filled. Returns true
  /// if the page was resident.
  bool read_page(FileHandle f, std::uint64_t page, bool demanded, Seconds now,
                 std::vector<DirtyPage>& flushed);
  void write_page(FileHandle f, std::uint64_t page, Seconds now,
                  std::vector<DirtyPage>& flushed);

  /// True if every page of [first, end) of `inode` is resident.
  bool contains_range(Inode inode, std::uint64_t first, std::uint64_t end) const;

  /// True and promotes the page if resident (a cache hit).
  bool lookup(const PageId& id, Seconds now);

  /// True without promoting or counting a lookup (used by FlexFetch's
  /// Section 2.3.2 profile filtering).
  bool contains(const PageId& id) const;

  /// Inserts a clean page fetched from a device. Dirty pages evicted to
  /// make room are APPENDED to `flushed` (the caller owns the buffer and
  /// must flush them); nothing is cleared.
  void fill(const PageId& id, Seconds now, std::vector<DirtyPage>& flushed);

  /// Inserts/marks a page dirty (application write). Evictions reported as
  /// fill().
  void write(const PageId& id, Seconds now, std::vector<DirtyPage>& flushed);

  /// Allocating conveniences (tests / one-shot callers).
  std::vector<DirtyPage> fill(const PageId& id, Seconds now);
  std::vector<DirtyPage> write(const PageId& id, Seconds now);

  /// Marks a page clean after its write-back completed.
  void mark_clean(const PageId& id);

  /// Appends all dirty pages, oldest first, to `out`. O(dirty) — reads the
  /// insertion-ordered dirty chain (dirtied_at is monotone in simulation
  /// time, so insertion order IS age order).
  void append_dirty_pages(std::vector<DirtyPage>& out) const;

  /// Appends dirty pages whose age at `now` is at least `min_age`, oldest
  /// first. O(matches) — a prefix scan of the dirty chain.
  void append_dirty_pages_older_than(Seconds now, Seconds min_age,
                                     std::vector<DirtyPage>& out) const;

  std::vector<DirtyPage> dirty_pages() const;
  std::vector<DirtyPage> dirty_pages_older_than(Seconds now, Seconds min_age) const;

  std::size_t size() const { return a1in_.size + am_.size; }
  std::size_t capacity() const { return capacity_; }
  std::size_t dirty_count() const { return dirty_list_.size; }
  const CacheStats& stats() const { return stats_; }

  /// Drops every page (clean and dirty) — test helper / remount semantics.
  void clear();

 private:
  static constexpr std::uint32_t kNull = 0xffffffffu;

  /// Which chain a slot is linked into (kFree slots sit on the free list).
  enum class Where : std::uint8_t { kFree, kA1in, kAm, kA1out };

  struct Slot {
    PageId id;
    std::uint32_t cell = kNull;        ///< Its entry in index_.
    std::uint32_t prev = kNull;        ///< Queue chain.
    std::uint32_t next = kNull;        ///< Queue chain, or free-list next.
    std::uint32_t dirty_prev = kNull;  ///< Dirty chain, valid iff dirty.
    std::uint32_t dirty_next = kNull;
    Where where = Where::kFree;
    bool dirty = false;
    Seconds dirtied_at = Seconds{0.0};
  };

  /// Doubly-linked chain of slot indices; head = front (newest/MRU for the
  /// queues, oldest for the dirty list).
  struct Chain {
    std::uint32_t head = kNull;
    std::uint32_t tail = kNull;
    std::size_t size = 0;
  };

  using FileSpan = trace::PageSpan;

  bool resident(std::uint32_t s) const {
    return s != kNull && arena_[s].where != Where::kA1out;
  }
  const FileSpan* find_file(Inode inode) const;  ///< nullptr if unknown.
  std::uint32_t slot_of(const PageId& id) const;  ///< kNull if not indexed.
  /// index_ cell of `page`, growing the span to reach it.
  std::uint32_t cell(FileHandle f, std::uint64_t page);
  /// At least doubles `span` to cover `page`: in place if it ends index_,
  /// else moved to the end (its slots' cells follow).
  void grow(FileSpan& span, std::uint64_t page);
  bool count_lookup(std::uint32_t s);  ///< A demand lookup; true on a hit.

  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t s);

  void chain_push_front(Chain& c, std::uint32_t s);
  void chain_unlink(Chain& c, std::uint32_t s);

  void mark_dirty(std::uint32_t s, Seconds now);
  void dirty_unlink(std::uint32_t s);

  /// Ensures a free resident slot, evicting per 2Q; collects evicted dirty
  /// pages.
  void make_room(std::vector<DirtyPage>& flushed);
  void insert_new(std::uint32_t c, const PageId& id, bool dirty, Seconds now,
                  std::vector<DirtyPage>& flushed);

  std::size_t capacity_;
  std::size_t kin_;
  std::size_t kout_;

  std::vector<Slot> arena_;  ///< Reserved for capacity_ + kout_ slots.
  std::uint32_t free_head_ = kNull;  ///< Recycled slots only.
  trace::FileIds ids_;
  std::vector<FileSpan> files_;       ///< By file id.
  std::vector<std::uint32_t> index_;  ///< Every file's span of slots.

  Chain a1in_;   ///< head = newest, tail = FIFO eviction end.
  Chain am_;     ///< head = MRU, tail = LRU.
  Chain a1out_;  ///< ghost ids, head = newest.
  /// Dirty pages in dirtying order (head = oldest). Simulation time only
  /// moves forward, so the chain stays sorted by dirtied_at without ever
  /// being resorted; the flusher's age queries become prefix scans.
  Chain dirty_list_;
  CacheStats stats_;
};

}  // namespace flexfetch::os
