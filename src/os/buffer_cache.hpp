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
// Storage layout: each page (resident or ghost) lives in one slot, numbered
// below capacity + kout. A slot's state is split by how often it is read:
//   * a one-byte state (its queue and the dirty bit), which answers every
//     residency check;
//   * a 16-byte hot record: its index cell, its queue links and its file id;
//   * a cold record: its dirty-chain links and dirtied_at, written only when
//     the page is dirtied.
// The arrays are allocated at construction and left unwritten: slots are
// handed out in first-use order, once the free list of recycled slots is
// empty, so nothing is filled per simulation. Am, A1out and the
// age-ordered dirty list are intrusive chains of slot indices; A1in, which
// 2Q only ever pushes at one end and evicts at the other, is a ring of slot
// ids. A per-file page index, shaped like Linux's page cache, maps pages to
// slots: one flat array holds a span per file (page p is cell base + p,
// kNull when absent); a slot records its cell, and a page's id is rebuilt
// from its file's span and its cell. Files are numbered by dense id
// (trace::FileId): a cache registered from a compiled set copies the set's
// span table (ids 0..F-1) and sizes the index once; any other inode gets the
// next id on first use.
//
// Reads and writes enter by range: read_range / write_range resolve the
// file's span once and walk its pages in order, so a syscall costs one call.
// Once a run's files are registered no operation allocates: evicted dirty
// pages and fetch runs go to caller-owned buffers, and only a page past its
// file's span grows the span (geometrically, so O(log) times per file).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <type_traits>
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
  /// The page's file by dense id in the cache that holds it.
  trace::FileId file{};
};

class BufferCache {
 public:
  explicit BufferCache(BufferCacheConfig config = {});
  // The slot arrays are views into one owned block.
  BufferCache(const BufferCache&) = delete;
  BufferCache& operator=(const BufferCache&) = delete;

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

  /// One read of file `f`: walks pages [first, want_end) in order. A page
  /// of [demand_first, demand_end) is looked up (counted; promoted on a
  /// hit), any other page only checked; a miss is filled. Dirty pages
  /// evicted to make room are APPENDED to `flushed`, and the runs of missed
  /// pages to `*fetches` unless it is null (each run carrying the file's
  /// inode and id). Returns the number of demanded pages that were
  /// resident.
  std::uint64_t read_range(FileHandle f, std::uint64_t first,
                           std::uint64_t demand_first, std::uint64_t demand_end,
                           std::uint64_t want_end, Seconds now,
                           std::vector<DirtyPage>& flushed,
                           std::vector<PageRange>* fetches);

  /// One write of file `f`: dirties pages [first, end) in order, inserting
  /// the absent ones; evictions are reported as by read_range.
  void write_range(FileHandle f, std::uint64_t first, std::uint64_t end,
                   Seconds now, std::vector<DirtyPage>& flushed);

  /// True if every page of [first, end) of `inode` is resident.
  bool contains_range(Inode inode, std::uint64_t first, std::uint64_t end) const;

  /// True and promotes the page if resident (a cache hit).
  bool lookup(const PageId& id, Seconds now);

  /// True without promoting or counting a lookup (used by FlexFetch's
  /// Section 2.3.2 profile filtering).
  bool contains(const PageId& id) const;

  /// Inserts a clean page fetched from a device: read_range over the one
  /// page, undemanded. Dirty pages evicted to make room are APPENDED to
  /// `flushed` (the caller owns the buffer and must flush them); nothing is
  /// cleared.
  void fill(const PageId& id, Seconds now, std::vector<DirtyPage>& flushed);

  /// Inserts/marks a page dirty (application write): write_range over the
  /// one page. Evictions reported as fill().
  void write(const PageId& id, Seconds now, std::vector<DirtyPage>& flushed);

  /// Allocating conveniences (tests / one-shot callers).
  std::vector<DirtyPage> fill(const PageId& id, Seconds now);
  std::vector<DirtyPage> write(const PageId& id, Seconds now);

  /// Marks a page clean after its write-back completed (a no-op unless it
  /// is resident and dirty).
  void mark_clean(FileHandle f, std::uint64_t page);
  /// Inode form (tests).
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

  // A slot's state byte: its queue in the low two bits (kFree slots sit on
  // the free list) and the dirty bit. Every slot an index cell holds is on
  // A1out or resident, so residency is one compare.
  static constexpr std::uint8_t kFree = 0;
  static constexpr std::uint8_t kA1out = 1;
  static constexpr std::uint8_t kA1in = 2;
  static constexpr std::uint8_t kAm = 3;
  static constexpr std::uint8_t kQueue = 3;
  static constexpr std::uint8_t kDirty = 4;

  struct Hot {
    std::uint32_t cell;  ///< Its entry in index_.
    std::uint32_t prev;  ///< Am / A1out chain.
    std::uint32_t next;  ///< Am / A1out chain, or free-list next.
    trace::FileId file;
  };
  /// Valid while the slot is dirty. Trivial (dirtied_at is raw seconds), so
  /// the array stays unwritten until a page is dirtied.
  struct Cold {
    std::uint32_t dirty_prev;
    std::uint32_t dirty_next;
    double dirtied_at;
  };
  static_assert(sizeof(Hot) == 16);
  static_assert(std::is_trivially_default_constructible_v<Hot> &&
                std::is_trivially_default_constructible_v<Cold>);

  /// Doubly-linked chain of slot indices; head = front (newest/MRU for the
  /// queues, oldest for the dirty list).
  struct Chain {
    std::uint32_t head = kNull;
    std::uint32_t tail = kNull;
    std::size_t size = 0;
  };

  /// A1in: slot ids in a ring of capacity_ entries, oldest at `tail`.
  struct Ring {
    std::uint32_t* ids = nullptr;
    std::size_t head = 0;  ///< Where the next id goes.
    std::size_t tail = 0;
    std::size_t size = 0;
  };

  using FileSpan = trace::PageSpan;

  bool resident(std::uint32_t s) const {
    return s != kNull && (state_[s] & kQueue) != kA1out;
  }
  bool is_dirty(std::uint32_t s) const { return (state_[s] & kDirty) != 0; }
  const FileSpan* find_file(Inode inode) const;  ///< nullptr if unknown.
  std::uint32_t slot_of(const PageId& id) const;  ///< kNull if not indexed.
  /// `f`'s span, grown to cover pages below `end` when `end` is past it.
  const FileSpan& cover(FileHandle f, std::uint64_t end);
  /// At least doubles `span` to cover `page`: in place if it ends index_,
  /// else moved to the end (its slots' cells follow).
  void grow(FileSpan& span, std::uint64_t page);
  bool count_lookup(std::uint32_t s);  ///< A demand lookup; true on a hit.
  void promote(std::uint32_t s);  ///< Am residents move to the MRU end.
  DirtyPage dirty_page(std::uint32_t s) const;

  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t s);

  void chain_push_front(Chain& c, std::uint32_t s);
  void chain_unlink(Chain& c, std::uint32_t s);
  void a1in_push(std::uint32_t s);
  std::uint32_t a1in_pop();  ///< Removes and returns the oldest.

  void mark_dirty(std::uint32_t s, Seconds now);
  void dirty_unlink(std::uint32_t s);

  /// Ensures a free resident slot, evicting per 2Q; collects evicted dirty
  /// pages.
  void make_room(std::vector<DirtyPage>& flushed);
  /// Inserts the page of index cell `c` (a page of `f`).
  void insert_new(std::uint32_t c, FileHandle f, bool dirty, Seconds now,
                  std::vector<DirtyPage>& flushed);

  std::size_t capacity_;
  std::size_t kin_;
  std::size_t kout_;

  /// One allocation holds the per-slot arrays (capacity_ + kout_ slots) and
  /// the A1in ring; the pointers below view it. Slots below used_ have been
  /// handed out.
  std::unique_ptr<std::byte[]> storage_;
  Hot* hot_ = nullptr;
  Cold* cold_ = nullptr;
  std::uint8_t* state_ = nullptr;
  std::uint32_t used_ = 0;
  std::uint32_t free_head_ = kNull;  ///< Recycled slots only.
  trace::FileIds ids_;
  std::vector<FileSpan> files_;       ///< By file id.
  std::vector<std::uint32_t> index_;  ///< Every file's span of slots.

  Ring a1in_;    ///< FIFO: pushed at head, evicted at tail.
  Chain am_;     ///< head = MRU, tail = LRU.
  Chain a1out_;  ///< ghost ids, head = newest.
  /// Dirty pages in dirtying order (head = oldest). Simulation time only
  /// moves forward, so the chain stays sorted by dirtied_at without ever
  /// being resorted; the flusher's age queries become prefix scans.
  Chain dirty_list_;
  CacheStats stats_;
};

}  // namespace flexfetch::os
