#include "os/buffer_cache.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace flexfetch::os {

BufferCache::BufferCache(BufferCacheConfig config) : capacity_(config.capacity_pages) {
  // All checks precede the double -> integer conversions (undefined for NaN,
  // infinite or out-of-range values); every comparison fails on NaN.
  FF_REQUIRE(capacity_ >= 4, "buffer cache: capacity too small");
  FF_REQUIRE(config.kin_fraction > 0.0 && config.kin_fraction < 1.0,
             "buffer cache: kin fraction out of (0,1)");
  FF_REQUIRE(config.kout_fraction > 0.0, "buffer cache: kout fraction not > 0");
  const double cap = static_cast<double>(capacity_);
  FF_REQUIRE(capacity_ < kNull && config.kout_fraction * cap < static_cast<double>(kNull),
             "buffer cache: capacity too large for 32-bit slots");
  kin_ = std::max<std::size_t>(static_cast<std::size_t>(config.kin_fraction * cap), 1);
  kout_ = std::max<std::size_t>(static_cast<std::size_t>(config.kout_fraction * cap), 1);

  // One slot per resident page plus one per ghost; both populations are
  // bounded (<= capacity_ residents, <= kout_ ghosts), so the reserved arena
  // never reallocates. Both terms are below 2^32: the sum cannot wrap.
  const std::size_t slots = capacity_ + kout_;
  FF_REQUIRE(slots < kNull, "buffer cache: capacity too large for 32-bit slots");
  arena_.reserve(slots);
}

void BufferCache::register_files(const trace::CompiledSet& set) {
  FF_REQUIRE(files_.empty(), "buffer cache: a set is registered on a fresh cache only");
  ids_.adopt(set);
  files_.assign(set.page_spans().begin(), set.page_spans().end());
  index_.assign(set.total_pages(), kNull);
}

void BufferCache::register_files(const std::map<Inode, Bytes>& extents) {
  for (const auto& [inode, size] : extents) {
    const std::uint64_t pages = page_end_index(Bytes{}, size);
    FileSpan& span = files_[index_of(file(inode))];
    if (pages > span.pages) grow(span, pages - 1);
  }
}

const BufferCache::FileSpan* BufferCache::find_file(Inode inode) const {
  const auto f = ids_.find(inode);
  return f ? &files_[index_of(*f)] : nullptr;
}

BufferCache::FileHandle BufferCache::file(Inode inode) {
  const FileHandle f = ids_.add(inode);
  if (index_of(f) == files_.size()) {
    files_.push_back(FileSpan{inode, static_cast<std::uint32_t>(index_.size()), 0});
  }
  return f;
}

std::uint32_t BufferCache::slot_of(const PageId& id) const {
  const FileSpan* f = find_file(id.inode);
  return f != nullptr && id.index < f->pages ? index_[f->base + id.index] : kNull;
}

std::uint32_t BufferCache::cell(FileHandle f, std::uint64_t page) {
  FileSpan& span = files_[index_of(f)];
  if (page >= span.pages) grow(span, page);
  return span.base + static_cast<std::uint32_t>(page);
}

void BufferCache::grow(FileSpan& span, std::uint64_t page) {
  const bool at_end = span.base + std::uint64_t{span.pages} == index_.size();
  const std::uint64_t base = at_end ? span.base : index_.size();
  // Positions stay below kNull. In a Simulator every indexed page lies in a
  // compiled set's span (plus one readahead window) that FileLayout has
  // fitted on the disk, so this bound only stops direct API use.
  const std::uint64_t limit = kNull - base;
  FF_REQUIRE(page < limit, "buffer cache: page index too large for 32-bit positions");
  const std::uint64_t pages =
      std::min(std::max(page + 1, 2 * std::uint64_t{span.pages}), limit);
  index_.resize(base + pages, kNull);
  for (std::uint32_t p = 0; !at_end && p < span.pages; ++p) {
    const std::uint32_t s = index_[base + p] = index_[span.base + p];
    if (s != kNull) arena_[s].cell = static_cast<std::uint32_t>(base + p);
  }
  span.base = static_cast<std::uint32_t>(base);
  span.pages = static_cast<std::uint32_t>(pages);
}

std::uint32_t BufferCache::alloc_slot() {
  // Recycled slots first, then the next never-used one; appends stay within
  // the capacity reserved at construction, so they never reallocate.
  if (free_head_ == kNull) {
    FF_ASSERT(arena_.size() < capacity_ + kout_);
    arena_.emplace_back();
    return static_cast<std::uint32_t>(arena_.size() - 1);
  }
  const std::uint32_t s = free_head_;
  free_head_ = arena_[s].next;
  return s;
}

void BufferCache::free_slot(std::uint32_t s) {
  arena_[s].where = Where::kFree;
  arena_[s].next = free_head_;
  free_head_ = s;
}

void BufferCache::chain_push_front(Chain& c, std::uint32_t s) {
  arena_[s].prev = kNull;
  arena_[s].next = c.head;
  if (c.head != kNull) {
    arena_[c.head].prev = s;
  } else {
    c.tail = s;
  }
  c.head = s;
  ++c.size;
}

void BufferCache::chain_unlink(Chain& c, std::uint32_t s) {
  const std::uint32_t p = arena_[s].prev;
  const std::uint32_t n = arena_[s].next;
  if (p != kNull) arena_[p].next = n; else c.head = n;
  if (n != kNull) arena_[n].prev = p; else c.tail = p;
  --c.size;
}

bool BufferCache::count_lookup(std::uint32_t s) {
  ++stats_.lookups;
  if (s == kNull) return false;
  if (arena_[s].where == Where::kA1out) {
    ++stats_.ghost_hits;
    return false;
  }
  ++stats_.hits;
  if (arena_[s].where == Where::kAm && am_.head != s) {
    chain_unlink(am_, s);  // Promote to MRU.
    chain_push_front(am_, s);
  }
  // 2Q: a hit in A1in leaves the page in place (FIFO order unchanged).
  return true;
}

bool BufferCache::lookup(const PageId& id, Seconds /*now*/) {
  return count_lookup(slot_of(id));
}

bool BufferCache::contains(const PageId& id) const { return resident(slot_of(id)); }

bool BufferCache::contains_range(Inode inode, std::uint64_t first,
                                 std::uint64_t end) const {
  if (first >= end) return true;
  const FileSpan* f = find_file(inode);
  if (f == nullptr || end > f->pages) return false;
  for (std::uint64_t p = first; p < end; ++p) {
    if (!resident(index_[f->base + p])) return false;
  }
  return true;
}

bool BufferCache::read_page(FileHandle f, std::uint64_t page, bool demanded,
                            Seconds now, std::vector<DirtyPage>& flushed) {
  const std::uint32_t c = cell(f, page);
  if (demanded ? count_lookup(index_[c]) : resident(index_[c])) return true;
  insert_new(c, PageId{files_[index_of(f)].inode, page}, /*dirty=*/false, now,
             flushed);
  return false;
}

void BufferCache::write_page(FileHandle f, std::uint64_t page, Seconds now,
                             std::vector<DirtyPage>& flushed) {
  const std::uint32_t c = cell(f, page);
  const std::uint32_t s = index_[c];
  if (!resident(s)) {
    insert_new(c, PageId{files_[index_of(f)].inode, page}, /*dirty=*/true, now,
               flushed);
    return;
  }
  if (!arena_[s].dirty) mark_dirty(s, now);
  if (arena_[s].where == Where::kAm && am_.head != s) {
    chain_unlink(am_, s);
    chain_push_front(am_, s);
  }
}

void BufferCache::fill(const PageId& id, Seconds now,
                       std::vector<DirtyPage>& flushed) {
  read_page(file(id.inode), id.index, /*demanded=*/false, now, flushed);
}

void BufferCache::write(const PageId& id, Seconds now,
                        std::vector<DirtyPage>& flushed) {
  write_page(file(id.inode), id.index, now, flushed);
}

std::vector<DirtyPage> BufferCache::fill(const PageId& id, Seconds now) {
  std::vector<DirtyPage> flushed;
  fill(id, now, flushed);
  return flushed;
}

std::vector<DirtyPage> BufferCache::write(const PageId& id, Seconds now) {
  std::vector<DirtyPage> flushed;
  write(id, now, flushed);
  return flushed;
}

void BufferCache::mark_dirty(std::uint32_t s, Seconds now) {
  Slot& sl = arena_[s];
  sl.dirty = true;
  sl.dirtied_at = now;
  // Simulation time only moves forward, so this is an O(1) append on the
  // hot path; the backward scan runs only for out-of-order timestamps
  // (direct API use) and keeps the sorted-by-age invariant regardless.
  std::uint32_t after = dirty_list_.tail;
  while (after != kNull && arena_[after].dirtied_at > now) {
    after = arena_[after].dirty_prev;
  }
  if (after == kNull) {  // New oldest entry: link at the head.
    sl.dirty_prev = kNull;
    sl.dirty_next = dirty_list_.head;
    if (dirty_list_.head != kNull) {
      arena_[dirty_list_.head].dirty_prev = s;
    } else {
      dirty_list_.tail = s;
    }
    dirty_list_.head = s;
  } else {  // Link directly after `after`.
    sl.dirty_prev = after;
    sl.dirty_next = arena_[after].dirty_next;
    if (sl.dirty_next != kNull) {
      arena_[sl.dirty_next].dirty_prev = s;
    } else {
      dirty_list_.tail = s;
    }
    arena_[after].dirty_next = s;
  }
  ++dirty_list_.size;
}

void BufferCache::dirty_unlink(std::uint32_t s) {
  Slot& sl = arena_[s];
  if (sl.dirty_prev != kNull) {
    arena_[sl.dirty_prev].dirty_next = sl.dirty_next;
  } else {
    dirty_list_.head = sl.dirty_next;
  }
  if (sl.dirty_next != kNull) {
    arena_[sl.dirty_next].dirty_prev = sl.dirty_prev;
  } else {
    dirty_list_.tail = sl.dirty_prev;
  }
  --dirty_list_.size;
  sl.dirty = false;
  sl.dirty_prev = sl.dirty_next = kNull;
}

void BufferCache::insert_new(std::uint32_t c, const PageId& id, bool dirty,
                             Seconds now, std::vector<DirtyPage>& flushed) {
  make_room(flushed);
  ++stats_.insertions;
  // Re-read after make_room: evicting may have trimmed this id's ghost slot.
  const std::uint32_t ghost = index_[c];
  std::uint32_t s;
  if (ghost != kNull) {
    // Re-reference of a recently evicted page: admit straight to Am.
    FF_ASSERT(arena_[ghost].where == Where::kA1out);
    chain_unlink(a1out_, ghost);
    s = ghost;
    chain_push_front(am_, s);
    arena_[s].where = Where::kAm;
  } else {
    s = alloc_slot();
    arena_[s].id = id;
    arena_[s].cell = c;
    index_[c] = s;
    chain_push_front(a1in_, s);
    arena_[s].where = Where::kA1in;
  }
  arena_[s].dirty = false;
  arena_[s].dirty_prev = arena_[s].dirty_next = kNull;
  if (dirty) mark_dirty(s, now);
}

void BufferCache::make_room(std::vector<DirtyPage>& flushed) {
  if (a1in_.size + am_.size < capacity_) return;
  // 2Q "reclaim": prefer shrinking an over-quota A1in, else take the Am LRU.
  if (a1in_.size > kin_ || am_.size == 0) {
    FF_ASSERT(a1in_.size > 0);
    const std::uint32_t victim = a1in_.tail;
    Slot& sl = arena_[victim];
    if (sl.dirty) {
      flushed.push_back(DirtyPage{sl.id, sl.dirtied_at});
      dirty_unlink(victim);
    }
    chain_unlink(a1in_, victim);
    ++stats_.evictions;
    // The victim becomes a ghost in place: same slot, same index cell.
    sl.where = Where::kA1out;
    chain_push_front(a1out_, victim);
    while (a1out_.size > kout_) {
      const std::uint32_t g = a1out_.tail;
      chain_unlink(a1out_, g);
      index_[arena_[g].cell] = kNull;
      free_slot(g);
    }
  } else {
    const std::uint32_t victim = am_.tail;
    Slot& sl = arena_[victim];
    if (sl.dirty) {
      flushed.push_back(DirtyPage{sl.id, sl.dirtied_at});
      dirty_unlink(victim);
    }
    chain_unlink(am_, victim);
    index_[sl.cell] = kNull;
    free_slot(victim);
    ++stats_.evictions;
  }
}

void BufferCache::mark_clean(const PageId& id) {
  const std::uint32_t s = slot_of(id);
  if (resident(s) && arena_[s].dirty) dirty_unlink(s);
}

void BufferCache::append_dirty_pages(std::vector<DirtyPage>& out) const {
  for (std::uint32_t s = dirty_list_.head; s != kNull; s = arena_[s].dirty_next) {
    out.push_back(DirtyPage{arena_[s].id, arena_[s].dirtied_at});
  }
}

void BufferCache::append_dirty_pages_older_than(Seconds now, Seconds min_age,
                                                std::vector<DirtyPage>& out) const {
  // The chain is ordered by dirtied_at, so eligible pages form a prefix.
  for (std::uint32_t s = dirty_list_.head; s != kNull; s = arena_[s].dirty_next) {
    if (now - arena_[s].dirtied_at < min_age) break;
    out.push_back(DirtyPage{arena_[s].id, arena_[s].dirtied_at});
  }
}

std::vector<DirtyPage> BufferCache::dirty_pages() const {
  std::vector<DirtyPage> out;
  out.reserve(dirty_list_.size);
  append_dirty_pages(out);
  return out;
}

std::vector<DirtyPage> BufferCache::dirty_pages_older_than(Seconds now,
                                                           Seconds min_age) const {
  std::vector<DirtyPage> out;
  append_dirty_pages_older_than(now, min_age, out);
  return out;
}

void BufferCache::clear() {
  a1in_ = Chain{};
  am_ = Chain{};
  a1out_ = Chain{};
  dirty_list_ = Chain{};
  arena_.clear();  // Keeps the reserved capacity.
  free_head_ = kNull;
  std::fill(index_.begin(), index_.end(), kNull);
}

}  // namespace flexfetch::os
