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
  // bounded (<= capacity_ residents, <= kout_ ghosts). Both terms are below
  // 2^32: the sum cannot wrap.
  const std::size_t slots = capacity_ + kout_;
  FF_REQUIRE(slots < kNull, "buffer cache: capacity too large for 32-bit slots");
  // One block, most strictly aligned array first, left unwritten: the
  // records are trivial types, written when a slot is handed out (the cold
  // one when its page is dirtied). A byte array's storage implicitly
  // creates them.
  const std::size_t hot_bytes = slots * sizeof(Hot);
  const std::size_t cold_bytes = slots * sizeof(Cold);
  const std::size_t ring_bytes = capacity_ * sizeof(std::uint32_t);
  static_assert(sizeof(Hot) % alignof(Cold) == 0 &&
                sizeof(Cold) % alignof(std::uint32_t) == 0);
  storage_ = std::make_unique_for_overwrite<std::byte[]>(hot_bytes + cold_bytes +
                                                         ring_bytes + slots);
  std::byte* block = storage_.get();
  hot_ = reinterpret_cast<Hot*>(block);
  cold_ = reinterpret_cast<Cold*>(block + hot_bytes);
  a1in_.ids = reinterpret_cast<std::uint32_t*>(block + hot_bytes + cold_bytes);
  state_ = reinterpret_cast<std::uint8_t*>(block + hot_bytes + cold_bytes + ring_bytes);
}

void BufferCache::register_files(const trace::CompiledSet& set) {
  FF_REQUIRE(files_.empty(), "buffer cache: a set is registered on a fresh cache only");
  ids_.adopt(set);
  files_.assign(set.page_spans().begin(), set.page_spans().end());
  index_.assign(set.total_pages(), kNull);
}

void BufferCache::register_files(const std::map<Inode, Bytes>& extents) {
  for (const auto& [inode, size] : extents) cover(file(inode), page_end_index(Bytes{}, size));
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

const BufferCache::FileSpan& BufferCache::cover(FileHandle f, std::uint64_t end) {
  FileSpan& span = files_[index_of(f)];
  if (end > span.pages) grow(span, end - 1);
  return span;
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
    if (s != kNull) hot_[s].cell = static_cast<std::uint32_t>(base + p);
  }
  span.base = static_cast<std::uint32_t>(base);
  span.pages = static_cast<std::uint32_t>(pages);
}

std::uint32_t BufferCache::alloc_slot() {
  // Recycled slots first, then the next never-used one.
  if (free_head_ == kNull) {
    FF_ASSERT(used_ < capacity_ + kout_);
    return used_++;
  }
  const std::uint32_t s = free_head_;
  free_head_ = hot_[s].next;
  return s;
}

void BufferCache::free_slot(std::uint32_t s) {
  state_[s] = kFree;
  hot_[s].next = free_head_;
  free_head_ = s;
}

void BufferCache::chain_push_front(Chain& c, std::uint32_t s) {
  hot_[s].prev = kNull;
  hot_[s].next = c.head;
  if (c.head != kNull) {
    hot_[c.head].prev = s;
  } else {
    c.tail = s;
  }
  c.head = s;
  ++c.size;
}

void BufferCache::chain_unlink(Chain& c, std::uint32_t s) {
  const std::uint32_t p = hot_[s].prev;
  const std::uint32_t n = hot_[s].next;
  if (p != kNull) hot_[p].next = n; else c.head = n;
  if (n != kNull) hot_[n].prev = p; else c.tail = p;
  --c.size;
}

void BufferCache::a1in_push(std::uint32_t s) {
  // A1in never holds more pages than the cache: the ring cannot overflow.
  a1in_.ids[a1in_.head] = s;
  a1in_.head = a1in_.head + 1 == capacity_ ? 0 : a1in_.head + 1;
  ++a1in_.size;
}

std::uint32_t BufferCache::a1in_pop() {
  FF_ASSERT(a1in_.size > 0);
  const std::uint32_t s = a1in_.ids[a1in_.tail];
  a1in_.tail = a1in_.tail + 1 == capacity_ ? 0 : a1in_.tail + 1;
  --a1in_.size;
  return s;
}

void BufferCache::promote(std::uint32_t s) {
  // 2Q: a hit in A1in leaves the page in place (FIFO order unchanged).
  if ((state_[s] & kQueue) == kAm && am_.head != s) {
    chain_unlink(am_, s);
    chain_push_front(am_, s);
  }
}

bool BufferCache::count_lookup(std::uint32_t s) {
  ++stats_.lookups;
  if (s == kNull) return false;
  if ((state_[s] & kQueue) == kA1out) {
    ++stats_.ghost_hits;
    return false;
  }
  ++stats_.hits;
  promote(s);
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

std::uint64_t BufferCache::read_range(FileHandle f, std::uint64_t first,
                                      std::uint64_t demand_first,
                                      std::uint64_t demand_end,
                                      std::uint64_t want_end, Seconds now,
                                      std::vector<DirtyPage>& flushed,
                                      std::vector<PageRange>* fetches) {
  if (want_end <= first) return 0;
  // Inserting never moves a span, so the span found here serves every page.
  const FileSpan& span = cover(f, want_end);
  const std::uint32_t base = span.base;
  const Inode inode = span.inode;
  std::uint64_t hits = 0;
  std::uint64_t run_first = 0;  // The open run of misses.
  std::uint64_t run_pages = 0;
  // A demanded page is looked up (counted, promoted), a readahead page only
  // checked; a miss is filled, evicting per 2Q, and joins the open run.
  const auto walk = [&](std::uint64_t lo, std::uint64_t hi, bool demanded) {
    for (std::uint64_t p = lo; p < hi; ++p) {
      const std::uint32_t c = base + static_cast<std::uint32_t>(p);
      if (demanded ? count_lookup(index_[c]) : resident(index_[c])) {
        if (demanded) ++hits;
        if (run_pages != 0) {
          if (fetches != nullptr) {
            fetches->push_back(PageRange{.inode = inode, .first_page = run_first,
                                         .page_count = run_pages, .file = f});
          }
          run_pages = 0;
        }
        continue;
      }
      insert_new(c, f, /*dirty=*/false, now, flushed);
      if (run_pages++ == 0) run_first = p;
    }
  };
  // In page order: readahead before the demand, the demand, readahead after.
  const std::uint64_t d0 = std::clamp(demand_first, first, want_end);
  const std::uint64_t d1 = std::clamp(demand_end, d0, want_end);
  walk(first, d0, false);
  walk(d0, d1, true);
  walk(d1, want_end, false);
  if (run_pages != 0 && fetches != nullptr) {
    fetches->push_back(PageRange{.inode = inode, .first_page = run_first,
                                 .page_count = run_pages, .file = f});
  }
  return hits;
}

void BufferCache::write_range(FileHandle f, std::uint64_t first, std::uint64_t end,
                              Seconds now, std::vector<DirtyPage>& flushed) {
  if (end <= first) return;
  const std::uint32_t base = cover(f, end).base;
  for (std::uint64_t p = first; p < end; ++p) {
    const std::uint32_t c = base + static_cast<std::uint32_t>(p);
    const std::uint32_t s = index_[c];
    if (!resident(s)) {
      insert_new(c, f, /*dirty=*/true, now, flushed);
      continue;
    }
    if (!is_dirty(s)) mark_dirty(s, now);
    promote(s);
  }
}

void BufferCache::fill(const PageId& id, Seconds now,
                       std::vector<DirtyPage>& flushed) {
  FF_REQUIRE(id.index < kNull, "buffer cache: page index too large for 32-bit positions");
  read_range(file(id.inode), id.index, id.index, id.index, id.index + 1, now,
             flushed, nullptr);
}

void BufferCache::write(const PageId& id, Seconds now,
                        std::vector<DirtyPage>& flushed) {
  FF_REQUIRE(id.index < kNull, "buffer cache: page index too large for 32-bit positions");
  write_range(file(id.inode), id.index, id.index + 1, now, flushed);
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

DirtyPage BufferCache::dirty_page(std::uint32_t s) const {
  const Hot& h = hot_[s];
  const FileSpan& span = files_[index_of(h.file)];
  return DirtyPage{.page = PageId{span.inode, h.cell - span.base},
                   .dirtied_at = Seconds{cold_[s].dirtied_at},
                   .file = h.file};
}

void BufferCache::mark_dirty(std::uint32_t s, Seconds now) {
  state_[s] |= kDirty;
  Cold& sl = cold_[s];
  sl.dirtied_at = now.value();
  // Simulation time only moves forward, so this is an O(1) append on the
  // hot path; the backward scan runs only for out-of-order timestamps
  // (direct API use) and keeps the sorted-by-age invariant regardless.
  std::uint32_t after = dirty_list_.tail;
  while (after != kNull && cold_[after].dirtied_at > now.value()) {
    after = cold_[after].dirty_prev;
  }
  if (after == kNull) {  // New oldest entry: link at the head.
    sl.dirty_prev = kNull;
    sl.dirty_next = dirty_list_.head;
    if (dirty_list_.head != kNull) {
      cold_[dirty_list_.head].dirty_prev = s;
    } else {
      dirty_list_.tail = s;
    }
    dirty_list_.head = s;
  } else {  // Link directly after `after`.
    sl.dirty_prev = after;
    sl.dirty_next = cold_[after].dirty_next;
    if (sl.dirty_next != kNull) {
      cold_[sl.dirty_next].dirty_prev = s;
    } else {
      dirty_list_.tail = s;
    }
    cold_[after].dirty_next = s;
  }
  ++dirty_list_.size;
}

void BufferCache::dirty_unlink(std::uint32_t s) {
  const Cold& sl = cold_[s];
  if (sl.dirty_prev != kNull) {
    cold_[sl.dirty_prev].dirty_next = sl.dirty_next;
  } else {
    dirty_list_.head = sl.dirty_next;
  }
  if (sl.dirty_next != kNull) {
    cold_[sl.dirty_next].dirty_prev = sl.dirty_prev;
  } else {
    dirty_list_.tail = sl.dirty_prev;
  }
  --dirty_list_.size;
  state_[s] &= static_cast<std::uint8_t>(~kDirty);
}

void BufferCache::insert_new(std::uint32_t c, FileHandle f, bool dirty,
                             Seconds now, std::vector<DirtyPage>& flushed) {
  make_room(flushed);
  ++stats_.insertions;
  // Re-read after make_room: evicting may have trimmed this page's ghost.
  std::uint32_t s = index_[c];
  if (s != kNull) {
    // Re-reference of a recently evicted page: admit straight to Am. A
    // ghost is clean and already records this cell and file.
    FF_ASSERT(state_[s] == kA1out);
    chain_unlink(a1out_, s);
    chain_push_front(am_, s);
    state_[s] = kAm;
  } else {
    s = alloc_slot();
    hot_[s].cell = c;
    hot_[s].file = f;
    index_[c] = s;
    a1in_push(s);
    state_[s] = kA1in;
  }
  if (dirty) mark_dirty(s, now);
}

void BufferCache::make_room(std::vector<DirtyPage>& flushed) {
  if (a1in_.size + am_.size < capacity_) return;
  // 2Q "reclaim": prefer shrinking an over-quota A1in, else take the Am LRU.
  if (a1in_.size > kin_ || am_.size == 0) {
    const std::uint32_t victim = a1in_pop();
    if (is_dirty(victim)) {
      flushed.push_back(dirty_page(victim));
      dirty_unlink(victim);
    }
    ++stats_.evictions;
    // The victim becomes a ghost in place: same slot, same index cell.
    state_[victim] = kA1out;
    chain_push_front(a1out_, victim);
    while (a1out_.size > kout_) {
      const std::uint32_t g = a1out_.tail;
      chain_unlink(a1out_, g);
      index_[hot_[g].cell] = kNull;
      free_slot(g);
    }
  } else {
    const std::uint32_t victim = am_.tail;
    if (is_dirty(victim)) {
      flushed.push_back(dirty_page(victim));
      dirty_unlink(victim);
    }
    chain_unlink(am_, victim);
    index_[hot_[victim].cell] = kNull;
    free_slot(victim);
    ++stats_.evictions;
  }
}

void BufferCache::mark_clean(FileHandle f, std::uint64_t page) {
  if (index_of(f) >= files_.size()) return;
  const FileSpan& span = files_[index_of(f)];
  if (page >= span.pages) return;
  const std::uint32_t s = index_[span.base + page];
  if (resident(s) && is_dirty(s)) dirty_unlink(s);
}

void BufferCache::mark_clean(const PageId& id) {
  if (const auto f = ids_.find(id.inode)) mark_clean(*f, id.index);
}

void BufferCache::append_dirty_pages(std::vector<DirtyPage>& out) const {
  for (std::uint32_t s = dirty_list_.head; s != kNull; s = cold_[s].dirty_next) {
    out.push_back(dirty_page(s));
  }
}

void BufferCache::append_dirty_pages_older_than(Seconds now, Seconds min_age,
                                                std::vector<DirtyPage>& out) const {
  // The chain is ordered by dirtied_at, so eligible pages form a prefix.
  for (std::uint32_t s = dirty_list_.head; s != kNull; s = cold_[s].dirty_next) {
    if (now - Seconds{cold_[s].dirtied_at} < min_age) break;
    out.push_back(dirty_page(s));
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
  a1in_.head = a1in_.tail = a1in_.size = 0;
  am_ = Chain{};
  a1out_ = Chain{};
  dirty_list_ = Chain{};
  used_ = 0;
  free_head_ = kNull;
  std::fill(index_.begin(), index_.end(), kNull);
}

}  // namespace flexfetch::os
