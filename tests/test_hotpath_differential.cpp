// Randomized differential tests for the arena-backed hot path: the 2Q cache
// and the flat C-SCAN scheduler are driven op-for-op against reference
// implementations (the former std::list/std::unordered_map and std::map
// versions, kept verbatim below) and must agree on every return value,
// eviction, stat counter, and dirty-list ordering. The cache's range entry
// points are driven against the reference page by page. This is the
// bit-identity contract of the rewrite: same simulated numbers, new layout.
#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "os/buffer_cache.hpp"
#include "os/io_scheduler.hpp"

namespace flexfetch::os {
namespace {

// ---------------------------------------------------------------------------
// Reference 2Q implementation (pre-arena): three std::list queues, a
// std::list dirty list, and two unordered_maps.
// ---------------------------------------------------------------------------

class Reference2Q {
 public:
  explicit Reference2Q(BufferCacheConfig config)
      : capacity_(config.capacity_pages),
        kin_(static_cast<std::size_t>(config.kin_fraction *
                                      static_cast<double>(config.capacity_pages))),
        kout_(static_cast<std::size_t>(
            config.kout_fraction * static_cast<double>(config.capacity_pages))) {
    kin_ = std::max<std::size_t>(kin_, 1);
    kout_ = std::max<std::size_t>(kout_, 1);
  }

  bool lookup(const PageId& id, Seconds /*now*/) {
    ++stats_.lookups;
    auto it = table_.find(id);
    if (it == table_.end()) {
      if (ghost_table_.contains(id)) ++stats_.ghost_hits;
      return false;
    }
    ++stats_.hits;
    Entry& e = it->second;
    if (e.queue == Queue::kAm) am_.splice(am_.begin(), am_, e.pos);
    return true;
  }

  bool contains(const PageId& id) const { return table_.contains(id); }

  std::vector<DirtyPage> fill(const PageId& id, Seconds now) {
    std::vector<DirtyPage> flushed;
    if (table_.contains(id)) return flushed;
    insert_new(id, false, now, flushed);
    return flushed;
  }

  std::vector<DirtyPage> write(const PageId& id, Seconds now) {
    std::vector<DirtyPage> flushed;
    auto it = table_.find(id);
    if (it != table_.end()) {
      Entry& e = it->second;
      if (!e.dirty) mark_dirty(id, e, now);
      if (e.queue == Queue::kAm) am_.splice(am_.begin(), am_, e.pos);
      return flushed;
    }
    insert_new(id, true, now, flushed);
    return flushed;
  }

  void mark_clean(const PageId& id) {
    auto it = table_.find(id);
    if (it == table_.end()) return;
    Entry& e = it->second;
    if (e.dirty) {
      e.dirty = false;
      dirty_.erase(e.dirty_pos);
    }
  }

  std::vector<DirtyPage> dirty_pages() const { return {dirty_.begin(), dirty_.end()}; }

  std::vector<DirtyPage> dirty_pages_older_than(Seconds now, Seconds min_age) const {
    std::vector<DirtyPage> out;
    for (const DirtyPage& d : dirty_) {
      if (now - d.dirtied_at < min_age) break;
      out.push_back(d);
    }
    return out;
  }

  std::size_t size() const { return table_.size(); }
  std::size_t dirty_count() const { return dirty_.size(); }
  const CacheStats& stats() const { return stats_; }

  /// Drops every page and ghost; stats survive (as BufferCache::clear).
  void clear() {
    a1in_.clear();
    am_.clear();
    a1out_.clear();
    dirty_.clear();
    table_.clear();
    ghost_table_.clear();
  }

 private:
  enum class Queue : std::uint8_t { kA1in, kAm };

  struct Entry {
    Queue queue;
    std::list<PageId>::iterator pos;
    bool dirty = false;
    Seconds dirtied_at = Seconds{0.0};
    std::list<DirtyPage>::iterator dirty_pos;
  };

  void mark_dirty(const PageId& id, Entry& e, Seconds now) {
    e.dirty = true;
    e.dirtied_at = now;
    auto pos = dirty_.end();
    while (pos != dirty_.begin() && std::prev(pos)->dirtied_at > now) --pos;
    e.dirty_pos = dirty_.insert(pos, DirtyPage{id, now});
  }

  void insert_new(const PageId& id, bool dirty, Seconds now,
                  std::vector<DirtyPage>& flushed) {
    make_room(flushed);
    ++stats_.insertions;
    Entry e;
    if (dirty) mark_dirty(id, e, now);
    auto ghost = ghost_table_.find(id);
    if (ghost != ghost_table_.end()) {
      a1out_.erase(ghost->second);
      ghost_table_.erase(ghost);
      am_.push_front(id);
      e.queue = Queue::kAm;
      e.pos = am_.begin();
    } else {
      a1in_.push_front(id);
      e.queue = Queue::kA1in;
      e.pos = a1in_.begin();
    }
    table_.emplace(id, e);
  }

  void make_room(std::vector<DirtyPage>& flushed) {
    if (table_.size() < capacity_) return;
    if (a1in_.size() > kin_ || am_.empty()) {
      const PageId victim = a1in_.back();
      evict(victim, flushed);
      push_ghost(victim);
    } else {
      const PageId victim = am_.back();
      evict(victim, flushed);
    }
  }

  void evict(const PageId& id, std::vector<DirtyPage>& flushed) {
    auto it = table_.find(id);
    Entry& e = it->second;
    if (e.dirty) {
      flushed.push_back(DirtyPage{id, e.dirtied_at});
      dirty_.erase(e.dirty_pos);
    }
    if (e.queue == Queue::kA1in) {
      a1in_.erase(e.pos);
    } else {
      am_.erase(e.pos);
    }
    table_.erase(it);
    ++stats_.evictions;
  }

  void push_ghost(const PageId& id) {
    a1out_.push_front(id);
    ghost_table_[id] = a1out_.begin();
    while (a1out_.size() > kout_) {
      ghost_table_.erase(a1out_.back());
      a1out_.pop_back();
    }
  }

  std::size_t capacity_;
  std::size_t kin_;
  std::size_t kout_;
  std::list<PageId> a1in_;
  std::list<PageId> am_;
  std::list<PageId> a1out_;
  std::list<DirtyPage> dirty_;
  std::unordered_map<PageId, Entry, PageIdHash> table_;
  std::unordered_map<PageId, std::list<PageId>::iterator, PageIdHash> ghost_table_;
  CacheStats stats_;
};

// ---------------------------------------------------------------------------
// Reference C-SCAN implementation (pre-flattening): std::map keyed by LBA.
// ---------------------------------------------------------------------------

class ReferenceCScan {
 public:
  void submit(const device::DeviceRequest& req) {
    ++stats_.submitted;
    if (!queue_.empty()) {
      auto next = queue_.lower_bound(req.lba);
      if (next != queue_.begin()) {
        auto prev = std::prev(next);
        device::DeviceRequest& p = prev->second;
        if (p.is_write == req.is_write && p.lba + p.size == req.lba) {
          p.size += req.size;
          ++stats_.merged;
          if (next != queue_.end() && next->second.is_write == p.is_write &&
              p.lba + p.size == next->first) {
            p.size += next->second.size;
            queue_.erase(next);
            ++stats_.merged;
          }
          return;
        }
      }
      if (next != queue_.end() && next->second.is_write == req.is_write &&
          req.lba + req.size == next->first) {
        device::DeviceRequest grown = next->second;
        grown.lba = req.lba;
        grown.size += req.size;
        queue_.erase(next);
        queue_.emplace(grown.lba, grown);
        ++stats_.merged;
        return;
      }
    }
    auto [it, inserted] = queue_.emplace(req.lba, req);
    if (!inserted) {
      it->second.size = std::max(it->second.size, req.size);
      ++stats_.merged;
    }
  }

  std::optional<device::DeviceRequest> dispatch() {
    if (queue_.empty()) return std::nullopt;
    auto it = queue_.lower_bound(head_);
    if (it == queue_.end()) {
      it = queue_.begin();
      ++stats_.sweeps;
    }
    device::DeviceRequest req = it->second;
    queue_.erase(it);
    head_ = req.lba + req.size;
    ++stats_.dispatched;
    return req;
  }

  std::size_t pending() const { return queue_.size(); }
  const SchedulerStats& stats() const { return stats_; }

 private:
  std::map<Bytes, device::DeviceRequest> queue_;
  Bytes head_ = Bytes{0};
  SchedulerStats stats_;
};

bool same_dirty(const std::vector<DirtyPage>& a, const std::vector<DirtyPage>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].page != b[i].page || a[i].dirtied_at != b[i].dirtied_at) return false;
  }
  return true;
}

bool same_stats(const CacheStats& a, const CacheStats& b) {
  return a.lookups == b.lookups && a.hits == b.hits &&
         a.ghost_hits == b.ghost_hits && a.insertions == b.insertions &&
         a.evictions == b.evictions;
}

/// How often the random op mix calls clear() and compares the full dirty
/// lists (each a mean number of ops between two calls).
struct RareOps {
  int clear_one_in;
  int dirty_query_one_in;
};

/// Drives the arena cache and the reference with the same random op mix
/// over ids PageId{1..inodes, 0..pages-1}, clear() included, and compares
/// every return value, size and dirty count after every op.
void expect_random_ops_match(const BufferCacheConfig& config, std::uint64_t inodes,
                             std::uint64_t pages, int ops, RareOps rare,
                             std::uint32_t seed) {
  BufferCache arena(config);
  Reference2Q ref(config);

  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::uint64_t> page(0, pages - 1);
  std::uniform_int_distribution<std::uint64_t> inode(1, inodes);
  std::uniform_int_distribution<int> op(0, 95);
  std::uniform_int_distribution<int> clear(1, rare.clear_one_in);
  std::uniform_int_distribution<int> dirty_query(1, rare.dirty_query_one_in);
  Seconds now = Seconds{0.0};

  int clears = 0;
  for (int i = 0; i < ops; ++i) {
    const PageId id{inode(rng), page(rng)};
    now += Seconds{0.001};
    const int o = op(rng);
    if (clear(rng) == 1) {
      arena.clear();
      ref.clear();
      ++clears;
    } else if (dirty_query(rng) == 1) {
      ASSERT_TRUE(same_dirty(arena.dirty_pages(), ref.dirty_pages()))
          << "op " << i;
      ASSERT_TRUE(same_dirty(arena.dirty_pages_older_than(now, Seconds{0.05}),
                             ref.dirty_pages_older_than(now, Seconds{0.05})))
          << "op " << i;
    } else if (o < 35) {  // lookup
      ASSERT_EQ(arena.lookup(id, now), ref.lookup(id, now)) << "op " << i;
    } else if (o < 60) {  // fill
      ASSERT_TRUE(same_dirty(arena.fill(id, now), ref.fill(id, now)))
          << "op " << i;
    } else if (o < 85) {  // write
      ASSERT_TRUE(same_dirty(arena.write(id, now), ref.write(id, now)))
          << "op " << i;
    } else if (o < 92) {  // mark_clean
      arena.mark_clean(id);
      ref.mark_clean(id);
    } else {  // contains
      ASSERT_EQ(arena.contains(id), ref.contains(id)) << "op " << i;
    }
    ASSERT_EQ(arena.size(), ref.size()) << "op " << i;
    ASSERT_EQ(arena.dirty_count(), ref.dirty_count()) << "op " << i;
  }
  EXPECT_GT(clears, 0);
  EXPECT_GT(arena.stats().evictions, 0u);
  EXPECT_TRUE(same_stats(arena.stats(), ref.stats()));
  EXPECT_TRUE(same_dirty(arena.dirty_pages(), ref.dirty_pages()));
}

TEST(HotpathDifferential, ArenaCacheMatchesReferenceOverRandomOps) {
  BufferCacheConfig config;
  config.capacity_pages = 64;  // Small capacity => constant eviction churn.
  config.kin_fraction = 0.25;
  config.kout_fraction = 0.5;
  expect_random_ops_match(config, 3, 256, 150000,
                          {.clear_one_in = 5000, .dirty_query_one_in = 25}, 0xf1e2d3c4u);
}

TEST(HotpathDifferential, ArenaCacheMatchesReferenceAtDefaultCapacity) {
  // The simulator's default 16,384-page cache, over 40,000 ids: more than
  // capacity + kout, so the arena grows to full size, ghosts overflow and
  // freed slots are recycled before and after each clear().
  const BufferCacheConfig config;
  ASSERT_LT(config.capacity_pages + config.capacity_pages / 2, 40000u);
  expect_random_ops_match(config, 2, 20000, 300000,
                          {.clear_one_in = 120000, .dirty_query_one_in = 2000}, 0x5eed2017u);
}

TEST(HotpathDifferential, ArenaCacheMatchesReferenceWithOutOfOrderTimestamps) {
  // Direct API use may mark pages dirty with non-monotone timestamps; the
  // dirty chain must keep the same sorted order as the reference list.
  BufferCacheConfig config;
  config.capacity_pages = 16;
  BufferCache arena(config);
  Reference2Q ref(config);

  std::mt19937 rng(77);
  std::uniform_int_distribution<std::uint64_t> page(0, 31);
  std::uniform_real_distribution<double> when(0.0, 10.0);
  for (int i = 0; i < 20000; ++i) {
    const PageId id{1, page(rng)};
    const Seconds t = Seconds{when(rng)};
    ASSERT_TRUE(same_dirty(arena.write(id, t), ref.write(id, t))) << "op " << i;
    ASSERT_TRUE(same_dirty(arena.dirty_pages(), ref.dirty_pages())) << "op " << i;
  }
}

/// Drives a page-indexed cache and the reference in lockstep. After every
/// op it compares the return value, the residency of every probe page, the
/// dirty list (order and times), the size and the stats.
class Lockstep {
 public:
  Lockstep(const BufferCacheConfig& config, std::vector<PageId> probes)
      : arena(config), ref(config), probes_(std::move(probes)) {}

  void lookup(const PageId& id) {
    tick();
    EXPECT_EQ(arena.lookup(id, now_), ref.lookup(id, now_)) << where(id);
    check(id);
  }
  void fill(const PageId& id) {
    tick();
    EXPECT_TRUE(same_dirty(arena.fill(id, now_), ref.fill(id, now_))) << where(id);
    check(id);
  }
  void write(const PageId& id) {
    tick();
    EXPECT_TRUE(same_dirty(arena.write(id, now_), ref.write(id, now_))) << where(id);
    check(id);
  }
  void mark_clean(const PageId& id) {
    tick();
    arena.mark_clean(id);
    ref.mark_clean(id);
    check(id);
  }

  BufferCache arena;
  Reference2Q ref;

 private:
  void tick() {
    now_ += Seconds{0.001};
    ++op_;
  }
  std::string where(const PageId& id) const {
    return "op " + std::to_string(op_) + " on page (" + std::to_string(id.inode) +
           ", " + std::to_string(id.index) + ")";
  }
  void check(const PageId& id) {
    for (const PageId& p : probes_) {
      EXPECT_EQ(arena.contains(p), ref.contains(p))
          << where(id) << ", probe (" << p.inode << ", " << p.index << ")";
    }
    EXPECT_TRUE(same_dirty(arena.dirty_pages(), ref.dirty_pages())) << where(id);
    EXPECT_EQ(arena.size(), ref.size()) << where(id);
    EXPECT_TRUE(same_stats(arena.stats(), ref.stats())) << where(id);
  }

  std::vector<PageId> probes_;
  Seconds now_ = Seconds{0.0};
  int op_ = 0;
};

TEST(HotpathDifferential, FileBoundariesAndSpanGrowthMatchReference) {
  BufferCacheConfig config;
  config.capacity_pages = 16;  // kin = 4, kout = 8.
  std::vector<PageId> probes;
  for (const Inode f : {Inode{1}, Inode{2}, Inode{3}}) {
    for (std::uint64_t p = 0; p < 12; ++p) probes.push_back(PageId{f, p});
    for (const std::uint64_t p : {40u, 100u, 200u}) probes.push_back(PageId{f, p});
  }

  {
    // Files 1 and 2 back to back in the index: file 1's last page and
    // file 2's page 0 are neighbouring cells, and page 8 of each lies past
    // its span. Every op lands on one of those edges.
    Lockstep c(config, probes);
    c.arena.register_files({{1, 8 * kPageSize}, {2, 8 * kPageSize}});
    const PageId edges[] = {{1, 7}, {1, 8}, {2, 0}, {2, 7}, {2, 8}, {1, 0}};
    for (std::uint64_t round = 0; round < 6; ++round) {
      for (const PageId& id : edges) {
        c.lookup(id);
        if ((round + id.index) % 3 == 0) {
          c.write(id);
        } else {
          c.fill(id);
        }
        if (round == 3) c.mark_clean(id);
      }
      // Churn a third file through, so edges are evicted, ghosted and
      // re-admitted to Am between rounds.
      for (std::uint64_t p = 0; p < 10; ++p) c.fill(PageId{3, 10 * round + p});
    }
  }

  {
    // Grow a file while its pages are resident in A1in and Am, dirty and
    // ghosted: file 1's span sits before file 2's, so reaching page 100
    // moves it to the end of the index. Then file 2's span moves, grows in
    // place at the end, and file 1's moves again.
    Lockstep c(config, probes);
    c.arena.register_files({{1, 8 * kPageSize}, {2, 8 * kPageSize}});
    for (std::uint64_t p = 0; p < 8; ++p) c.fill(PageId{1, p});
    for (std::uint64_t p = 0; p < 8; ++p) c.fill(PageId{2, p});
    for (std::uint64_t p = 0; p < 4; ++p) c.fill(PageId{3, p});  // Ghosts 1/0..3.
    c.write(PageId{1, 0});  // Ghost hits: to Am, dirty.
    c.write(PageId{1, 1});
    c.write(PageId{1, 6});  // Dirty in A1in.
    c.lookup(PageId{1, 0});  // Am order: 1/0 is MRU.

    c.fill(PageId{1, 100});  // File 1's span moves past file 2's.
    c.lookup(PageId{1, 2});  // Ghosts survived the move.
    c.write(PageId{1, 3});
    c.write(PageId{2, 9});   // File 2's span moves.
    c.write(PageId{2, 40});  // ... and grows in place.
    c.fill(PageId{1, 200});  // File 1's span moves again.
    // Drain: every page is evicted in 2Q order, dirty ones reported.
    for (std::uint64_t p = 0; p < 40; ++p) c.fill(PageId{3, 100 + p});
    for (const PageId& id : probes) c.lookup(id);
  }
}

/// Drives the cache through read_range / write_range and the reference
/// page by page, as Vfs planned reads and writes before the range entry
/// points: a demanded page is looked up, any other page of the window only
/// checked, and each miss filled; a write writes each page. After every
/// call it compares the hits, the fetch runs, the evicted dirty pages (page,
/// dirtied_at and file id), the residency of the probe pages, the dirty
/// list, the size and the stats.
class RangeLockstep {
 public:
  RangeLockstep(const BufferCacheConfig& config, std::vector<PageId> probes)
      : cache(config), ref(config), probes_(std::move(probes)) {}

  /// The id the cache gave `inode` (assigning one on first use).
  trace::FileId id(Inode inode) { return cache.file(inode); }

  void read(Inode inode, std::uint64_t first, std::uint64_t demand_first,
            std::uint64_t demand_end, std::uint64_t want_end) {
    tick();
    flushed_.clear();
    fetches_.clear();
    const std::uint64_t hits = cache.read_range(id(inode), first, demand_first, demand_end,
                                                want_end, now_, flushed_, &fetches_);
    std::uint64_t ref_hits = 0;
    std::vector<DirtyPage> ref_flushed;
    std::vector<PageRange> ref_fetches;
    for (std::uint64_t p = first; p < want_end; ++p) {
      const PageId page{inode, p};
      const bool demanded = p >= demand_first && p < demand_end;
      if (demanded ? ref.lookup(page, now_) : ref.contains(page)) {
        if (demanded) ++ref_hits;
        continue;
      }
      append(ref_flushed, ref.fill(page, now_));
      if (!ref_fetches.empty() && ref_fetches.back().end_page() == p) {
        ++ref_fetches.back().page_count;
      } else {
        ref_fetches.push_back(
            PageRange{.inode = inode, .first_page = p, .page_count = 1, .file = id(inode)});
      }
    }
    const std::string at = where(inode, first, want_end);
    EXPECT_EQ(hits, ref_hits) << at;
    ASSERT_EQ(fetches_.size(), ref_fetches.size()) << at;
    for (std::size_t i = 0; i < fetches_.size(); ++i) {
      EXPECT_EQ(fetches_[i].inode, ref_fetches[i].inode) << at;
      EXPECT_EQ(fetches_[i].file, ref_fetches[i].file) << at;
      EXPECT_EQ(fetches_[i].first_page, ref_fetches[i].first_page) << at;
      EXPECT_EQ(fetches_[i].page_count, ref_fetches[i].page_count) << at;
    }
    check(ref_flushed, at);
  }

  void write(Inode inode, std::uint64_t first, std::uint64_t end) {
    tick();
    flushed_.clear();
    cache.write_range(id(inode), first, end, now_, flushed_);
    std::vector<DirtyPage> ref_flushed;
    for (std::uint64_t p = first; p < end; ++p) {
      append(ref_flushed, ref.write(PageId{inode, p}, now_));
    }
    check(ref_flushed, where(inode, first, end));
  }

  void mark_clean(Inode inode, std::uint64_t page) {
    tick();
    flushed_.clear();
    cache.mark_clean(id(inode), page);
    ref.mark_clean(PageId{inode, page});
    check({}, where(inode, page, page + 1));
  }

  /// Evicted dirty pages seen so far.
  std::size_t dirty_evictions() const { return dirty_evictions_; }

  BufferCache cache;
  Reference2Q ref;

 private:
  static void append(std::vector<DirtyPage>& to, const std::vector<DirtyPage>& from) {
    to.insert(to.end(), from.begin(), from.end());
  }
  void tick() {
    now_ += Seconds{0.001};
    ++op_;
  }
  std::string where(Inode inode, std::uint64_t first, std::uint64_t end) const {
    return "op " + std::to_string(op_) + " on file " + std::to_string(inode) + " pages [" +
           std::to_string(first) + ", " + std::to_string(end) + ")";
  }
  void check(const std::vector<DirtyPage>& ref_flushed, const std::string& at) {
    EXPECT_TRUE(same_dirty(flushed_, ref_flushed)) << at;
    for (const DirtyPage& d : flushed_) {
      EXPECT_EQ(d.file, id(d.page.inode)) << at;
    }
    dirty_evictions_ += flushed_.size();
    for (const PageId& p : probes_) {
      EXPECT_EQ(cache.contains(p), ref.contains(p))
          << at << ", probe (" << p.inode << ", " << p.index << ")";
    }
    const std::vector<DirtyPage> dirty = cache.dirty_pages();
    EXPECT_TRUE(same_dirty(dirty, ref.dirty_pages())) << at;
    for (const DirtyPage& d : dirty) EXPECT_EQ(d.file, id(d.page.inode)) << at;
    EXPECT_EQ(cache.size(), ref.size()) << at;
    EXPECT_TRUE(same_stats(cache.stats(), ref.stats())) << at;
  }

  std::vector<PageId> probes_;
  std::vector<DirtyPage> flushed_;
  std::vector<PageRange> fetches_;
  std::size_t dirty_evictions_ = 0;
  Seconds now_ = Seconds{0.0};
  int op_ = 0;
};

std::vector<PageId> probe_pages(std::uint64_t pages) {
  std::vector<PageId> probes;
  for (const Inode f : {Inode{1}, Inode{2}, Inode{3}}) {
    for (std::uint64_t p = 0; p < pages; ++p) probes.push_back(PageId{f, p});
  }
  return probes;
}

TEST(HotpathDifferential, RangeCallsMatchPerPageReferenceOverRandomWindows) {
  // Capacity 64 (kin 16, kout 32) against windows of up to 48 pages over
  // three files: ranges evict dirty pages, re-admit ghosts and outgrow the
  // files' spans (file 2 is registered small, the others not at all).
  BufferCacheConfig config;
  config.capacity_pages = 64;
  RangeLockstep c(config, probe_pages(260));
  c.cache.register_files({{2, 8 * kPageSize}});
  std::mt19937 rng(0x2a11ce5u);
  std::uniform_int_distribution<Inode> inode(1, 3);
  std::uniform_int_distribution<std::uint64_t> start(0, 200);
  std::uniform_int_distribution<std::uint64_t> len(0, 16);
  std::uniform_int_distribution<int> op(0, 9);
  for (int i = 0; i < 3000; ++i) {
    const Inode f = inode(rng);
    const std::uint64_t first = start(rng);
    const int o = op(rng);
    if (o < 6) {
      // Readahead before the demand (o == 0), the demand, readahead after.
      const std::uint64_t demand_first = first + (o == 0 ? len(rng) : 0);
      const std::uint64_t demand_end = demand_first + len(rng);
      c.read(f, first, demand_first, demand_end, demand_end + 2 * len(rng));
    } else if (o < 9) {
      c.write(f, first, first + len(rng));
    } else {
      c.mark_clean(f, first);
    }
  }
  EXPECT_GT(c.cache.stats().ghost_hits, 0u);
  EXPECT_GT(c.cache.stats().evictions, 0u);
  EXPECT_GT(c.dirty_evictions(), 0u);
}

TEST(HotpathDifferential, RangeEdgeCasesMatchPerPageReference) {
  BufferCacheConfig config;
  config.capacity_pages = 16;  // kin = 4, kout = 8.
  {
    // Span growth mid-range: file 1's 8-page span is outgrown by a read of
    // [4, 20), and file 2's by a write of [6, 30), which evicts its own
    // dirty pages mid-range in A1in order.
    RangeLockstep c(config, probe_pages(64));
    c.cache.register_files({{1, 8 * kPageSize}, {2, 8 * kPageSize}});
    c.read(1, 4, 4, 6, 20);
    c.write(2, 6, 30);
    EXPECT_GT(c.dirty_evictions(), 0u);
    c.mark_clean(2, 29);
    // Empty and inverted windows are no-ops.
    c.read(1, 30, 30, 30, 30);
    c.read(1, 30, 31, 29, 29);
    c.write(2, 5, 5);
  }
  {
    // Pages 0..23 of file 1 stream through A1in, leaving pages 0..7 on
    // A1out (page 0 oldest) and 8..23 resident.
    RangeLockstep c(config, probe_pages(32));
    for (std::uint64_t p = 0; p < 24; ++p) c.read(1, p, p, p, p + 1);
    // Ghosts re-admitted inside one range: pages 4..7 sit in the middle of
    // A1out, and each miss of [4, 8) evicts an A1in page to A1out (the
    // first trims ghost 0) before re-admitting the page's ghost to Am.
    // Page 4 is demanded, so its lookup counts a ghost hit.
    c.read(1, 4, 4, 5, 8);
    EXPECT_EQ(c.cache.stats().ghost_hits, 1u);
    // Page 0 misses outright. Ghosts 1..3 are now the oldest, and each miss
    // trims the very ghost it re-reads, so they come back as new A1in
    // pages; page 1's demanded lookup still counts a ghost hit.
    c.read(1, 0, 0, 2, 4);
    EXPECT_EQ(c.cache.stats().ghost_hits, 2u);
    // A write over resident, ghost and absent pages, with its evictions.
    c.write(1, 2, 12);
    c.read(1, 0, 0, 16, 24);
  }
}

TEST(HotpathDifferential, FlatCScanMatchesReferenceOverRandomOps) {
  CScanScheduler flat;
  ReferenceCScan ref;

  std::mt19937 rng(0xabad1deau);
  std::uniform_int_distribution<std::uint64_t> lba_page(0, 4095);
  std::uniform_int_distribution<std::uint64_t> npages(1, 8);
  std::uniform_int_distribution<int> coin(0, 99);

  Bytes prev_end = Bytes{0};
  constexpr int kOps = 120000;
  for (int i = 0; i < kOps; ++i) {
    const int c = coin(rng);
    if (c < 70 || ref.pending() == 0) {
      device::DeviceRequest req;
      // Half the submissions extend the previous request to exercise the
      // merge paths; the rest jump to random 4 KiB-aligned positions.
      req.lba = (c % 2 == 0) ? prev_end : Bytes{lba_page(rng) * 4096};
      req.size = Bytes{npages(rng) * 4096};
      req.is_write = c % 5 == 0;
      prev_end = req.lba + req.size;
      flat.submit(req);
      ref.submit(req);
    } else {
      const auto a = flat.dispatch();
      const auto b = ref.dispatch();
      ASSERT_EQ(a.has_value(), b.has_value()) << "op " << i;
      if (a) {
        ASSERT_EQ(a->lba, b->lba) << "op " << i;
        ASSERT_EQ(a->size, b->size) << "op " << i;
        ASSERT_EQ(a->is_write, b->is_write) << "op " << i;
      }
    }
    ASSERT_EQ(flat.pending(), ref.pending()) << "op " << i;
  }
  // Drain both queues completely and compare the final elevator order.
  while (true) {
    const auto a = flat.dispatch();
    const auto b = ref.dispatch();
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a) break;
    ASSERT_EQ(a->lba, b->lba);
    ASSERT_EQ(a->size, b->size);
  }
  EXPECT_EQ(flat.stats().submitted, ref.stats().submitted);
  EXPECT_EQ(flat.stats().merged, ref.stats().merged);
  EXPECT_EQ(flat.stats().dispatched, ref.stats().dispatched);
  EXPECT_EQ(flat.stats().sweeps, ref.stats().sweeps);
}

}  // namespace
}  // namespace flexfetch::os
