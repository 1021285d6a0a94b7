// Randomized differential tests for the arena-backed hot path: the slot-arena
// 2Q cache and the flat C-SCAN scheduler are driven op-for-op against
// reference implementations (the former std::list/std::unordered_map and
// std::map versions, kept verbatim below) and must agree on every return
// value, eviction, stat counter, and dirty-list ordering. This is the
// bit-identity contract of the rewrite: same simulated numbers, new layout.
#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <random>
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

TEST(HotpathDifferential, TagCollidingIdsStayDistinct) {
  // Two ids whose PageIdHash values share their low 32 bits get equal
  // bucket tags and the same home bucket, so only the slot's id can tell
  // them apart. Among 2^18 indices of one file several such pairs exist.
  std::unordered_map<std::uint32_t, std::uint64_t> first_index;
  std::optional<std::pair<PageId, PageId>> twins;
  for (std::uint64_t i = 0; i < (std::uint64_t{1} << 18) && !twins; ++i) {
    const auto tag = static_cast<std::uint32_t>(PageIdHash{}(PageId{1, i}));
    if (const auto [it, fresh] = first_index.emplace(tag, i); !fresh) {
      twins.emplace(PageId{1, it->second}, PageId{1, i});
    }
  }
  ASSERT_TRUE(twins.has_value());
  const PageId a = twins->first;
  const PageId b = twins->second;
  const auto filler = [](std::uint64_t k) { return PageId{2, k}; };

  BufferCacheConfig config;
  config.capacity_pages = 8;  // kin = 2, kout = 4.
  BufferCache c(config);
  std::vector<DirtyPage> flushed;

  // Fill: a resident and dirty, its twin absent; then both resident.
  c.write(a, Seconds{1.0}, flushed);
  EXPECT_TRUE(c.contains(a));
  EXPECT_FALSE(c.contains(b));
  EXPECT_FALSE(c.lookup(b, Seconds{1.0}));
  c.fill(b, Seconds{1.0}, flushed);
  EXPECT_TRUE(c.lookup(a, Seconds{1.0}));
  EXPECT_TRUE(c.lookup(b, Seconds{1.0}));
  EXPECT_EQ(c.stats().hits, 2u);
  EXPECT_EQ(c.stats().ghost_hits, 0u);

  // Ghosting: the seventh filler evicts a, the A1in FIFO tail.
  for (std::uint64_t k = 0; k < 7; ++k) c.fill(filler(k), Seconds{2.0}, flushed);
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0].page, a);
  EXPECT_FALSE(c.contains(a));
  EXPECT_TRUE(c.contains(b));
  EXPECT_FALSE(c.lookup(a, Seconds{2.0}));
  EXPECT_EQ(c.stats().ghost_hits, 1u);
  EXPECT_TRUE(c.lookup(b, Seconds{2.0}));

  // Re-admission: a's ghost goes to Am; making room ghosts b.
  c.write(a, Seconds{3.0}, flushed);
  EXPECT_EQ(flushed.size(), 1u);  // b was clean.
  EXPECT_TRUE(c.contains(a));
  EXPECT_FALSE(c.contains(b));
  EXPECT_FALSE(c.lookup(b, Seconds{3.0}));
  EXPECT_EQ(c.stats().ghost_hits, 2u);
  c.fill(b, Seconds{4.0}, flushed);  // b's ghost goes to Am too.
  EXPECT_TRUE(c.lookup(a, Seconds{4.0}));
  EXPECT_TRUE(c.lookup(b, Seconds{4.0}));  // Am LRU is now a.
  ASSERT_EQ(c.dirty_pages().size(), 1u);
  EXPECT_EQ(c.dirty_pages()[0].page, a);

  // Eviction: re-admitting four filler ghosts shrinks A1in to kin, so the
  // next new page evicts the Am LRU, a, and leaves its twin resident.
  for (std::uint64_t k = 0; k < 4; ++k) c.fill(filler(k), Seconds{5.0}, flushed);
  EXPECT_EQ(flushed.size(), 1u);
  c.fill(filler(100), Seconds{6.0}, flushed);
  ASSERT_EQ(flushed.size(), 2u);
  EXPECT_EQ(flushed[1].page, a);
  EXPECT_EQ(flushed[1].dirtied_at, Seconds{3.0});
  EXPECT_FALSE(c.contains(a));
  EXPECT_TRUE(c.contains(b));
  const auto ghost_hits = c.stats().ghost_hits;
  EXPECT_FALSE(c.lookup(a, Seconds{6.0}));  // Am evictions leave no ghost.
  EXPECT_EQ(c.stats().ghost_hits, ghost_hits);
  EXPECT_TRUE(c.lookup(b, Seconds{6.0}));
  EXPECT_EQ(c.dirty_count(), 0u);

  // And a comes back as a new page beside its twin.
  c.fill(a, Seconds{7.0}, flushed);
  EXPECT_TRUE(c.contains(a));
  EXPECT_TRUE(c.contains(b));
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
