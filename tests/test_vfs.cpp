#include "os/vfs.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace flexfetch::os {
namespace {

trace::SyscallRecord read_call(trace::Inode ino, Bytes off, Bytes size,
                               Seconds t = Seconds{0.0}) {
  trace::SyscallRecord r;
  r.inode = ino;
  r.offset = off;
  r.size = size;
  r.op = trace::OpType::kRead;
  r.timestamp = t;
  return r;
}

trace::SyscallRecord write_call(trace::Inode ino, Bytes off, Bytes size,
                                Seconds t = Seconds{0.0}) {
  trace::SyscallRecord r = read_call(ino, off, size, t);
  r.op = trace::OpType::kWrite;
  return r;
}

VfsConfig small_vfs(std::size_t pages = 256) {
  VfsConfig c;
  c.cache.capacity_pages = pages;
  return c;
}

TEST(Vfs, ColdReadFetchesWithReadahead) {
  Vfs vfs(small_vfs());
  const ReadPlan plan = vfs.plan_read(read_call(1, Bytes{0}, Bytes{4096}), Seconds{0.0});
  EXPECT_EQ(plan.pages_demanded, 1u);
  EXPECT_EQ(plan.pages_hit, 0u);
  ASSERT_EQ(plan.fetches.size(), 1u);
  EXPECT_EQ(plan.fetches[0].page_count, 4u);  // Min readahead window.
  EXPECT_EQ(plan.bytes_to_fetch(), Bytes{4u * 4096u});
  EXPECT_FALSE(plan.fully_cached());
}

TEST(Vfs, PrefetchedPagesHitOnNextRead) {
  Vfs vfs(small_vfs());
  vfs.plan_read(read_call(1, Bytes{0}, Bytes{4096}), Seconds{0.0});  // Prefetches pages 0-3.
  const ReadPlan plan = vfs.plan_read(read_call(1, Bytes{4096}, Bytes{4096}), Seconds{1.0});
  EXPECT_EQ(plan.pages_hit, 1u);
  // The sequential detector still extends the window beyond the hit.
  EXPECT_TRUE(plan.fully_cached() || plan.fetches[0].first_page >= 2u);
}

TEST(Vfs, RereadWithinPrefetchedAreaIsFullyCached) {
  Vfs vfs(small_vfs());
  vfs.plan_read(read_call(1, Bytes{0}, Bytes{32 * 1024}), Seconds{0.0});  // Pages 0-7 resident.
  // A short re-read of the head is non-sequential (ends before the
  // expected next page) and entirely resident: no device traffic.
  const ReadPlan plan = vfs.plan_read(read_call(1, Bytes{0}, Bytes{8 * 1024}), Seconds{1.0});
  EXPECT_TRUE(plan.fully_cached());
  EXPECT_EQ(plan.pages_hit, 2u);
}

TEST(Vfs, HolesInCacheProduceMultipleFetchRanges) {
  Vfs vfs(small_vfs());
  // Pre-cache pages 1 and 3 of the file.
  vfs.cache().fill(PageId{1, 1}, Seconds{0.0});
  vfs.cache().fill(PageId{1, 3}, Seconds{0.0});
  const ReadPlan plan = vfs.plan_read(read_call(1, Bytes{0}, Bytes{5 * 4096}), Seconds{1.0});
  // Misses: 0, 2, 4(+) -> at least three disjoint ranges.
  ASSERT_GE(plan.fetches.size(), 3u);
  EXPECT_EQ(plan.fetches[0].first_page, 0u);
  EXPECT_EQ(plan.fetches[0].page_count, 1u);
  EXPECT_EQ(plan.fetches[1].first_page, 2u);
  EXPECT_EQ(plan.pages_hit, 2u);
}

TEST(Vfs, WriteDirtiesCoveredPages) {
  Vfs vfs(small_vfs());
  const WritePlan plan = vfs.plan_write(write_call(1, Bytes{0}, Bytes{10000}), Seconds{5.0});
  EXPECT_EQ(plan.pages_dirtied, 3u);  // Pages 0-2.
  EXPECT_EQ(vfs.cache().dirty_count(), 3u);
  EXPECT_TRUE(plan.evicted_dirty.empty());
}

TEST(Vfs, EvictionUnderPressureReturnsDirtyPages) {
  Vfs vfs(small_vfs(8));
  vfs.plan_write(write_call(1, Bytes{0}, Bytes{4096}), Seconds{0.0});
  std::vector<DirtyPage> evicted;
  for (std::uint64_t i = 0; i < 30 && evicted.empty(); ++i) {
    evicted = vfs.plan_read(read_call(2, Bytes{i * 128 * 1024}, Bytes{4096}), Seconds{1.0}).evicted_dirty;
  }
  EXPECT_FALSE(evicted.empty());
}

TEST(Vfs, PlanReadRejectsWrongOp) {
  Vfs vfs(small_vfs());
  EXPECT_THROW(vfs.plan_read(write_call(1, Bytes{0}, Bytes{10}), Seconds{0.0}), ConfigError);
  EXPECT_THROW(vfs.plan_write(read_call(1, Bytes{0}, Bytes{10}), Seconds{0.0}), ConfigError);
}

TEST(Vfs, SelectWritebackDelegatesToPolicy) {
  Vfs vfs(small_vfs());
  vfs.plan_write(write_call(1, Bytes{0}, Bytes{4096}), Seconds{0.0});
  EXPECT_EQ(vfs.select_writeback(Seconds{1.0}, /*device_active=*/true).size(), 1u);
  EXPECT_TRUE(vfs.select_writeback(Seconds{1.0}, /*device_active=*/false).empty());
}

TEST(Vfs, CompleteWritebackMarksClean) {
  Vfs vfs(small_vfs());
  vfs.plan_write(write_call(1, Bytes{0}, Bytes{4096}), Seconds{0.0});
  const auto dirty = vfs.select_writeback(Seconds{1.0}, true);
  vfs.complete_writeback(dirty);
  EXPECT_EQ(vfs.cache().dirty_count(), 0u);
}

TEST(Vfs, CoalesceGroupsContiguousPages) {
  const trace::FileId one{0};
  const trace::FileId two{1};
  std::vector<PageRange> ranges;
  Vfs::coalesce({DirtyPage{.page = {1, 0}, .file = one}, DirtyPage{.page = {1, 1}, .file = one},
                 DirtyPage{.page = {1, 2}, .file = one}, DirtyPage{.page = {1, 3}, .file = one},
                 DirtyPage{.page = {2, 4}, .file = two}},
                ranges);
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0].inode, 1u);
  EXPECT_EQ(ranges[0].file, one);
  EXPECT_EQ(ranges[0].first_page, 0u);
  EXPECT_EQ(ranges[0].page_count, 4u);  // 0-3 merged.
  EXPECT_EQ(ranges[1].inode, 2u);
  EXPECT_EQ(ranges[1].file, two);  // Page 4 of another file stays apart.
  EXPECT_EQ(ranges[1].first_page, 4u);
}

TEST(Vfs, RangeCachedChecksEveryPage) {
  Vfs vfs(small_vfs());
  vfs.cache().fill(PageId{1, 0}, Seconds{0.0});
  vfs.cache().fill(PageId{1, 1}, Seconds{0.0});
  EXPECT_TRUE(vfs.range_cached(1, Bytes{0}, Bytes{8192}));
  EXPECT_TRUE(vfs.range_cached(1, Bytes{100}, Bytes{4096}));  // Straddles pages 0-1.
  EXPECT_FALSE(vfs.range_cached(1, Bytes{0}, Bytes{3 * 4096}));
  EXPECT_FALSE(vfs.range_cached(2, Bytes{0}, Bytes{4096}));
}

TEST(Vfs, ReadaheadStateSurvivesAcrossCalls) {
  Vfs vfs(small_vfs());
  vfs.plan_read(read_call(1, Bytes{0}, Bytes{4096}), Seconds{0.0});
  vfs.plan_read(read_call(1, Bytes{4096}, Bytes{4096}), Seconds{1.0});  // Sequential continuation.
  // Inode 1 was the cache's first file: dense id 0.
  EXPECT_EQ(vfs.cache().file(1), trace::FileId{0});
  EXPECT_EQ(vfs.readahead().window_pages(trace::FileId{0}), 8u);
}

}  // namespace
}  // namespace flexfetch::os
