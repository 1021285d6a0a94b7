#include "os/readahead.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace flexfetch::os {
namespace {

using trace::FileId;

TEST(Readahead, FirstReadFetchesMinWindow) {
  Readahead ra;
  const PageRange r = ra.on_read(FileId{1}, Bytes{0}, Bytes{4096});
  EXPECT_EQ(r.file, FileId{1});
  EXPECT_EQ(r.first_page, 0u);
  // One demanded page, but the initial window is 4 pages.
  EXPECT_EQ(r.page_count, 4u);
}

TEST(Readahead, SequentialStreamExtendsAheadOfDemand) {
  Readahead ra;
  ra.on_read(FileId{1}, Bytes{0}, Bytes{4096});  // Prefetched [0, 4).
  // Page 1: demand nears the edge (1 + window/2 >= 4 after doubling check),
  // so a doubled ahead window is issued past the edge.
  const PageRange r = ra.on_read(FileId{1}, Bytes{4096}, Bytes{4096});
  EXPECT_EQ(r.first_page, 1u);
  EXPECT_EQ(r.end_page(), 10u);  // last_end (2) + doubled window (8).
}

TEST(Readahead, ReadsDeepInsidePrefetchedAreaDoNotExtend) {
  Readahead ra;
  ra.on_read(FileId{1}, Bytes{0}, Bytes{4096});      // [0, 4)
  ra.on_read(FileId{1}, Bytes{4096}, Bytes{4096});   // extend to [.., 10), window 8.
  // Page 2: 3 + 4 < 10 -> stays inside the prefetched area.
  const PageRange r = ra.on_read(FileId{1}, Bytes{2 * 4096}, Bytes{4096});
  EXPECT_EQ(r.end_page(), 10u);  // No extension beyond the current edge.
  EXPECT_EQ(ra.window_pages(FileId{1}), 8u);
}

TEST(Readahead, WindowDoublesUpToThePaperCap) {
  Readahead ra;
  // Stream 4 KiB reads through the file; the ahead window must double
  // 4 -> 8 -> 16 -> 32 and then stay at 32 pages (128 KiB).
  std::uint64_t max_window = 0;
  for (std::uint64_t p = 0; p < 200; ++p) {
    ra.on_read(FileId{1}, Bytes{p * 4096}, Bytes{4096});
    max_window = std::max(max_window, ra.window_pages(FileId{1}));
  }
  EXPECT_EQ(max_window, 32u);
  EXPECT_EQ(ra.window_pages(FileId{1}), 32u);
}

TEST(Readahead, SteadyStateExtendsInLargeChunks) {
  Readahead ra;
  std::uint64_t prev_end = 0;
  std::uint64_t extensions = 0;
  for (std::uint64_t p = 0; p < 256; ++p) {
    const PageRange r = ra.on_read(FileId{1}, Bytes{p * 4096}, Bytes{4096});
    if (r.end_page() > prev_end) {
      ++extensions;
      prev_end = r.end_page();
    }
  }
  // 256 pages streamed with a 32-page steady-state window: extensions must
  // be roughly 256/16..256/32, far fewer than one per read.
  EXPECT_LT(extensions, 20u);
  EXPECT_GE(prev_end, 256u);  // Everything demanded was covered.
}

TEST(Readahead, RandomReadResetsWindow) {
  Readahead ra;
  ra.on_read(FileId{1}, Bytes{0}, Bytes{4096});
  ra.on_read(FileId{1}, Bytes{4096}, Bytes{4096});  // Window now 8.
  const PageRange r = ra.on_read(FileId{1}, Bytes{1000 * 4096}, Bytes{4096});  // Jump.
  EXPECT_EQ(r.page_count, 4u);  // Back to the minimum window.
  EXPECT_EQ(ra.window_pages(FileId{1}), 4u);
}

TEST(Readahead, LargeDemandDominatesWindow) {
  Readahead ra;
  const PageRange r = ra.on_read(FileId{1}, Bytes{0}, Bytes{24 * 4096});
  EXPECT_EQ(r.page_count, 24u);  // Demand (24) > min window (4).
}

TEST(Readahead, DemandBeyondCapIsStillFetched) {
  Readahead ra;
  const PageRange r = ra.on_read(FileId{1}, Bytes{0}, Bytes{64 * 4096});
  EXPECT_EQ(r.page_count, 64u);  // The cap limits prefetch, not demand.
}

TEST(Readahead, PerFileStateIsIndependent) {
  Readahead ra;
  ra.on_read(FileId{1}, Bytes{0}, Bytes{4096});
  ra.on_read(FileId{1}, Bytes{4096}, Bytes{4096});  // File 1 window 8.
  const PageRange r = ra.on_read(FileId{2}, Bytes{0}, Bytes{4096});
  EXPECT_EQ(r.page_count, 4u);  // File 2 starts fresh.
  EXPECT_EQ(ra.window_pages(FileId{1}), 8u);
  EXPECT_EQ(ra.window_pages(FileId{2}), 4u);
}

TEST(Readahead, ForgetResetsFileState) {
  Readahead ra;
  ra.on_read(FileId{1}, Bytes{0}, Bytes{4096});
  ra.on_read(FileId{1}, Bytes{4096}, Bytes{4096});
  ra.forget(FileId{1});
  EXPECT_EQ(ra.window_pages(FileId{1}), 4u);  // Default for unknown files.
  const PageRange r = ra.on_read(FileId{1}, Bytes{2 * 4096}, Bytes{4096});
  EXPECT_EQ(r.page_count, 4u);  // Treated as a fresh (random) read.
}

TEST(Readahead, OverlappingContinuationCountsAsSequential) {
  Readahead ra;
  ra.on_read(FileId{1}, Bytes{0}, Bytes{4 * 4096});  // Demand [0,4), next_demand = 4.
  // Re-read [2,6): starts before the expected page but reaches it.
  const PageRange r = ra.on_read(FileId{1}, Bytes{2 * 4096}, Bytes{4 * 4096});
  EXPECT_GT(r.end_page(), 6u);  // Extended ahead: treated as sequential.
  EXPECT_EQ(ra.window_pages(FileId{1}), 8u);
}

TEST(Readahead, BackwardReadIsNotSequential) {
  Readahead ra;
  ra.on_read(FileId{1}, Bytes{10 * 4096}, Bytes{4096});  // next_demand = 11.
  const PageRange r = ra.on_read(FileId{1}, Bytes{0}, Bytes{4096});  // Ends at 1 < 11.
  EXPECT_EQ(r.page_count, 4u);
  EXPECT_EQ(ra.window_pages(FileId{1}), 4u);
}

TEST(Readahead, UnalignedOffsetsCoverWholePages) {
  Readahead ra;
  const PageRange r = ra.on_read(FileId{1}, Bytes{100}, Bytes{200});  // Inside page 0.
  EXPECT_EQ(r.first_page, 0u);
  EXPECT_GE(r.page_count, 1u);
  const PageRange r2 = ra.on_read(FileId{2}, Bytes{4000}, Bytes{200});  // Straddles pages 0-1.
  EXPECT_EQ(r2.first_page, 0u);
  EXPECT_GE(r2.page_count, 2u);
}

TEST(Readahead, ForgetOfAnUnknownFileIsANoOp) {
  Readahead ra;
  ra.forget(FileId{9});
  EXPECT_EQ(ra.window_pages(FileId{9}), 4u);
}

TEST(Readahead, ZeroSizeRejected) {
  Readahead ra;
  EXPECT_THROW(ra.on_read(FileId{1}, Bytes{0}, Bytes{0}), ConfigError);
}

TEST(Readahead, ConfigValidation) {
  ReadaheadConfig c;
  c.min_window_pages = 0;
  EXPECT_THROW(Readahead{c}, ConfigError);
  c = ReadaheadConfig{};
  c.max_window_pages = 2;
  c.min_window_pages = 4;
  EXPECT_THROW(Readahead{c}, ConfigError);
}

TEST(PageRange, Accessors) {
  const PageRange r{.inode = 3, .first_page = 2, .page_count = 4};
  EXPECT_EQ(r.end_page(), 6u);
  EXPECT_EQ(r.offset(), Bytes{2u * 4096u});
  EXPECT_EQ(r.size(), Bytes{4u * 4096u});
}

}  // namespace
}  // namespace flexfetch::os
