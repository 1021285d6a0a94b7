#include "os/file_layout.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "common/error.hpp"

namespace flexfetch::os {
namespace {

TEST(FileLayout, PlacesFilesSequentiallyWithGaps) {
  FileLayout layout(1 * kGiB, /*seed=*/1, /*min_gap=*/Bytes{4096}, /*max_gap=*/Bytes{8192});
  layout.ensure(1, 100 * kKiB);
  layout.ensure(2, 50 * kKiB);
  const Bytes lba1 = layout.lba(1, Bytes{0});
  const Bytes lba2 = layout.lba(2, Bytes{0});
  EXPECT_GE(lba1, Bytes{4096});  // First gap applied before file 1.
  // File 2 starts after file 1's end plus a gap in [4096, 8192].
  EXPECT_GE(lba2, lba1 + 100 * kKiB + Bytes{4096});
  EXPECT_LE(lba2, lba1 + 100 * kKiB + Bytes{8192});
}

TEST(FileLayout, OffsetIsLinearWithinFile) {
  FileLayout layout(1 * kGiB);
  layout.ensure(1, 1 * kMiB);
  const Bytes base = layout.lba(1, Bytes{0});
  EXPECT_EQ(layout.lba(1, Bytes{4096}), base + Bytes{4096});
  EXPECT_EQ(layout.lba(1, Bytes{999}), base + Bytes{999});
}

TEST(FileLayout, EnsureIsIdempotent) {
  FileLayout layout(1 * kGiB);
  layout.ensure(1, Bytes{100});
  const Bytes lba = layout.lba(1, Bytes{0});
  layout.ensure(1, Bytes{100});
  layout.ensure(1, Bytes{50});  // Smaller: no change.
  EXPECT_EQ(layout.lba(1, Bytes{0}), lba);
  EXPECT_EQ(layout.file_count(), 1u);
}

TEST(FileLayout, GrowingAFileKeepsItsStart) {
  FileLayout layout(1 * kGiB);
  layout.ensure(1, Bytes{100});
  const Bytes lba = layout.lba(1, Bytes{0});
  layout.ensure(1, 10 * kKiB);
  EXPECT_EQ(layout.lba(1, Bytes{0}), lba);
}

TEST(FileLayout, UnknownInodeThrows) {
  FileLayout layout(1 * kGiB);
  EXPECT_THROW(layout.lba(42, Bytes{0}), ConfigError);
  EXPECT_FALSE(layout.contains(42));
}

TEST(FileLayout, DeterministicForSameSeed) {
  FileLayout a(1 * kGiB, 7);
  FileLayout b(1 * kGiB, 7);
  for (trace::Inode i = 1; i <= 20; ++i) {
    a.ensure(i, 10 * kKiB);
    b.ensure(i, 10 * kKiB);
  }
  for (trace::Inode i = 1; i <= 20; ++i) {
    EXPECT_EQ(a.lba(i, Bytes{0}), b.lba(i, Bytes{0})) << "inode " << i;
  }
}

TEST(FileLayout, DifferentSeedsProduceDifferentGaps) {
  FileLayout a(1 * kGiB, 1);
  FileLayout b(1 * kGiB, 2);
  bool any_diff = false;
  for (trace::Inode i = 1; i <= 10; ++i) {
    a.ensure(i, 10 * kKiB);
    b.ensure(i, 10 * kKiB);
    any_diff |= (a.lba(i, Bytes{0}) != b.lba(i, Bytes{0}));
  }
  EXPECT_TRUE(any_diff);
}

TEST(FileLayout, PlaceAllOrdersByInode) {
  // A compiled trace lists its files in ascending inode order.
  trace::Trace t("t");
  for (const trace::Inode ino : {5u, 1u, 3u}) {
    t.push_back(trace::SyscallRecord{.inode = ino, .size = Bytes{4096}});
  }
  const trace::CompiledTrace ct(t);
  FileLayout layout(1 * kGiB, 3);
  layout.place_all(ct.file_extents());
  EXPECT_LT(layout.lba(1, Bytes{0}), layout.lba(3, Bytes{0}));
  EXPECT_LT(layout.lba(3, Bytes{0}), layout.lba(5, Bytes{0}));
}

TEST(FileLayout, PlacingASetMatchesPlacingEachProgramByInode) {
  // Two programs sharing file 4: the set replays the per-program order, so
  // every gap draw and every address equals the inode-keyed placement.
  trace::Trace a("a");
  trace::Trace b("b");
  for (const trace::Inode ino : {9u, 4u, 2u}) {
    a.push_back(trace::SyscallRecord{.inode = ino, .size = Bytes{5000}});
  }
  for (const trace::Inode ino : {4u, 7u}) {
    b.push_back(trace::SyscallRecord{.inode = ino, .size = 3 * kPageSize});
  }
  const trace::CompiledSet::Member members[] = {{.trace = &a}, {.trace = &b}};
  const auto set = trace::CompiledSet::compile(members);

  FileLayout by_set(1 * kGiB, 11);
  by_set.place(*set);
  FileLayout by_inode(1 * kGiB, 11);
  by_inode.place_all(trace::CompiledTrace(a).file_extents());
  by_inode.place_all(trace::CompiledTrace(b).file_extents());
  for (const trace::Inode ino : {2u, 4u, 7u, 9u}) {
    EXPECT_EQ(by_set.lba(ino, Bytes{0}), by_inode.lba(ino, Bytes{0})) << ino;
    EXPECT_EQ(by_set.extent_of(ino), by_inode.extent_of(ino)) << ino;
  }
  EXPECT_EQ(by_set.extent_of(*set->find(4)), 3 * kPageSize);
  EXPECT_EQ(by_set.file_count(), 4u);

  // An inode outside the set gets the next id and draws its gap on first
  // touch, exactly when the inode-keyed layout draws it.
  by_set.ensure(100, Bytes{10});
  by_inode.ensure(100, Bytes{10});
  EXPECT_EQ(by_set.lba(100, Bytes{0}), by_inode.lba(100, Bytes{0}));
  EXPECT_EQ(by_set.bytes_allocated(), by_inode.bytes_allocated());
  EXPECT_THROW(by_set.place(*set), ConfigError);  // Only on a fresh layout.
}

TEST(FileLayout, CapacityExhaustionThrows) {
  FileLayout layout(1 * kMiB, 1, Bytes{0}, Bytes{0});
  EXPECT_THROW(layout.ensure(1, 2 * kMiB), ConfigError);
}

TEST(FileLayout, SizeThatWrapsPastCapacityThrows) {
  // start + size would wrap 64 bits to a small address.
  FileLayout layout;
  EXPECT_THROW(layout.ensure(1, Bytes{~std::uint64_t{0} - 10}), ConfigError);
  EXPECT_FALSE(layout.contains(1));
  EXPECT_EQ(layout.bytes_allocated(), Bytes{0});
}

TEST(FileLayout, GrowingPastCapacityThrows) {
  FileLayout layout(1 * kMiB, 1, Bytes{0}, Bytes{0});
  layout.ensure(1, Bytes{100});
  EXPECT_THROW(layout.ensure(1, 1 * kMiB + Bytes{1}), ConfigError);
  EXPECT_THROW(layout.ensure(1, Bytes{~std::uint64_t{0}}), ConfigError);
  EXPECT_EQ(layout.extent_of(1), Bytes{100});
  EXPECT_EQ(layout.bytes_allocated(), Bytes{100});
  layout.ensure(1, 1 * kMiB);  // Exactly the capacity still fits.
  EXPECT_EQ(layout.bytes_allocated(), 1 * kMiB);
}

TEST(FileLayout, RejectsBadConstruction) {
  EXPECT_THROW(FileLayout(Bytes{0}), ConfigError);
  EXPECT_THROW(FileLayout(kGiB, 1, Bytes{100}, Bytes{50}), ConfigError);
}

TEST(FileLayout, TracksBytesAllocated) {
  FileLayout layout(1 * kGiB, 1, Bytes{0}, Bytes{0});
  layout.ensure(1, Bytes{1000});
  layout.ensure(2, Bytes{2000});
  EXPECT_EQ(layout.bytes_allocated(), Bytes{3000});
  EXPECT_EQ(layout.file_count(), 2u);
}

}  // namespace
}  // namespace flexfetch::os
