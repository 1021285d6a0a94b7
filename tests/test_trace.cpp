#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/error.hpp"

namespace flexfetch::trace {
namespace {

SyscallRecord rec(Seconds t, OpType op, Inode ino, Bytes off, Bytes size,
                  Seconds dur = Seconds{0.0}) {
  SyscallRecord r;
  r.pid = 100;
  r.pgid = 100;
  r.inode = ino;
  r.offset = off;
  r.size = size;
  r.op = op;
  r.timestamp = t;
  r.duration = dur;
  return r;
}

TEST(Record, OpToString) {
  EXPECT_STREQ(to_string(OpType::kOpen), "open");
  EXPECT_STREQ(to_string(OpType::kClose), "close");
  EXPECT_STREQ(to_string(OpType::kRead), "read");
  EXPECT_STREQ(to_string(OpType::kWrite), "write");
  EXPECT_STREQ(to_string(OpType::kSeek), "seek");
}

TEST(Record, DataTransferClassification) {
  EXPECT_TRUE(rec(Seconds{0}, OpType::kRead, 1, Bytes{0}, Bytes{10}).is_data_transfer());
  EXPECT_TRUE(rec(Seconds{0}, OpType::kWrite, 1, Bytes{0}, Bytes{10}).is_data_transfer());
  EXPECT_FALSE(rec(Seconds{0}, OpType::kOpen, 1, Bytes{0}, Bytes{0}).is_data_transfer());
  EXPECT_FALSE(rec(Seconds{0}, OpType::kSeek, 1, Bytes{0}, Bytes{0}).is_data_transfer());
}

TEST(Record, EndOffset) {
  EXPECT_EQ(rec(Seconds{0}, OpType::kRead, 1, Bytes{100}, Bytes{50}).end_offset(), Bytes{150});
}

TEST(Trace, PushBackKeepsOrder) {
  Trace t("t");
  t.push_back(rec(Seconds{1.0}, OpType::kRead, 1, Bytes{0}, Bytes{10}));
  t.push_back(rec(Seconds{0.5}, OpType::kRead, 2, Bytes{0}, Bytes{10}));  // Out of order on purpose.
  t.push_back(rec(Seconds{2.0}, OpType::kRead, 3, Bytes{0}, Bytes{10}));
  ASSERT_EQ(t.size(), 3u);
  EXPECT_DOUBLE_EQ(t[0].timestamp.value(), 0.5);
  EXPECT_DOUBLE_EQ(t[1].timestamp.value(), 1.0);
  EXPECT_DOUBLE_EQ(t[2].timestamp.value(), 2.0);
  EXPECT_NO_THROW(t.validate());
}

TEST(Trace, RejectsZeroSizeTransfer) {
  Trace t;
  EXPECT_THROW(t.push_back(rec(Seconds{0.0}, OpType::kRead, 1, Bytes{0}, Bytes{0})), TraceError);
  EXPECT_NO_THROW(t.push_back(rec(Seconds{0.0}, OpType::kOpen, 1, Bytes{0}, Bytes{0})));
}

TEST(Trace, RejectsNegativeTimestamp) {
  Trace t;
  EXPECT_THROW(t.push_back(rec(Seconds{-1.0}, OpType::kRead, 1, Bytes{0}, Bytes{8})), TraceError);
}

TEST(Trace, StartAndEndTimes) {
  Trace t;
  t.push_back(rec(Seconds{1.0}, OpType::kRead, 1, Bytes{0}, Bytes{10}, Seconds{0.5}));
  t.push_back(rec(Seconds{3.0}, OpType::kRead, 1, Bytes{10}, Bytes{10}, Seconds{0.25}));
  EXPECT_DOUBLE_EQ(t.start_time().value(), 1.0);
  EXPECT_DOUBLE_EQ(t.end_time().value(), 3.25);
}

TEST(Trace, EmptyTimes) {
  Trace t;
  EXPECT_TRUE(t.empty());
  EXPECT_DOUBLE_EQ(t.start_time().value(), 0.0);
  EXPECT_DOUBLE_EQ(t.end_time().value(), 0.0);
}

TEST(Trace, StatsCountsReadsAndWrites) {
  Trace t;
  t.push_back(rec(Seconds{0.0}, OpType::kRead, 1, Bytes{0}, Bytes{100}));
  t.push_back(rec(Seconds{1.0}, OpType::kWrite, 2, Bytes{0}, Bytes{50}));
  t.push_back(rec(Seconds{2.0}, OpType::kRead, 1, Bytes{100}, Bytes{100}));
  t.push_back(rec(Seconds{3.0}, OpType::kOpen, 3, Bytes{0}, Bytes{0}));
  const TraceStats s = t.stats();
  EXPECT_EQ(s.records, 4u);
  EXPECT_EQ(s.reads, 2u);
  EXPECT_EQ(s.writes, 1u);
  EXPECT_EQ(s.bytes_read, Bytes{200});
  EXPECT_EQ(s.bytes_written, Bytes{50});
  EXPECT_EQ(s.distinct_files, 2u);  // Only data-transfer files counted.
  EXPECT_EQ(s.footprint, Bytes{200u + 50u});
}

TEST(Trace, FileSetIgnoresNonTransfers) {
  Trace t;
  t.push_back(rec(Seconds{0.0}, OpType::kOpen, 9, Bytes{0}, Bytes{0}));
  t.push_back(rec(Seconds{1.0}, OpType::kRead, 1, Bytes{0}, Bytes{10}));
  const auto files = t.file_set();
  EXPECT_EQ(files.size(), 1u);
  EXPECT_TRUE(files.contains(1u));
}

TEST(Trace, FileExtentsTrackMaxEndOffset) {
  Trace t;
  t.push_back(rec(Seconds{0.0}, OpType::kRead, 1, Bytes{0}, Bytes{100}));
  t.push_back(rec(Seconds{1.0}, OpType::kRead, 1, Bytes{500}, Bytes{100}));
  t.push_back(rec(Seconds{2.0}, OpType::kRead, 1, Bytes{50}, Bytes{10}));
  const auto extents = t.file_extents();
  EXPECT_EQ(extents.at(1), Bytes{600});
}

TEST(Trace, ShiftMovesAllTimestamps) {
  Trace t;
  t.push_back(rec(Seconds{1.0}, OpType::kRead, 1, Bytes{0}, Bytes{10}));
  t.push_back(rec(Seconds{2.0}, OpType::kRead, 1, Bytes{10}, Bytes{10}));
  t.shift(Seconds{5.0});
  EXPECT_DOUBLE_EQ(t.start_time().value(), 6.0);
  t.shift(Seconds{-6.0});
  EXPECT_DOUBLE_EQ(t.start_time().value(), 0.0);
}

TEST(Trace, ShiftRejectsNegativeResult) {
  Trace t;
  t.push_back(rec(Seconds{1.0}, OpType::kRead, 1, Bytes{0}, Bytes{10}));
  EXPECT_THROW(t.shift(Seconds{-2.0}), TraceError);
}

TEST(Trace, MergeInterleavesByTimestamp) {
  Trace a;
  a.push_back(rec(Seconds{0.0}, OpType::kRead, 1, Bytes{0}, Bytes{10}));
  a.push_back(rec(Seconds{2.0}, OpType::kRead, 1, Bytes{10}, Bytes{10}));
  Trace b;
  b.push_back(rec(Seconds{1.0}, OpType::kRead, 2, Bytes{0}, Bytes{10}));
  a.merge(b);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[1].inode, 2u);
}

TEST(Trace, AppendAfterPlacesSecondTraceAfterFirst) {
  Trace a;
  a.push_back(rec(Seconds{0.0}, OpType::kRead, 1, Bytes{0}, Bytes{10}, Seconds{1.0}));
  Trace b;
  b.push_back(rec(Seconds{100.0}, OpType::kRead, 2, Bytes{0}, Bytes{10}));
  a.append_after(b, Seconds{2.0});
  ASSERT_EQ(a.size(), 2u);
  EXPECT_DOUBLE_EQ(a[1].timestamp.value(), 3.0);  // end (1.0) + gap (2.0).
}

TEST(Trace, ValidateDetectsNegativeDuration) {
  Trace t;
  auto r = rec(Seconds{0.0}, OpType::kRead, 1, Bytes{0}, Bytes{10});
  r.duration = -Seconds{1.0};
  t.push_back(r);
  EXPECT_THROW(t.validate(), TraceError);
}

TEST(Trace, RejectsNonFiniteTimes) {
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  for (const double v : bad) {
    Trace t;
    EXPECT_THROW(t.push_back(rec(Seconds{v}, OpType::kRead, 1, Bytes{0}, Bytes{10})),
                 TraceError);
    EXPECT_THROW(t.push_back(rec(Seconds{0.0}, OpType::kRead, 1, Bytes{0},
                                 Bytes{10}, Seconds{v})),
                 TraceError);
    EXPECT_TRUE(t.empty());
  }
}

TEST(Trace, CopiesShareRecordsUntilOneIsMutated) {
  Trace a("a");
  a.push_back(rec(Seconds{0.0}, OpType::kRead, 1, Bytes{0}, Bytes{10}));
  a.push_back(rec(Seconds{1.0}, OpType::kRead, 2, Bytes{0}, Bytes{10}));
  Trace b = a;
  EXPECT_EQ(&a.records(), &b.records());  // One shared vector.
  EXPECT_EQ(a.shared_records(), b.shared_records());

  b.push_back(rec(Seconds{2.0}, OpType::kWrite, 3, Bytes{0}, Bytes{10}));
  b.shift(Seconds{5.0});
  EXPECT_NE(&a.records(), &b.records());
  ASSERT_EQ(a.size(), 2u);  // a never sees b's changes.
  EXPECT_DOUBLE_EQ(a[0].timestamp.value(), 0.0);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_DOUBLE_EQ(b[0].timestamp.value(), 5.0);

  Trace c = a;
  c.merge(a);  // Merging a copy of itself takes a private copy first.
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(a.size(), 2u);
}

TEST(Trace, EmptyTraceHasNoStorage) {
  const Trace t;
  EXPECT_EQ(t.shared_records(), nullptr);
  EXPECT_TRUE(t.records().empty());
  EXPECT_EQ(t.begin(), t.end());
}

TEST(Record, ToStringMentionsFields) {
  const std::string s = to_string(rec(Seconds{1.5}, OpType::kWrite, 42, Bytes{100}, Bytes{200}));
  EXPECT_NE(s.find("write"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_NE(s.find("200"), std::string::npos);
}

}  // namespace
}  // namespace flexfetch::trace
