#include "trace/trace_io.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "trace/builder.hpp"

namespace flexfetch::trace {
namespace {

Trace sample_trace() {
  TraceBuilder b("sample");
  b.process(7, 8);
  b.open(1);
  b.read(1, Bytes{0}, Bytes{4096}, Seconds{0.001});
  b.think(Seconds{1.0 / 3.0});  // No 9-digit decimal holds this time.
  b.write(2, Bytes{100}, Bytes{512}, Seconds{0.002});
  b.close(1);
  return b.build();
}

TEST(TraceIo, RoundTripPreservesRecords) {
  const Trace original = sample_trace();
  std::stringstream ss;
  write_trace(ss, original);
  const Trace loaded = read_trace(ss);
  EXPECT_EQ(loaded.name(), "sample");
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded[i].op, original[i].op) << i;
    EXPECT_EQ(loaded[i].inode, original[i].inode) << i;
    EXPECT_EQ(loaded[i].offset, original[i].offset) << i;
    EXPECT_EQ(loaded[i].size, original[i].size) << i;
    EXPECT_EQ(loaded[i].pid, original[i].pid) << i;
    EXPECT_EQ(loaded[i].pgid, original[i].pgid) << i;
    EXPECT_EQ(loaded[i].timestamp, original[i].timestamp) << i;
    EXPECT_EQ(loaded[i].duration, original[i].duration) << i;
  }
}

TEST(TraceIo, RejectsEmptyStream) {
  std::stringstream ss;
  EXPECT_THROW(read_trace(ss), TraceError);
}

TEST(TraceIo, RejectsBadHeader) {
  std::stringstream ss("not a trace\n");
  EXPECT_THROW(read_trace(ss), TraceError);
}

TEST(TraceIo, RejectsWrongFieldCount) {
  std::stringstream ss("# flexfetch-trace v1 name=x\n1.0,read,1,1\n");
  EXPECT_THROW(read_trace(ss), TraceError);
}

TEST(TraceIo, RejectsUnknownOp) {
  std::stringstream ss(
      "# flexfetch-trace v1 name=x\n1.0,frobnicate,1,1,3,5,0,10,0.0\n");
  EXPECT_THROW(read_trace(ss), TraceError);
}

TEST(TraceIo, RejectsMalformedFields) {
  // Each row parses only if every field is one whole in-range token.
  for (const char* row : {
           "1.0,read,1,1,3,5,-1,10,0.0",                    // Offset -1 wraps.
           "nan,read,1,1,3,5,0,10,0.0",                     // Timestamp NaN.
           "inf,read,1,1,3,5,0,10,0.0",                     // Not finite.
           "0.5xyz,read,1,1,3,5,0,10,0.0",                  // Trailing junk.
           "1.0,read,1,1,3,5,0,12abc,0.0",                  // Size with junk.
           "1.0,read,1,1,3,5,0,10,-2",                      // Negative duration.
           "-1.0,read,1,1,3,5,0,10,0.0",                    // Negative timestamp.
           "1.0,read,4294967296,1,3,5,0,10,0.0",            // Pid past 32 bits.
           "1.0,read,1,-1,3,5,0,10,0.0",                    // Negative pgid.
           "1.0,read,1,1,2147483648,5,0,10,0.0",            // fd past int32.
           "1.0,read,1,1,3,5,18446744073709551615,10,0.0",  // offset + size wraps.
           "1.0,read,1,1,3, 5,0,10,0.0",                    // Leading space.
           "1.0,read,1,1,3,+5,0,10,0.0",                    // Plus sign.
           "1.0,read,1,1,3,,0,10,0.0",                      // Empty field.
           "1.0,read,1,1,3,5,0,10,0.0,",                    // Tenth, empty field.
       }) {
    std::stringstream ss(std::string("# flexfetch-trace v1 name=x\n") + row + "\n");
    try {
      read_trace(ss);
      ADD_FAILURE() << "accepted: " << row;
    } catch (const TraceError& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << row << ": " << e.what();
    }
  }
}

TEST(TraceIo, AcceptsNoneFdAndFullRangeFields) {
  std::stringstream ss(
      "# flexfetch-trace v1 name=x\n"
      "0,open,4294967295,4294967295,-1,18446744073709551615,0,0,0\n"
      "2.5e-3,read,1,1,3,5,18446744073709551605,10,1e-6\n");
  const Trace t = read_trace(ss);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].fd, -1);
  EXPECT_EQ(t[0].pid, 4294967295u);
  EXPECT_EQ(t[0].inode, 18446744073709551615u);
  EXPECT_EQ(t[1].end_offset(), Bytes{18446744073709551615u});
  EXPECT_DOUBLE_EQ(t[1].timestamp.value(), 2.5e-3);
}

TEST(TraceIo, SkipsCommentsAndBlankLines) {
  std::stringstream ss(
      "# flexfetch-trace v1 name=x\n"
      "\n"
      "# a comment\n"
      "1.0,read,1,1,3,5,0,10,0.0\n");
  const Trace t = read_trace(ss);
  EXPECT_EQ(t.size(), 1u);
}

TEST(TraceIo, SaveAndLoadFile) {
  const auto path =
      (std::filesystem::temp_directory_path() / "flexfetch_trace_io_test.csv")
          .string();
  const Trace original = sample_trace();
  save_trace(path, original);
  const Trace loaded = load_trace(path);
  EXPECT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.name(), original.name());
  std::filesystem::remove(path);
}

TEST(TraceIo, LoadMissingFileThrows) {
  EXPECT_THROW(load_trace("/nonexistent/path/trace.csv"), TraceError);
}

}  // namespace
}  // namespace flexfetch::trace
