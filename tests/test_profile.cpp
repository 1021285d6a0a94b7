#include "core/profile.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "trace/builder.hpp"

namespace flexfetch::core {
namespace {

Profile sample_profile() {
  trace::TraceBuilder b("prog");
  b.read(1, Bytes{0}, Bytes{8192});
  b.think(Seconds{1.0});
  b.read_file(2, Bytes{64 * 1024}, Bytes{16 * 1024});
  b.think(Seconds{2.0});
  b.write(3, Bytes{0}, Bytes{4096});
  return Profile::from_trace(b.build(), Seconds{0.020});
}

TEST(Profile, FromTraceExtractsBursts) {
  const Profile p = sample_profile();
  EXPECT_EQ(p.program(), "prog");
  EXPECT_EQ(p.size(), 3u);
  EXPECT_EQ(p.total_bytes(), Bytes{8192u + 64u * 1024u + 4096u});
}

TEST(Profile, SpanSeconds) {
  const Profile p = sample_profile();
  EXPECT_NEAR(p.span_seconds().value(), 3.0, 1e-9);
}

TEST(Profile, EmptyProfile) {
  Profile p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.total_bytes(), Bytes{0});
  EXPECT_DOUBLE_EQ(p.span_seconds().value(), 0.0);
  EXPECT_TRUE(p.byte_prefix_sums().size() == 1 && p.byte_prefix_sums()[0] == Bytes{0});
}

TEST(Profile, BytePrefixSums) {
  const Profile p = sample_profile();
  const auto sums = p.byte_prefix_sums();
  ASSERT_EQ(sums.size(), 4u);
  EXPECT_EQ(sums[0], Bytes{0});
  EXPECT_EQ(sums[1], Bytes{8192});
  EXPECT_EQ(sums[2], Bytes{8192u + 64u * 1024u});
  EXPECT_EQ(sums[3], p.total_bytes());
}

TEST(Profile, SpanViewClampsCount) {
  const Profile p = sample_profile();
  EXPECT_EQ(p.span(0, 2).size(), 2u);
  EXPECT_EQ(p.span(2, 10).size(), 1u);
  EXPECT_EQ(p.span(3, 10).size(), 0u);
}

TEST(Profile, MergeInterleavesByStartTime) {
  trace::TraceBuilder a("a");
  a.read(1, Bytes{0}, Bytes{4096});
  a.think(Seconds{10.0});
  a.read(1, Bytes{4096}, Bytes{4096});
  trace::TraceBuilder b("b");
  b.at(Seconds{5.0});
  b.read(2, Bytes{0}, Bytes{4096});
  const Profile merged = Profile::merge(
      {Profile::from_trace(a.build(), Seconds{0.02}), Profile::from_trace(b.build(), Seconds{0.02})},
      "ab");
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].requests[0].inode, 1u);
  EXPECT_EQ(merged[1].requests[0].inode, 2u);
  EXPECT_EQ(merged[2].requests[0].inode, 1u);
  // Think gaps recomputed against the interleaved order.
  EXPECT_NEAR(merged[1].think_before.value(), 5.0, 1e-9);
  EXPECT_NEAR(merged[2].think_before.value(), 5.0, 1e-9);
  EXPECT_EQ(merged.program(), "ab");
}

TEST(Profile, MergeOfSingleProfileKeepsBursts) {
  const Profile p = sample_profile();
  const Profile m = Profile::merge({p}, "solo");
  EXPECT_EQ(m.size(), p.size());
  EXPECT_EQ(m.total_bytes(), p.total_bytes());
}

TEST(Profile, SerializationRoundTrip) {
  // Times that no 9-digit decimal holds must still read back bit-equal.
  std::vector<IOBurst> bursts = sample_profile().bursts();
  bursts[0].think_before = Seconds{1.0 / 3.0};
  bursts[1].duration = Seconds{2e-12};
  const Profile p("prog", bursts);
  std::stringstream ss;
  p.write(ss);
  const Profile q = Profile::read(ss);
  EXPECT_EQ(q.program(), p.program());
  ASSERT_EQ(q.size(), p.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(q[i].think_before, p[i].think_before);
    EXPECT_EQ(q[i].start, p[i].start);
    EXPECT_EQ(q[i].duration, p[i].duration);
    ASSERT_EQ(q[i].requests.size(), p[i].requests.size());
    for (std::size_t j = 0; j < p[i].requests.size(); ++j) {
      EXPECT_EQ(q[i].requests[j].inode, p[i].requests[j].inode);
      EXPECT_EQ(q[i].requests[j].offset, p[i].requests[j].offset);
      EXPECT_EQ(q[i].requests[j].size, p[i].requests[j].size);
      EXPECT_EQ(q[i].requests[j].is_write, p[i].requests[j].is_write);
    }
  }
}

TEST(Profile, ReadRejectsBadHeader) {
  std::stringstream ss("garbage\n");
  EXPECT_THROW(Profile::read(ss), TraceError);
}

TEST(Profile, ReadRejectsRequestBeforeBurst) {
  std::stringstream ss("# flexfetch-profile v1 name=x\nreq,1,0,100,0\n");
  EXPECT_THROW(Profile::read(ss), TraceError);
}

TEST(Profile, ReadRejectsTruncatedBurst) {
  std::stringstream ss(
      "# flexfetch-profile v1 name=x\nburst,0.0,0.0,1.0,2\nreq,1,0,100,0\n");
  EXPECT_THROW(Profile::read(ss), TraceError);
}

TEST(Profile, ReadRejectsUnknownTag) {
  std::stringstream ss("# flexfetch-profile v1 name=x\nbogus,1,2\n");
  EXPECT_THROW(Profile::read(ss), TraceError);
}

TEST(Profile, ReadRejectsMalformedFields) {
  // Each input is a one-request burst with one malformed field; a row
  // parses only if every field is one whole in-range token.
  for (const char* rows : {
           "burst,0,0,1,1\nreq,12,xyz,4096,0",   // Non-numeric offset read as 0.
           "burst,0,0,1,1\nreq,12,0,4096x,0",    // Trailing junk.
           "burst,0,0,1,1\nreq,12,-1,4096,0",    // Offset -1 wraps.
           "burst,0,0,1,1\nreq,+12,0,4096,0",    // Plus sign.
           "burst,0,0,1,1\nreq,12,0,4096,2",     // is_write is 0 or 1.
           "burst,0,0,1,1\nreq,12,0,4096,0,7",   // Extra field.
           "burst,0,0,1,1\nreq,12,0,4096",       // Missing field.
           "burst,nan,0,1,1\nreq,12,0,4096,0",   // Think NaN.
           "burst,0,inf,1,1\nreq,12,0,4096,0",   // Start not finite.
           "burst,0,0,-1,1\nreq,12,0,4096,0",    // Negative duration.
           "burst,0,0,1s,1\nreq,12,0,4096,0",    // Duration with a unit.
           "burst,0,0,1,-1\nreq,12,0,4096,0",    // Negative request count.
           "burst,0,0,1,1.0\nreq,12,0,4096,0",   // Fractional request count.
           "burst, 0,0,1,1\nreq,12,0,4096,0",    // Leading space.
           "burst,,0,1,1\nreq,12,0,4096,0",      // Empty field.
       }) {
    std::stringstream ss(std::string("# flexfetch-profile v1 name=x\n") + rows + "\n");
    try {
      Profile::read(ss);
      ADD_FAILURE() << "accepted: " << rows;
    } catch (const TraceError& e) {
      EXPECT_NE(std::string(e.what()).find("line "), std::string::npos)
          << rows << ": " << e.what();
    }
  }
  std::stringstream ok("# flexfetch-profile v1 name=x\nburst,0,0,1,1\nreq,12,0,4096,1\n");
  EXPECT_TRUE(Profile::read(ok)[0].requests[0].is_write);
}

}  // namespace
}  // namespace flexfetch::core
