#include "trace/strace_import.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/error.hpp"

namespace flexfetch::trace {
namespace {

Trace import(const std::string& text, StraceImportOptions options = {}) {
  std::istringstream is(text);
  return import_strace(is, "test", options);
}

TEST(StraceImport, OpenReadCloseRoundTrip) {
  const Trace t = import(
      "1180000000.000000 open(\"/etc/hosts\", O_RDONLY) = 3 <0.000011>\n"
      "1180000000.000100 read(3, \"...\", 4096) = 4096 <0.000042>\n"
      "1180000000.000200 close(3) = 0 <0.000005>\n");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0].op, OpType::kOpen);
  EXPECT_EQ(t[1].op, OpType::kRead);
  EXPECT_EQ(t[1].size, Bytes{4096});
  EXPECT_EQ(t[1].offset, Bytes{0});
  EXPECT_NEAR(t[1].duration.value(), 0.000042, 1e-9);
  EXPECT_EQ(t[2].op, OpType::kClose);
  EXPECT_EQ(t[0].inode, t[1].inode);
}

TEST(StraceImport, TimestampsAreRebased) {
  const Trace t = import(
      "1180000005.500000 open(\"/a\", O_RDONLY) = 3\n"
      "1180000006.500000 read(3, \"\", 100) = 100\n");
  EXPECT_DOUBLE_EQ(t[0].timestamp.value(), 0.0);
  EXPECT_DOUBLE_EQ(t[1].timestamp.value(), 1.0);
}

TEST(StraceImport, RebaseCanBeDisabled) {
  StraceImportOptions o;
  o.rebase_time = false;
  const Trace t = import("5.25 open(\"/a\", O_RDONLY) = 3\n", o);
  EXPECT_DOUBLE_EQ(t[0].timestamp.value(), 5.25);
}

TEST(StraceImport, SequentialReadsAdvanceTheOffset) {
  const Trace t = import(
      "0.0 open(\"/a\", O_RDONLY) = 3\n"
      "0.1 read(3, \"\", 1000) = 1000\n"
      "0.2 read(3, \"\", 1000) = 1000\n"
      "0.3 read(3, \"\", 1000) = 500\n");  // Short read at EOF.
  EXPECT_EQ(t[1].offset, Bytes{0});
  EXPECT_EQ(t[2].offset, Bytes{1000});
  EXPECT_EQ(t[3].offset, Bytes{2000});
  EXPECT_EQ(t[3].size, Bytes{500});  // The result, not the requested count.
}

TEST(StraceImport, LseekRepositionsTheDescriptor) {
  const Trace t = import(
      "0.0 open(\"/a\", O_RDONLY) = 3\n"
      "0.1 lseek(3, 8192, SEEK_SET) = 8192\n"
      "0.2 read(3, \"\", 100) = 100\n");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[1].op, OpType::kSeek);
  EXPECT_EQ(t[2].offset, Bytes{8192});
}

TEST(StraceImport, SamePathSharesAnInode) {
  const Trace t = import(
      "0.0 open(\"/a\", O_RDONLY) = 3\n"
      "0.1 close(3) = 0\n"
      "0.2 open(\"/a\", O_RDONLY) = 4\n"
      "0.3 read(4, \"\", 10) = 10\n");
  EXPECT_EQ(t[0].inode, t[2].inode);
  EXPECT_EQ(t[3].inode, t[0].inode);
}

TEST(StraceImport, DistinctPathsGetDistinctInodes) {
  const Trace t = import(
      "0.0 open(\"/a\", O_RDONLY) = 3\n"
      "0.1 open(\"/b\", O_RDONLY) = 4\n");
  EXPECT_NE(t[0].inode, t[1].inode);
}

TEST(StraceImport, FailedCallsAreSkipped) {
  const Trace t = import(
      "0.0 open(\"/missing\", O_RDONLY) = -1 ENOENT (No such file)\n"
      "0.1 open(\"/a\", O_RDONLY) = 3\n"
      "0.2 read(3, \"\", 100) = 0\n"  // EOF.
      "0.3 read(3, \"\", 100) = -1 EAGAIN\n");
  ASSERT_EQ(t.size(), 1u);  // Only the successful open.
  EXPECT_EQ(t[0].op, OpType::kOpen);
}

TEST(StraceImport, UnknownDescriptorsAreIgnored) {
  // Reads on sockets/pipes (fds never opened via open) are not file I/O.
  const Trace t = import("0.0 read(7, \"\", 100) = 100\n");
  EXPECT_TRUE(t.empty());
}

TEST(StraceImport, PidColumnFromDashF) {
  const Trace t = import(
      "2501  1180000000.100000 open(\"/a\", O_RDONLY) = 3\n"
      "2501  1180000000.200000 read(3, \"\", 64) = 64\n");
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].pid, 2501u);
  EXPECT_EQ(t[1].pid, 2501u);
}

TEST(StraceImport, PerPidDescriptorTables) {
  const Trace t = import(
      "1 0.0 open(\"/a\", O_RDONLY) = 3\n"
      "2 0.1 open(\"/b\", O_RDONLY) = 3\n"  // Same fd, different process.
      "1 0.2 read(3, \"\", 10) = 10\n"
      "2 0.3 read(3, \"\", 10) = 10\n");
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[2].inode, t[0].inode);
  EXPECT_EQ(t[3].inode, t[1].inode);
  EXPECT_NE(t[2].inode, t[3].inode);
}

TEST(StraceImport, WriteDetection) {
  const Trace t = import(
      "0.0 open(\"/a\", O_WRONLY) = 3\n"
      "0.1 write(3, \"xyz\", 3) = 3\n");
  EXPECT_EQ(t[1].op, OpType::kWrite);
  EXPECT_EQ(t[1].size, Bytes{3});
}

TEST(StraceImport, NoiseLinesAreSkipped) {
  const Trace t = import(
      "--- SIGCHLD {si_signo=SIGCHLD} ---\n"
      "0.0 open(\"/a\", O_RDONLY) = 3\n"
      "0.1 <... read resumed>\"\", 100) = 100\n"
      "+++ exited with 0 +++\n");
  EXPECT_EQ(t.size(), 1u);
}

TEST(StraceImport, PgidOptionIsApplied) {
  StraceImportOptions o;
  o.pgid = 777;
  const Trace t = import("0.0 open(\"/a\", O_RDONLY) = 3\n", o);
  EXPECT_EQ(t[0].pgid, 777u);
}

// Numbers the importer once took through strtod, and a negative duration.
// No row imports a bad number: strict mode names the line, lenient mode
// drops it.
struct BadNumberRow {
  const char* what;
  const char* log;
  std::size_t bad_line;
};

TEST(StraceImport, RejectsNonFiniteAndNonDecimalNumbers) {
  const BadNumberRow rows[] = {
      {"nan timestamps",
       "nan open(\"/a\", O_RDONLY) = 3\n"
       "nan read(3, \"\", 100) = 100\n",
       1},
      {"inf duration",
       "0.0 open(\"/a\", O_RDONLY) = 3 <inf>\n", 1},
      {"nan duration",
       "0.0 open(\"/a\", O_RDONLY) = 3\n"
       "0.1 read(3, \"\", 100) = 100 <nan>\n",
       2},
      {"hex timestamp",
       "0x64 open(\"/a\", O_RDONLY) = 3\n", 1},
      {"hex duration",
       "0.0 open(\"/a\", O_RDONLY) = 3 <0x1p-9>\n", 1},
      {"inf later timestamp",
       "0.0 open(\"/a\", O_RDONLY) = 3\n"
       "inf read(3, \"\", 100) = 100\n",
       2},
      {"negative duration",
       "0.0 open(\"/a\", O_RDONLY) = 3 <-0.5>\n", 1},
  };
  for (const BadNumberRow& row : rows) {
    StraceImportOptions strict;
    strict.lenient = false;
    std::istringstream strict_log(row.log);
    try {
      import_strace(strict_log, "strict", strict);
      ADD_FAILURE() << row.what << ": strict import accepted it";
    } catch (const TraceError& e) {
      EXPECT_NE(std::string(e.what()).find("line " + std::to_string(row.bad_line)),
                std::string::npos)
          << row.what << ": " << e.what();
    }
    std::istringstream lenient_log(row.log);
    const Trace t = import_strace(lenient_log, "lenient");
    EXPECT_EQ(t.size(), row.bad_line - 1) << row.what;
    EXPECT_NO_THROW(t.validate()) << row.what;
  }
}

TEST(StraceImport, MissingFileThrows) {
  EXPECT_THROW(import_strace_file("/no/such/strace.log"), TraceError);
}

TEST(StraceImport, ImportedTraceDrivesBurstExtraction) {
  // End-to-end sanity: the imported trace validates and has usable gaps.
  const Trace t = import(
      "0.000 open(\"/a\", O_RDONLY) = 3\n"
      "0.001 read(3, \"\", 8192) = 8192 <0.0001>\n"
      "2.000 read(3, \"\", 8192) = 8192 <0.0001>\n");
  EXPECT_NO_THROW(t.validate());
  const auto s = t.stats();
  EXPECT_EQ(s.bytes_read, Bytes{16384});
  EXPECT_GT(s.duration, Seconds{1.9});
}

}  // namespace
}  // namespace flexfetch::trace
