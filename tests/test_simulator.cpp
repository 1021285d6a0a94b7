#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/error.hpp"
#include "policies/fixed.hpp"
#include "trace/builder.hpp"

namespace flexfetch::sim {
namespace {

trace::Trace tiny_trace(Seconds think = Seconds{1.0}) {
  trace::TraceBuilder b("tiny");
  b.process(50, 50);
  b.read(1, Bytes{0}, Bytes{64 * 1024});
  b.think(think);
  b.read(1, Bytes{64 * 1024}, Bytes{64 * 1024});
  return b.build();
}

SimConfig fast_config() {
  SimConfig c;
  c.collect_request_log = true;
  return c;
}

TEST(Simulator, DiskOnlySendsEverythingToDisk) {
  policies::DiskOnlyPolicy policy;
  const SimResult r = simulate(fast_config(), tiny_trace(), policy);
  EXPECT_GT(r.disk_requests, 0u);
  EXPECT_EQ(r.net_requests, 0u);
  EXPECT_EQ(r.policy, "Disk-only");
  EXPECT_EQ(r.syscalls, 2u);
}

TEST(Simulator, WnicOnlySendsEverythingToNetwork) {
  policies::WnicOnlyPolicy policy;
  const SimResult r = simulate(fast_config(), tiny_trace(), policy);
  EXPECT_EQ(r.disk_requests, 0u);
  EXPECT_GT(r.net_requests, 0u);
}

TEST(Simulator, EnergyIsChargedOnBothDevicesOverTheRun) {
  policies::DiskOnlyPolicy policy;
  const SimResult r = simulate(fast_config(), tiny_trace(), policy);
  EXPECT_GT(r.disk_energy(), Joules{0.0});
  // The unused WNIC still idles (CAM then PSM) over the makespan.
  EXPECT_GT(r.wnic_energy(), Joules{0.0});
  EXPECT_NEAR(r.total_energy().value(), (r.disk_energy() + r.wnic_energy()).value(), 1e-9);
}

TEST(Simulator, MakespanCoversTraceSpan) {
  policies::DiskOnlyPolicy policy;
  const SimResult r = simulate(fast_config(), tiny_trace(Seconds{5.0}), policy);
  EXPECT_GE(r.makespan, Seconds{5.0});  // At least the think time.
  EXPECT_LT(r.makespan, Seconds{10.0});  // But no runaway.
}

TEST(Simulator, CacheAbsorbsRepeatedReads) {
  trace::TraceBuilder b("repeat");
  for (int i = 0; i < 10; ++i) {
    b.read(1, Bytes{0}, Bytes{16 * 1024});
    b.think(Seconds{0.1});
  }
  policies::DiskOnlyPolicy policy;
  const SimResult r = simulate(fast_config(), b.build(), policy);
  EXPECT_GT(r.cache_stats.hits, 0u);
  // Only the first read reaches the device.
  EXPECT_LE(r.disk_requests, 2u);
}

TEST(Simulator, ReadaheadMergesSequentialReads) {
  trace::TraceBuilder b("seq");
  b.read_file(1, Bytes{512 * 1024}, Bytes{4 * 1024});  // 128 4 KiB calls.
  policies::DiskOnlyPolicy policy;
  const SimResult r = simulate(fast_config(), b.build(), policy);
  // Readahead coalesces the 128 calls into far fewer device requests.
  EXPECT_LT(r.disk_requests, 30u);
  EXPECT_GE(r.disk_bytes, Bytes{512u * 1024u});
}

TEST(Simulator, WritesAreBufferedAndFlushedInBackground) {
  trace::TraceBuilder b("writer");
  b.write_file(1, Bytes{256 * 1024}, Bytes{32 * 1024});
  b.think(Seconds{40.0});  // Give the flusher time (dirty expire + interval).
  b.read(2, Bytes{0}, Bytes{4096});
  policies::DiskOnlyPolicy policy;
  const SimResult r = simulate(fast_config(), b.build(), policy);
  // The dirty pages eventually reach a device as write-back.
  bool saw_writeback = false;
  for (const auto& e : r.request_log) saw_writeback |= e.is_writeback;
  EXPECT_TRUE(saw_writeback);
  EXPECT_GE(r.disk_counters.bytes_written, Bytes{256u * 1024u});
}

TEST(Simulator, WritebackCanBeDisabled) {
  trace::TraceBuilder b("writer");
  b.write_file(1, Bytes{64 * 1024}, Bytes{32 * 1024});
  b.think(Seconds{60.0});
  b.read(2, Bytes{0}, Bytes{4096});
  SimConfig config = fast_config();
  config.enable_writeback = false;
  policies::DiskOnlyPolicy policy;
  const SimResult r = simulate(config, b.build(), policy);
  for (const auto& e : r.request_log) EXPECT_FALSE(e.is_writeback);
}

TEST(Simulator, DiskPinnedProgramIgnoresPolicy) {
  std::vector<ProgramSpec> programs;
  programs.push_back(ProgramSpec{.trace = tiny_trace(),
                                 .name = "pinned",
                                 .profiled = false,
                                 .disk_pinned = true});
  policies::WnicOnlyPolicy policy;  // Would choose the network...
  Simulator sim(fast_config(), compile_programs(std::move(programs)), policy);
  const SimResult r = sim.run();
  EXPECT_GT(r.disk_requests, 0u);  // ...but pinned data stays on disk.
  EXPECT_EQ(r.net_requests, 0u);
}

TEST(Simulator, ConcurrentProgramsShareTheDevices) {
  trace::TraceBuilder a("a");
  a.process(10, 10);
  a.read(1, Bytes{0}, Bytes{128 * 1024});
  trace::TraceBuilder b("b");
  b.process(20, 20);
  b.read(2, Bytes{0}, Bytes{128 * 1024});  // Same start time as program a.
  std::vector<ProgramSpec> programs;
  programs.push_back(ProgramSpec{.trace = a.build(), .name = "a"});
  programs.push_back(ProgramSpec{.trace = b.build(), .name = "b"});
  policies::DiskOnlyPolicy policy;
  Simulator sim(fast_config(), compile_programs(std::move(programs)), policy);
  const SimResult r = sim.run();
  EXPECT_EQ(r.syscalls, 2u);
  EXPECT_GE(r.disk_requests, 2u);
  // Device serialization: the two services cannot overlap.
  ASSERT_GE(r.request_log.size(), 2u);
  const auto& first = r.request_log[0];
  const auto& second = r.request_log[1];
  EXPECT_GE(second.completion, first.completion);
}

TEST(Simulator, ThinkTimesComeFromTraceGaps) {
  policies::DiskOnlyPolicy policy;
  const SimResult fast = simulate(fast_config(), tiny_trace(Seconds{0.1}), policy);
  policies::DiskOnlyPolicy policy2;
  const SimResult slow = simulate(fast_config(), tiny_trace(Seconds{10.0}), policy2);
  EXPECT_GT(slow.makespan, fast.makespan + Seconds{9.0});
}

TEST(Simulator, IoTimeExcludesThinkTime) {
  policies::DiskOnlyPolicy policy;
  const SimResult r = simulate(fast_config(), tiny_trace(Seconds{10.0}), policy);
  EXPECT_LT(r.io_time, Seconds{1.0});  // Two small reads: well under a second.
  EXPECT_GT(r.io_time, Seconds{0.0});
}

TEST(Simulator, EmptyProgramListRejected) {
  policies::DiskOnlyPolicy policy;
  EXPECT_THROW(Simulator(SimConfig{}, {}, policy), ConfigError);
}

TEST(Simulator, ProgramsMustBeOneCompiledSet) {
  policies::DiskOnlyPolicy policy;
  // No compiled form.
  EXPECT_THROW(Simulator(SimConfig{}, {ProgramSpec{.trace = tiny_trace(), .name = "a"}},
                         policy),
               ConfigError);
  // A standalone compile has no set.
  ProgramSpec standalone{.trace = tiny_trace(), .name = "a"};
  standalone.compiled = std::make_shared<const trace::CompiledTrace>(standalone.trace);
  EXPECT_THROW(Simulator(SimConfig{}, {standalone}, policy), ConfigError);
  // Programs from two sets, or a subset of one set.
  const auto a = compile_programs({ProgramSpec{.trace = tiny_trace(), .name = "a"}});
  const auto b = compile_programs({ProgramSpec{.trace = tiny_trace(), .name = "b"}});
  EXPECT_THROW(Simulator(SimConfig{}, {a[0], b[0]}, policy), ConfigError);
  const auto pair = compile_programs({ProgramSpec{.trace = tiny_trace(), .name = "a"},
                                      ProgramSpec{.trace = tiny_trace(), .name = "b"}});
  EXPECT_THROW(Simulator(SimConfig{}, {pair[0]}, policy), ConfigError);
  EXPECT_THROW(Simulator(SimConfig{}, {pair[1], pair[0]}, policy), ConfigError);
  // A trace changed after compiling no longer matches its compiled form.
  auto changed = a;
  changed[0].trace.shift(Seconds{1.0});
  EXPECT_THROW(Simulator(SimConfig{}, changed, policy), ConfigError);
  EXPECT_NO_THROW(Simulator(SimConfig{}, a, policy));
}

TEST(Simulator, CompiledSetNumbersFilesInInodeOrder) {
  trace::TraceBuilder x("x");
  x.process(10, 10);
  x.read(30, Bytes{0}, Bytes{100});
  x.read(10, Bytes{0}, Bytes{5000});
  trace::TraceBuilder y("y");
  y.process(20, 20);
  y.write(20, Bytes{0}, Bytes{10});
  y.read(10, Bytes{0}, Bytes{9000});
  const auto programs = compile_programs(
      {ProgramSpec{.trace = x.build(), .name = "x"},
       ProgramSpec{.trace = y.build(), .name = "y", .profiled = true, .disk_pinned = true}});
  const trace::CompiledSet& set = *programs[0].compiled->set();
  ASSERT_EQ(set.file_count(), 3u);
  EXPECT_EQ(set.page_spans()[0].inode, 10u);
  EXPECT_EQ(set.page_spans()[2].inode, 30u);
  EXPECT_EQ(set.find(20), trace::FileId{1});
  EXPECT_FALSE(set.find(15).has_value());
  EXPECT_TRUE(set.pinned(trace::FileId{0}));   // y (pinned) reads it.
  EXPECT_FALSE(set.pinned(trace::FileId{2}));  // Only x reads it.
  EXPECT_EQ(set.page_spans()[0].pages, 3u);    // 9000 bytes: y's extent.
  EXPECT_EQ(set.page_spans()[1].base, 3u);
  EXPECT_EQ(set.total_pages(), 3u + 1u + 1u);
  // Each record carries its file's id; copies share the set and records.
  const trace::CompiledTrace& cx = *programs[0].compiled;
  EXPECT_EQ(cx.file(0), trace::FileId{2});
  EXPECT_EQ(cx.file(1), trace::FileId{0});
  EXPECT_EQ(cx.file_extents()[0].size, Bytes{5000});  // x's own extent.
  const auto copy = programs;
  EXPECT_EQ(copy[1].compiled->set(), &set);
  EXPECT_EQ(&copy[1].trace.records(), &programs[1].trace.records());
}

TEST(Simulator, RequestLogDisabledByDefault) {
  SimConfig config;  // collect_request_log = false.
  policies::DiskOnlyPolicy policy;
  const SimResult r = simulate(config, tiny_trace(), policy);
  EXPECT_TRUE(r.request_log.empty());
}

TEST(Simulator, DeterministicAcrossRuns) {
  policies::DiskOnlyPolicy p1;
  policies::DiskOnlyPolicy p2;
  const SimResult a = simulate(fast_config(), tiny_trace(), p1);
  const SimResult b = simulate(fast_config(), tiny_trace(), p2);
  EXPECT_DOUBLE_EQ(a.total_energy().value(), b.total_energy().value());
  EXPECT_DOUBLE_EQ(a.makespan.value(), b.makespan.value());
  EXPECT_EQ(a.disk_requests, b.disk_requests);
}

TEST(Simulator, ReportMentionsPolicyAndEnergy) {
  policies::DiskOnlyPolicy policy;
  const SimResult r = simulate(fast_config(), tiny_trace(), policy);
  const std::string report = r.report();
  EXPECT_NE(report.find("Disk-only"), std::string::npos);
  EXPECT_NE(report.find("energy total"), std::string::npos);
}

}  // namespace
}  // namespace flexfetch::sim
