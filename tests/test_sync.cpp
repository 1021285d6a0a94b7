#include "hoard/sync.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "policies/fixed.hpp"
#include "sim/simulator.hpp"
#include "trace/builder.hpp"

namespace flexfetch::hoard {
namespace {

TEST(SyncManager, StartsClean) {
  SyncManager s;
  EXPECT_EQ(s.pending_upload(), Bytes{0});
  EXPECT_EQ(s.pending_download(), Bytes{0});
  EXPECT_FALSE(s.pressure());
  EXPECT_DOUBLE_EQ(s.oldest_debt_age((Seconds{100.0})).value(), 0.0);
  EXPECT_TRUE(s.take_batch(Seconds{0.0}).empty());
}

TEST(SyncManager, LocalWritesAccumulateUploadDebt) {
  SyncManager s;
  s.on_local_write(1, Bytes{1000}, Seconds{0.0});
  s.on_local_write(1, Bytes{500}, Seconds{1.0});
  s.on_local_write(2, Bytes{200}, Seconds{2.0});
  EXPECT_EQ(s.pending_upload(), Bytes{1700});
  EXPECT_EQ(s.pending_download(), Bytes{0});
}

TEST(SyncManager, RemoteUpdatesAccumulateDownloadDebt) {
  SyncManager s;
  s.on_remote_update(5, Bytes{4096}, Seconds{0.0});
  EXPECT_EQ(s.pending_download(), Bytes{4096});
}

TEST(SyncManager, OldestDebtAgeTracksFirstWrite) {
  SyncManager s;
  s.on_local_write(1, Bytes{100}, Seconds{10.0});
  s.on_local_write(2, Bytes{100}, Seconds{50.0});
  EXPECT_DOUBLE_EQ(s.oldest_debt_age((Seconds{60.0})).value(), 50.0);
}

TEST(SyncManager, TakeBatchDrainsEverythingByDefault) {
  SyncManager s;
  s.on_local_write(1, Bytes{1000}, Seconds{0.0});
  s.on_remote_update(2, Bytes{2000}, Seconds{1.0});
  const auto batch = s.take_batch(Seconds{5.0});
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_TRUE(batch[0].upload);
  EXPECT_FALSE(batch[1].upload);
  EXPECT_EQ(s.pending_upload(), Bytes{0});
  EXPECT_EQ(s.pending_download(), Bytes{0});
  EXPECT_EQ(s.stats().uploaded, Bytes{1000});
  EXPECT_EQ(s.stats().downloaded, Bytes{2000});
  EXPECT_EQ(s.stats().batches, 1u);
}

TEST(SyncManager, BatchIsOldestFirst) {
  SyncManager s;
  s.on_local_write(2, Bytes{100}, Seconds{5.0});
  s.on_local_write(1, Bytes{100}, Seconds{1.0});
  s.on_local_write(3, Bytes{100}, Seconds{9.0});
  const auto batch = s.take_batch(Seconds{10.0});
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].inode, 1u);
  EXPECT_EQ(batch[1].inode, 2u);
  EXPECT_EQ(batch[2].inode, 3u);
}

TEST(SyncManager, MaxBatchBytesLimitsAndCarriesOver) {
  SyncConfig config;
  config.max_batch_bytes = Bytes{1500};
  SyncManager s(config);
  s.on_local_write(1, Bytes{1000}, Seconds{0.0});
  s.on_local_write(2, Bytes{1000}, Seconds{1.0});
  const auto first = s.take_batch(Seconds{2.0});
  Bytes shipped = Bytes{0};
  for (const auto& item : first) shipped += item.bytes;
  EXPECT_EQ(shipped, Bytes{1500});
  EXPECT_EQ(s.pending_upload(), Bytes{500});
  const auto second = s.take_batch(Seconds{3.0});
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].bytes, Bytes{500});
}

TEST(SyncManager, PressureThreshold) {
  SyncConfig config;
  config.pressure_bytes = Bytes{1000};
  SyncManager s(config);
  s.on_local_write(1, Bytes{999}, Seconds{0.0});
  EXPECT_FALSE(s.pressure());
  s.on_local_write(1, Bytes{1}, Seconds{0.1});
  EXPECT_TRUE(s.pressure());
}

TEST(SyncManager, ConfigValidation) {
  SyncConfig c;
  c.interval = Seconds{0.0};
  EXPECT_THROW(SyncManager{c}, ConfigError);
}

TEST(SyncManager, ZeroByteWritesRejected) {
  SyncManager s;
  EXPECT_THROW(s.on_local_write(1, Bytes{0}, Seconds{0.0}), ConfigError);
  EXPECT_THROW(s.on_remote_update(1, Bytes{0}, Seconds{0.0}), ConfigError);
}

// --- Simulator integration -------------------------------------------------

TEST(SyncIntegration, WriterWorkloadProducesSyncTraffic) {
  trace::TraceBuilder b("writer");
  b.process(70, 70);
  for (int i = 0; i < 8; ++i) {
    b.write(1, Bytes{static_cast<std::uint64_t>(i) * 64 * 1024}, Bytes{64 * 1024});
    b.think(Seconds{30.0});
  }
  sim::SimConfig config;
  config.sync = hoard::SyncConfig{.interval = Seconds{60.0}};
  policies::DiskOnlyPolicy policy;
  const auto r = sim::simulate(config, b.build(), policy);
  EXPECT_GT(r.sync_batches, 1u);
  EXPECT_GE(r.sync_bytes, Bytes{8u * 64u * 1024u});
  EXPECT_GE(r.net_bytes, r.sync_bytes);  // Sync always rides the WNIC.
}

TEST(SyncIntegration, SyncDisabledProducesNoTraffic) {
  trace::TraceBuilder b("writer");
  b.process(70, 70);
  b.write(1, Bytes{0}, Bytes{64 * 1024});
  policies::DiskOnlyPolicy policy;
  const auto r = sim::simulate(sim::SimConfig{}, b.build(), policy);
  EXPECT_EQ(r.sync_batches, 0u);
  EXPECT_EQ(r.sync_bytes, Bytes{0});
}

TEST(SyncIntegration, TrailingDebtIsDrainedAfterProgramsEnd) {
  trace::TraceBuilder b("writer");
  b.process(70, 70);
  b.write(1, Bytes{0}, Bytes{128 * 1024});  // One write right at the end of the run.
  sim::SimConfig config;
  config.sync = hoard::SyncConfig{.interval = Seconds{300.0}};  // Longer than the program's lifetime.
  policies::DiskOnlyPolicy policy;
  const auto r = sim::simulate(config, b.build(), policy);
  EXPECT_EQ(r.sync_bytes, Bytes{128u * 1024u});  // Still shipped eventually.
}

TEST(SyncIntegration, SyncCostsWnicEnergy) {
  trace::TraceBuilder b("writer");
  b.process(70, 70);
  for (int i = 0; i < 16; ++i) {
    b.write(1, static_cast<std::uint64_t>(i) * kMiB, kMiB);
    b.think(Seconds{10.0});
  }
  const trace::Trace t = b.build();
  policies::DiskOnlyPolicy p1;
  const auto without = sim::simulate(sim::SimConfig{}, t, p1);
  sim::SimConfig config;
  config.sync = hoard::SyncConfig{.interval = Seconds{30.0}};
  policies::DiskOnlyPolicy p2;
  const auto with = sim::simulate(config, t, p2);
  EXPECT_GT(with.wnic_energy(), without.wnic_energy());
}

}  // namespace
}  // namespace flexfetch::hoard
