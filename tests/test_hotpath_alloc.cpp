// Asserts the zero-allocation contract of the arena hot path: after
// construction and registration of its files (BufferCache, from its first
// use on, as in a Simulator run) or warm-up (CScan),
// BufferCache::read_range/write_range/mark_clean by id, lookup/fill/write/
// clear and CScanScheduler::submit/dispatch perform no heap allocation. Pages of files never registered grow their
// page index on first touch; a repeated pass over them allocates nothing.
// Readahead over registered files and writing and merging a MetricsRegistry
// allocate nothing either, and a Simulator's setup allocates the same
// number of times whatever its file count.
// Global operator new/delete are replaced with counting versions (this test
// lives in its own binary for that reason).
#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "os/buffer_cache.hpp"
#include "os/io_scheduler.hpp"
#include "os/readahead.hpp"
#include "policies/fixed.hpp"
#include "sim/simulator.hpp"
#include "telemetry/metrics.hpp"
#include "workloads/scenarios.hpp"

namespace {

std::uint64_t g_allocations = 0;

std::uint64_t allocation_count() { return g_allocations; }

void* counted_alloc(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(n ? n : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace flexfetch::os {
namespace {

TEST(HotpathAllocation, BufferCacheSteadyStateIsAllocationFree) {
  BufferCacheConfig config;
  config.capacity_pages = 1024;
  BufferCache cache(config);
  // Every page below lies in file 1's registered extent, as every page of a
  // Simulator run lies in a compiled extent that Simulator::start registers.
  cache.register_files({{1, (4096 + 8192) * kPageSize}});

  std::vector<DirtyPage> flushed;
  flushed.reserve(4096);

  // Warm-up: stream enough pages to fill the cache, the ghost list, and the
  // dirty chain, so every later operation recycles arena slots.
  for (std::uint64_t i = 0; i < 4096; ++i) {
    cache.fill(PageId{1, i}, Seconds{0.001 * static_cast<double>(i)}, flushed);
    if (i % 3 == 0) {
      cache.write(PageId{1, i}, Seconds{0.001 * static_cast<double>(i)}, flushed);
    }
  }
  flushed.clear();

  const std::uint64_t before = allocation_count();
  std::uint64_t hits = 0;
  Seconds now = Seconds{10.0};
  for (std::uint64_t i = 0; i < 100000; ++i) {
    const PageId id{1, 4096 + i % 8192};
    now += Seconds{0.001};
    hits += cache.lookup(id, now) ? 1u : 0u;
    cache.fill(id, now, flushed);
    if (i % 4 == 0) cache.write(PageId{1, i % 512}, now, flushed);
    if (i % 7 == 0) cache.mark_clean(PageId{1, i % 512});
    if (flushed.size() > 2048) flushed.clear();
  }
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "BufferCache steady state allocated " << (after - before)
      << " times (hits=" << hits << ")";
}

TEST(HotpathAllocation, BufferCacheFirstUseIsAllocationFree) {
  // A fresh cache hands out never-used slots on first use; every one must
  // come from the arrays the constructor sized. Fill from empty past
  // capacity + kout distinct pages, writes mixed in, so the arena reaches
  // its full size, the ghost list overflows and freed slots are recycled;
  // then clear() and fill again. The three files are registered first, in
  // two batches as two programs register theirs: file 2 lands between.
  for (const std::size_t capacity : {std::size_t{1024}, BufferCacheConfig{}.capacity_pages}) {
    BufferCacheConfig config;
    config.capacity_pages = capacity;
    const std::uint64_t pages = 2 * (capacity + capacity / 2);
    std::vector<DirtyPage> flushed;
    flushed.reserve(pages);
    BufferCache cache(config);
    cache.register_files({{1, pages * kPageSize}, {3, pages * kPageSize}});
    cache.register_files({{2, pages * kPageSize}});

    const std::uint64_t before = allocation_count();
    Seconds now = Seconds{0.0};
    for (int round = 0; round < 2; ++round) {
      for (std::uint64_t i = 0; i < pages; ++i) {
        now += Seconds{0.001};
        const PageId id{1 + i % 3, i};
        if (!cache.lookup(id, now)) cache.fill(id, now, flushed);
        if (i % 3 == 0) cache.write(PageId{1, i / 2}, now, flushed);
        if (i % 5 == 0) cache.mark_clean(PageId{1, i / 4});
      }
      EXPECT_EQ(cache.size(), capacity);
      cache.clear();
      flushed.clear();
    }
    const std::uint64_t after = allocation_count();
    EXPECT_EQ(after - before, 0u)
        << "BufferCache (capacity " << capacity << ") allocated " << (after - before)
        << " times on first use";
  }
}

TEST(HotpathAllocation, BufferCacheRepeatedPassAfterGrowthIsAllocationFree) {
  // No file is registered: the first pass grows every file's page index
  // (interleaved files, so spans both grow in place and move), which may
  // allocate. The same pass again finds every span large enough.
  BufferCacheConfig config;
  config.capacity_pages = 1024;
  BufferCache cache(config);
  std::vector<DirtyPage> flushed;
  flushed.reserve(8192);
  const auto pass = [&](Seconds now) {
    for (std::uint64_t i = 0; i < 20000; ++i) {
      now += Seconds{0.001};
      const PageId id{1 + i % 4, 3 * (i / 4)};
      if (!cache.lookup(id, now)) cache.fill(id, now, flushed);
      if (i % 5 == 0) cache.write(PageId{5, i}, now, flushed);
      if (i % 7 == 0) cache.mark_clean(PageId{5, i / 2});
      if (flushed.size() > 4096) flushed.clear();
    }
  };
  pass(Seconds{0.0});
  flushed.clear();

  const std::uint64_t before = allocation_count();
  pass(Seconds{100.0});
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "BufferCache repeated pass allocated " << (after - before) << " times";
}

TEST(HotpathAllocation, RangeCallsAndMarkCleanByIdAreAllocationFree) {
  // Vfs's path: read_range / write_range by file id into reused buffers,
  // and write-back completion by id, over registered files. From the first
  // call on: the cache fills, ghosts overflow and slots recycle.
  BufferCacheConfig config;
  config.capacity_pages = 1024;
  BufferCache cache(config);
  cache.register_files({{1, 8192 * kPageSize}, {2, 8192 * kPageSize}});
  const trace::FileId one = cache.file(1);
  const trace::FileId two = cache.file(2);
  std::vector<DirtyPage> flushed;
  flushed.reserve(8192);
  std::vector<PageRange> fetches;
  fetches.reserve(64);

  const std::uint64_t before = allocation_count();
  Seconds now = Seconds{0.0};
  for (std::uint64_t i = 0; i < 20000; ++i) {
    now += Seconds{0.001};
    const std::uint64_t first = (i * 37) % 8000;
    fetches.clear();
    cache.read_range(one, first, first, first + 4, first + 32, now, flushed, &fetches);
    cache.write_range(two, first / 2, first / 2 + 8, now, flushed);
    if (i % 3 == 0) cache.mark_clean(two, first / 2 + 1);
    if (flushed.size() > 4096) flushed.clear();
  }
  const std::uint64_t after = allocation_count();
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_EQ(after - before, 0u)
      << "range calls and mark_clean by id allocated " << (after - before) << " times";
}

TEST(HotpathAllocation, CScanSteadyStateIsAllocationFree) {
  CScanScheduler sched;
  sched.reserve(256);

  const std::uint64_t before = allocation_count();
  Bytes lba = Bytes{0};
  for (std::uint64_t i = 0; i < 100000; ++i) {
    if (i % 4 == 0) lba = Bytes{(i * 7919) % (1ull << 30)};
    sched.submit(device::DeviceRequest{.lba = lba, .size = Bytes{4096}});
    lba += Bytes{4096};
    while (sched.pending() > 128) sched.dispatch();
  }
  while (sched.dispatch()) {
  }
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "CScanScheduler steady state allocated " << (after - before) << " times";
}

TEST(HotpathAllocation, MetricsWriteAndMergeAreAllocationFree) {
  using telemetry::MetricKind;
  const std::uint64_t before = allocation_count();
  telemetry::MetricsRegistry written;
  for (const auto& row : telemetry::kMetricTable) {
    switch (row.kind) {
      case MetricKind::kCounter: written.add(row.id, 1.0); break;
      case MetricKind::kGauge: written.set(row.id, 2.0); break;
      case MetricKind::kMax: written.set_max(row.id, 3.0); break;
    }
  }
  for (const auto& row : telemetry::kHistTable) {
    written.histogram(row.id).record(0.5);
  }
  telemetry::MetricsRegistry merged;
  merged.merge(written);
  merged.merge(written);
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "metrics writes and merges allocated " << (after - before) << " times";
  EXPECT_EQ(merged.size(), telemetry::kMetricCount);
  EXPECT_EQ(merged.histograms().size(), telemetry::kHistCount);
  EXPECT_DOUBLE_EQ(merged.value("sim.syscalls"), 2.0);
}

TEST(HotpathAllocation, ReadaheadOverRegisteredFilesIsAllocationFree) {
  Readahead ra;
  ra.reserve_files(64);
  const std::uint64_t before = allocation_count();
  for (std::uint64_t i = 0; i < 10000; ++i) {
    const trace::FileId f{static_cast<std::uint32_t>(i % 64)};
    ra.on_read(f, (i % 7) * kPageSize, kPageSize);
    ra.on_read(f, (i % 7 + 1) * kPageSize, kPageSize);
    ra.forget(f);
  }
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "10^4 read/forget cycles allocated " << (after - before) << " times";
}

/// Allocations of constructing and starting a disk-only Simulator on the
/// bundle, and of its step loop.
struct SetupAndLoop {
  std::uint64_t setup = 0;
  std::uint64_t loop = 0;
};

SetupAndLoop count_simulator(const workloads::ScenarioBundle& bundle) {
  policies::DiskOnlyPolicy policy;
  SetupAndLoop n;
  std::uint64_t before = allocation_count();
  sim::Simulator sim(sim::SimConfig{}, bundle.programs, policy);
  sim.start();
  n.setup = allocation_count() - before;
  before = allocation_count();
  while (sim.step()) {
  }
  n.loop = allocation_count() - before;
  sim.finish();
  return n;
}

TEST(HotpathAllocation, SimulatorSetupDoesNotAllocatePerFile) {
  // The compiled set fixes the file table, page index and layout sizes, so
  // setup allocates flat arrays, not one node per file.
  const auto grep_make = workloads::scenario_grep_make(1);
  const auto acroread = workloads::scenario_stale_acroread(
      1, workloads::ScenarioTuning{.workload_scale = 0.15});
  ASSERT_EQ(grep_make.programs[0].compiled->set()->file_count(), 2157u);
  ASSERT_EQ(acroread.programs[0].compiled->set()->file_count(), 2u);
  const SetupAndLoop many = count_simulator(grep_make);
  const SetupAndLoop few = count_simulator(acroread);
  EXPECT_EQ(many.setup, few.setup);
  // What the loop still allocates is scratch vectors reaching their
  // high-water mark.
  EXPECT_LT(many.loop, 100u);
}

TEST(HotpathAllocation, ConstructionAllocatesOnlyFixedStructures) {
  // Sanity check that the counter works at all: construction must allocate
  // (the slot arrays).
  const std::uint64_t before = allocation_count();
  BufferCache cache;
  EXPECT_GT(allocation_count(), before);
}

}  // namespace
}  // namespace flexfetch::os
