#include "os/vfs.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace flexfetch::os {

Bytes ReadPlan::bytes_to_fetch() const {
  Bytes total = Bytes{0};
  for (const auto& f : fetches) total += f.size();
  return total;
}

void ReadPlan::reset() {
  fetches.clear();
  evicted_dirty.clear();
  pages_demanded = 0;
  pages_hit = 0;
}

void WritePlan::reset() {
  evicted_dirty.clear();
  pages_dirtied = 0;
}

Vfs::Vfs(VfsConfig config)
    : cache_(config.cache),
      readahead_(config.readahead),
      writeback_(config.writeback) {}

void Vfs::register_files(const trace::CompiledSet& set) {
  cache_.register_files(set);
  readahead_.reserve_files(set.file_count());
}

void Vfs::plan_read(const trace::SyscallRecord& r, trace::FileId file,
                    Seconds now, Bytes file_extent, std::uint64_t demand_first,
                    std::uint64_t demand_end, ReadPlan& plan) {
  FF_REQUIRE(r.op == trace::OpType::kRead, "plan_read: not a read record");
  plan.reset();

  const PageRange want = readahead_.on_read(file, r.offset, r.size);
  plan.pages_demanded = demand_end - demand_first;

  // Prefetch stops at end-of-file; demand is always honoured.
  std::uint64_t want_end = want.end_page();
  if (file_extent > Bytes{}) {
    want_end = std::max(demand_end,
                        std::min(want_end, page_end_index(Bytes{}, file_extent)));
  }
  // Readahead pages do not count as application lookups. Misses are filled
  // (evicted dirty pages land in the plan's buffer) and become fetch runs.
  plan.pages_hit = cache_.read_range(file, want.first_page, demand_first, demand_end,
                                     want_end, now, plan.evicted_dirty, &plan.fetches);
}

void Vfs::plan_read(const trace::SyscallRecord& r, Seconds now,
                    Bytes file_extent, std::uint64_t demand_first,
                    std::uint64_t demand_end, ReadPlan& plan) {
  plan_read(r, cache_.file(r.inode), now, file_extent, demand_first, demand_end,
            plan);
}

ReadPlan Vfs::plan_read(const trace::SyscallRecord& r, Seconds now,
                        Bytes file_extent) {
  ReadPlan plan;
  plan_read(r, now, file_extent, page_index(r.offset),
            page_end_index(r.offset, r.size), plan);
  return plan;
}

void Vfs::plan_write(const trace::SyscallRecord& r, trace::FileId file,
                     Seconds now, std::uint64_t first, std::uint64_t end,
                     WritePlan& plan) {
  FF_REQUIRE(r.op == trace::OpType::kWrite, "plan_write: not a write record");
  plan.reset();
  cache_.write_range(file, first, end, now, plan.evicted_dirty);
  plan.pages_dirtied = end > first ? end - first : 0;
}

void Vfs::plan_write(const trace::SyscallRecord& r, Seconds now,
                     std::uint64_t first, std::uint64_t end, WritePlan& plan) {
  plan_write(r, cache_.file(r.inode), now, first, end, plan);
}

WritePlan Vfs::plan_write(const trace::SyscallRecord& r, Seconds now) {
  WritePlan plan;
  plan_write(r, now, page_index(r.offset), page_end_index(r.offset, r.size),
             plan);
  return plan;
}

void Vfs::select_writeback(Seconds now, bool device_active,
                           std::vector<DirtyPage>& out) const {
  writeback_.select_flush(cache_, now, device_active, out);
}

std::vector<DirtyPage> Vfs::select_writeback(Seconds now,
                                             bool device_active) const {
  return writeback_.select_flush(cache_, now, device_active);
}

void Vfs::complete_writeback(const std::vector<DirtyPage>& pages) {
  for (const auto& d : pages) cache_.mark_clean(d.file, d.page.index);
}

void Vfs::coalesce(const std::vector<DirtyPage>& pages, std::vector<PageRange>& out) {
  out.clear();
  for (const DirtyPage& d : pages) {
    if (!out.empty() && out.back().file == d.file &&
        out.back().end_page() == d.page.index) {
      ++out.back().page_count;
    } else {
      out.push_back(PageRange{.inode = d.page.inode, .first_page = d.page.index,
                              .page_count = 1, .file = d.file});
    }
  }
}

bool Vfs::range_cached(Inode inode, Bytes offset, Bytes size) const {
  return range_cached_pages(inode, page_index(offset),
                            page_end_index(offset, size));
}

bool Vfs::range_cached_pages(Inode inode, std::uint64_t first_page,
                             std::uint64_t end_page) const {
  return cache_.contains_range(inode, first_page, end_page);
}

}  // namespace flexfetch::os
