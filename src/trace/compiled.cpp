#include "trace/compiled.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace flexfetch::trace {

namespace {

// Page math mirrors os/page.hpp (same kPageSize, same formulas); the os
// layer depends on trace, so the helpers cannot be included from here.
constexpr std::uint64_t page_of(Bytes offset) { return offset / kPageSize; }

constexpr std::uint64_t page_end_of(Bytes offset, Bytes size) {
  return size == Bytes{} ? page_of(offset)
                         : (offset + size - Bytes{1}) / kPageSize + 1;
}

constexpr std::uint32_t kNoFile = 0xffffffffu;

/// The home cell of `inode` in a table of `mask` + 1 cells (splitmix64's
/// finalizer, so clustered inode numbers spread out).
std::size_t home_cell(Inode inode, std::size_t mask) {
  std::uint64_t z = inode + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<std::size_t>(z ^ (z >> 31)) & mask;
}

/// Appends the inodes of `trace`'s records (runs of one inode once each).
void collect_inodes(const Trace& trace, std::vector<Inode>& out) {
  for (const SyscallRecord& r : trace) {
    if (out.empty() || out.back() != r.inode) out.push_back(r.inode);
  }
}

void sort_unique(std::vector<Inode>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

std::vector<Inode> own_inodes(const Trace& trace) {
  std::vector<Inode> inodes;
  collect_inodes(trace, inodes);
  sort_unique(inodes);
  return inodes;
}

}  // namespace

CompiledTrace::CompiledTrace(const Trace& trace)
    : CompiledTrace(trace, own_inodes(trace), nullptr) {}

CompiledTrace::CompiledTrace(const Trace& trace, std::span<const Inode> inodes,
                             const CompiledSet* set)
    : records_(trace.shared_records()), set_(set) {
  const std::size_t n = trace.size();
  think_.resize(n, Seconds{});
  first_page_.resize(n, 0);
  end_page_.resize(n, 0);
  file_.resize(n);
  start_time_ = trace.start_time();

  std::vector<Bytes> extent(inodes.size(), Bytes{0});
  std::vector<std::uint8_t> touched(inodes.size(), 0);
  std::size_t id = 0;  // Records run on one file: try the last id first.
  for (std::size_t i = 0; i < n; ++i) {
    const SyscallRecord& r = trace[i];
    if (i > 0) {
      const SyscallRecord& prev = trace[i - 1];
      const Seconds gap = r.timestamp - (prev.timestamp + prev.duration);
      think_[i] = std::max(Seconds{}, gap);
    }
    if (inodes[id] != r.inode) {
      id = static_cast<std::size_t>(
          std::lower_bound(inodes.begin(), inodes.end(), r.inode) - inodes.begin());
    }
    file_[i] = FileId{static_cast<std::uint32_t>(id)};
    first_page_[i] = page_of(r.offset);
    if (r.is_data_transfer()) {
      end_page_[i] = page_end_of(r.offset, r.size);
      ++data_transfers_;
      extent[id] = std::max(extent[id], r.end_offset());
      touched[id] = 1;
    } else {
      end_page_[i] = first_page_[i];
    }
  }
  for (std::size_t f = 0; f < inodes.size(); ++f) {
    if (touched[f] == 0) continue;
    file_extents_.push_back(FileExtent{.inode = inodes[f],
                                       .file = FileId{static_cast<std::uint32_t>(f)},
                                       .size = extent[f]});
  }
}

std::shared_ptr<const CompiledSet> CompiledSet::compile(
    std::span<const Member> members) {
  std::shared_ptr<CompiledSet> set(new CompiledSet());
  std::vector<Inode>& inodes = set->inodes_;
  for (const Member& m : members) collect_inodes(*m.trace, inodes);
  sort_unique(inodes);
  FF_REQUIRE(inodes.size() < std::size_t{kNoFile},
             "compiled set: too many files for 32-bit file ids");

  const std::size_t files = inodes.size();
  std::size_t cells = 2;
  while (cells < 2 * files) cells *= 2;
  set->by_inode_.assign(cells, kNoFile);
  for (std::size_t f = 0; f < files; ++f) {
    std::size_t c = home_cell(inodes[f], cells - 1);
    while (set->by_inode_[c] != kNoFile) c = (c + 1) & (cells - 1);
    set->by_inode_[c] = static_cast<std::uint32_t>(f);
  }
  std::vector<Bytes> extents(files, Bytes{0});
  set->pinned_.assign(files, 0);
  set->programs_.reserve(members.size());
  for (const Member& m : members) {
    set->programs_.push_back(CompiledTrace(*m.trace, inodes, set.get()));
    for (const FileExtent& fe : set->programs_.back().file_extents()) {
      Bytes& e = extents[index_of(fe.file)];
      e = std::max(e, fe.size);
      if (m.disk_pinned) set->pinned_[index_of(fe.file)] = 1;
    }
  }

  // Positions in the page index stay below 0xffffffff, the cache's null.
  set->spans_.reserve(files);
  std::uint64_t base = 0;
  for (std::size_t f = 0; f < files; ++f) {
    const std::uint64_t pages = page_end_of(Bytes{}, extents[f]);
    FF_REQUIRE(pages < 0xffffffffu - base,
               "compiled set: page index too large for 32-bit positions");
    set->spans_.push_back(PageSpan{.inode = inodes[f],
                                   .base = static_cast<std::uint32_t>(base),
                                   .pages = static_cast<std::uint32_t>(pages)});
    base += pages;
  }
  set->total_pages_ = static_cast<std::uint32_t>(base);
  return set;
}

std::optional<FileId> CompiledSet::find(Inode inode) const {
  // At most half the cells are taken, so every probe sequence ends.
  const std::size_t mask = by_inode_.size() - 1;
  for (std::size_t c = home_cell(inode, mask);; c = (c + 1) & mask) {
    const std::uint32_t f = by_inode_[c];
    if (f == kNoFile) return std::nullopt;
    if (inodes_[f] == inode) return FileId{f};
  }
}

namespace {

bool inode_below(const std::pair<Inode, FileId>& entry, Inode inode) {
  return entry.first < inode;
}

}  // namespace

void FileIds::adopt(const CompiledSet& set) {
  FF_REQUIRE(set_ == nullptr && others_.empty(),
             "file ids: a set is adopted before any other file");
  set_ = &set;
}

std::optional<FileId> FileIds::find(Inode inode) const {
  if (memo_ && memo_inode_ == inode) return memo_;
  std::optional<FileId> id = set_ != nullptr ? set_->find(inode) : std::nullopt;
  if (!id) {
    const auto it = std::lower_bound(others_.begin(), others_.end(), inode, inode_below);
    if (it == others_.end() || it->first != inode) return std::nullopt;
    id = it->second;
  }
  memo_inode_ = inode;
  memo_ = id;
  return id;
}

FileId FileIds::add(Inode inode) {
  if (const auto known = find(inode)) return *known;
  const FileId id{static_cast<std::uint32_t>(size())};
  others_.insert(std::lower_bound(others_.begin(), others_.end(), inode, inode_below),
                 {inode, id});
  return id;
}

std::size_t FileIds::size() const {
  return (set_ != nullptr ? set_->file_count() : 0) + others_.size();
}

}  // namespace flexfetch::trace
