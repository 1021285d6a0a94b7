#include "os/file_layout.hpp"

#include "common/error.hpp"

namespace flexfetch::os {

FileLayout::FileLayout(Bytes capacity, std::uint64_t seed, Bytes min_gap,
                       Bytes max_gap)
    : capacity_(capacity), min_gap_(min_gap), max_gap_(max_gap), rng_(seed) {
  FF_REQUIRE(capacity > Bytes{}, "file layout: zero capacity");
  FF_REQUIRE(min_gap <= max_gap, "file layout: min_gap > max_gap");
}

void FileLayout::ensure(trace::Inode inode, Bytes size) {
  // next_free_ and every file's start + extent stay <= capacity_, so each
  // difference below is non-negative and no comparison can wrap.
  auto it = files_.find(inode);
  if (it != files_.end()) {
    Placement& f = it->second;
    if (size > f.extent) {
      FF_REQUIRE(size <= capacity_ - f.start, "file layout: disk capacity exhausted");
      // Growing the extent keeps the file contiguous by model assumption;
      // if the growth collides with the next allocation we still treat the
      // address range as logically contiguous for seek purposes.
      if (f.start + size > next_free_) next_free_ = f.start + size;
      f.extent = size;
    }
    return;
  }
  const Bytes gap =
      min_gap_ + Bytes{rng_.uniform_int(0, (max_gap_ - min_gap_).value())};
  FF_REQUIRE(gap <= capacity_ - next_free_ && size <= capacity_ - next_free_ - gap,
             "file layout: disk capacity exhausted");
  const Bytes start = next_free_ + gap;
  files_.emplace(inode, Placement{.start = start, .extent = size});
  next_free_ = start + size;
}

void FileLayout::place_all(const std::map<trace::Inode, Bytes>& extents) {
  for (const auto& [inode, size] : extents) ensure(inode, size);
}

bool FileLayout::contains(trace::Inode inode) const {
  return files_.contains(inode);
}

Bytes FileLayout::extent_of(trace::Inode inode) const {
  auto it = files_.find(inode);
  return it == files_.end() ? Bytes{} : it->second.extent;
}

Bytes FileLayout::lba(trace::Inode inode, Bytes offset) const {
  auto it = files_.find(inode);
  FF_REQUIRE(it != files_.end(), "file layout: unknown inode");
  return it->second.start + offset;
}

}  // namespace flexfetch::os
