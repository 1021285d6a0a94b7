#include "os/file_layout.hpp"

#include "common/error.hpp"

namespace flexfetch::os {

FileLayout::FileLayout(Bytes capacity, std::uint64_t seed, Bytes min_gap,
                       Bytes max_gap)
    : capacity_(capacity), min_gap_(min_gap), max_gap_(max_gap), rng_(seed) {
  FF_REQUIRE(capacity > Bytes{}, "file layout: zero capacity");
  FF_REQUIRE(min_gap <= max_gap, "file layout: min_gap > max_gap");
}

void FileLayout::place(const trace::CompiledSet& set) {
  FF_REQUIRE(files_.empty(), "file layout: a set is placed on a fresh layout only");
  ids_.adopt(set);
  files_.resize(set.file_count());
  for (std::size_t p = 0; p < set.size(); ++p) {
    for (const auto& fe : set.program(p).file_extents()) ensure(fe.file, fe.size);
  }
}

void FileLayout::ensure(trace::FileId file, Bytes size) {
  // next_free_ and every file's start + extent stay <= capacity_, so each
  // difference below is non-negative and no comparison can wrap.
  Placement& f = files_[index_of(file)];
  if (f.start != kUnplaced) {
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
  f.start = next_free_ + gap;
  f.extent = size;
  next_free_ = f.start + size;
  ++placed_;
}

trace::FileId FileLayout::ensure(trace::Inode inode, Bytes size) {
  const trace::FileId file = ids_.add(inode);
  if (index_of(file) == files_.size()) files_.emplace_back();
  ensure(file, size);
  return file;
}

void FileLayout::place_all(std::span<const trace::FileExtent> extents) {
  for (const auto& fe : extents) ensure(fe.inode, fe.size);
}

bool FileLayout::contains(trace::Inode inode) const {
  const auto file = ids_.find(inode);
  return file && files_[index_of(*file)].start != kUnplaced;
}

Bytes FileLayout::extent_of(trace::Inode inode) const {
  const auto file = ids_.find(inode);
  return file ? extent_of(*file) : Bytes{};
}

Bytes FileLayout::lba(trace::FileId file, Bytes offset) const {
  const Placement& f = files_[index_of(file)];
  FF_REQUIRE(f.start != kUnplaced, "file layout: unknown inode");
  return f.start + offset;
}

Bytes FileLayout::lba(trace::Inode inode, Bytes offset) const {
  const auto file = ids_.find(inode);
  FF_REQUIRE(file.has_value(), "file layout: unknown inode");
  return lba(*file, offset);
}

}  // namespace flexfetch::os
