// Page identity for the buffer-cache substrate.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>

#include "common/units.hpp"
#include "trace/record.hpp"

namespace flexfetch::os {

using trace::Inode;

/// Identifies one 4 KiB page of one file.
struct PageId {
  Inode inode = 0;
  std::uint64_t index = 0;  ///< Page number within the file.

  auto operator<=>(const PageId&) const = default;

  Bytes offset() const { return index * kPageSize; }
};

struct PageIdHash {
  std::size_t operator()(const PageId& p) const {
    // 64-bit mix of the two fields (splitmix-style finalizer).
    std::uint64_t z = p.inode * 0x9e3779b97f4a7c15ULL + p.index;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(z ^ (z >> 31));
  }
};

/// A contiguous page range of one file: a range the kernel wants resident,
/// a run of cache misses to fetch, or a run of dirty pages to write back.
struct PageRange {
  Inode inode = 0;
  std::uint64_t first_page = 0;
  std::uint64_t page_count = 0;
  /// The file's dense id in the cache that planned the range.
  trace::FileId file{};

  std::uint64_t end_page() const { return first_page + page_count; }
  Bytes offset() const { return first_page * kPageSize; }
  Bytes size() const { return page_count * kPageSize; }
};

/// First page index covering byte `offset`.
constexpr std::uint64_t page_index(Bytes offset) { return offset / kPageSize; }

/// Index one past the last page covering [offset, offset+size).
constexpr std::uint64_t page_end_index(Bytes offset, Bytes size) {
  return size == Bytes{} ? page_index(offset)
                         : (offset + size - Bytes{1}) / kPageSize + 1;
}

}  // namespace flexfetch::os
