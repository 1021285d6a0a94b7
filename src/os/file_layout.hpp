// Maps file bytes to linear disk addresses.
//
// The paper lays traced files out sequentially on the disk "with a small
// random distance between files to simulate a real layout" (Section 3.2),
// and assumes sequential file data is contiguous on disk (FFS-style
// allocation, Section 2.1). This mapper reproduces that: files are placed in
// first-touch order, each followed by a random gap.
#pragma once

#include <map>
#include <unordered_map>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "trace/record.hpp"

namespace flexfetch::os {

class FileLayout {
 public:
  explicit FileLayout(Bytes capacity = 30 * kGiB, std::uint64_t seed = 42,
                      Bytes min_gap = 4 * kKiB, Bytes max_gap = 512 * kKiB);

  /// Places a file of `size` bytes at the next free position (no-op if the
  /// file is already placed with at least this extent; growing a file moves
  /// its tail allocation only in the trivial in-place case, otherwise the
  /// extent is simply extended — contiguity is an explicit model assumption).
  /// Throws ConfigError if the file would end past the disk's capacity.
  void ensure(trace::Inode inode, Bytes size);

  /// Places every file of a trace's extent map (in inode order).
  void place_all(const std::map<trace::Inode, Bytes>& extents);

  bool contains(trace::Inode inode) const;

  /// Linear byte address of (inode, offset). The file must be placed.
  Bytes lba(trace::Inode inode, Bytes offset) const;

  /// Known size of a file (0 if never placed).
  Bytes extent_of(trace::Inode inode) const;

  std::size_t file_count() const { return files_.size(); }
  Bytes bytes_allocated() const { return next_free_; }

 private:
  struct Placement { Bytes start, extent; };

  Bytes capacity_;
  Bytes min_gap_;
  Bytes max_gap_;
  Bytes next_free_ = Bytes{0};
  Rng rng_;
  std::unordered_map<trace::Inode, Placement> files_;
};

}  // namespace flexfetch::os
