// Maps file bytes to linear disk addresses.
//
// The paper lays traced files out sequentially on the disk "with a small
// random distance between files to simulate a real layout" (Section 3.2),
// and assumes sequential file data is contiguous on disk (FFS-style
// allocation, Section 2.1). This mapper reproduces that: files are placed in
// first-touch order, each followed by a random gap.
//
// Placements live in a flat array indexed by dense file id. A layout that
// places a compiled set adopts the set's ids (0..F-1); any other inode
// (the inode-keyed calls below: a profile from another run, a test, a
// probe) gets the next free id when first placed, and draws its gap then.
#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "trace/compiled.hpp"
#include "trace/record.hpp"

namespace flexfetch::os {

class FileLayout {
 public:
  explicit FileLayout(Bytes capacity = 30 * kGiB, std::uint64_t seed = 42,
                      Bytes min_gap = 4 * kKiB, Bytes max_gap = 512 * kKiB);

  /// Adopts the set's file ids and places its files in the set's placement
  /// order: program by program, each program's files in ascending inode
  /// order at that program's extent. Call once, on a fresh layout; `set`
  /// must outlive the layout.
  void place(const trace::CompiledSet& set);

  /// Places a file of `size` bytes at the next free position (no-op if the
  /// file is already placed with at least this extent; growing a file moves
  /// its tail allocation only in the trivial in-place case, otherwise the
  /// extent is simply extended — contiguity is an explicit model assumption).
  /// Throws ConfigError if the file would end past the disk's capacity.
  void ensure(trace::FileId file, Bytes size);
  /// Inode form; returns the file's id.
  trace::FileId ensure(trace::Inode inode, Bytes size);

  /// Places every file of a trace's extent list, in list (inode) order.
  void place_all(std::span<const trace::FileExtent> extents);

  bool contains(trace::Inode inode) const;

  /// Linear byte address of (file, offset). The file must be placed.
  Bytes lba(trace::FileId file, Bytes offset) const;
  Bytes lba(trace::Inode inode, Bytes offset) const;

  /// Known size of a file (0 if never placed).
  Bytes extent_of(trace::FileId file) const { return files_[index_of(file)].extent; }
  Bytes extent_of(trace::Inode inode) const;

  std::size_t file_count() const { return placed_; }
  Bytes bytes_allocated() const { return next_free_; }

 private:
  static constexpr Bytes kUnplaced = Bytes{~std::uint64_t{0}};
  struct Placement {
    Bytes start = kUnplaced;
    Bytes extent = Bytes{0};
  };

  Bytes capacity_;
  Bytes min_gap_;
  Bytes max_gap_;
  Bytes next_free_ = Bytes{0};
  Rng rng_;
  std::size_t placed_ = 0;
  trace::FileIds ids_;
  std::vector<Placement> files_;  ///< By file id.
};

}  // namespace flexfetch::os
