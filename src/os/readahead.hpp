// Two-window sequential readahead — the paper's simulator "emulates ... the
// two-window readahead policy that prefetches up to 32 pages" (Section 3.1).
//
// Per open file stream we keep a current window and an ahead window. A read
// that continues the sequential stream grows the window (doubling, Linux
// style) up to 32 pages = 128 KiB; a non-sequential read resets it. The
// engine turns each application read into the page range the kernel would
// actually request from the device. Streams live in a flat array indexed by
// dense file id.
#pragma once

#include <cstdint>
#include <vector>

#include "os/page.hpp"

namespace flexfetch::os {

struct ReadaheadConfig {
  std::uint64_t min_window_pages = 4;   ///< Initial window (16 KiB).
  std::uint64_t max_window_pages = 32;  ///< Cap (128 KiB), per the paper.
};

class Readahead {
 public:
  explicit Readahead(ReadaheadConfig config = {});

  /// Makes room for files 0..count-1, so reading them never allocates.
  void reserve_files(std::size_t count);

  /// Computes the page range to make resident for a read of
  /// [offset, offset+size) in `file`, including the prefetch extension.
  /// Updates the per-file sequential-detection state. The range carries
  /// `file` and no inode.
  PageRange on_read(trace::FileId file, Bytes offset, Bytes size);

  /// Forgets per-file state (file closed): the stream reads as unknown.
  void forget(trace::FileId file);

  /// Current window size in pages for a file (min window if unknown).
  std::uint64_t window_pages(trace::FileId file) const;

 private:
  struct Stream {
    std::uint64_t next_demand = 0;   ///< Expected next demanded page.
    std::uint64_t prefetch_end = 0;  ///< End of the area already requested.
    std::uint64_t window = 0;        ///< Current ahead-window; 0 = unknown.
  };

  ReadaheadConfig config_;
  std::vector<Stream> streams_;  ///< By file id.
};

}  // namespace flexfetch::os
