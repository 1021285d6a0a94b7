// Pre-compiled trace: flat per-record arrays derived once from a Trace so
// the simulator's event loop and the estimator's shadow replay stop
// re-deriving them per event.
//
// The compilation lowers each trace into structure-of-arrays form:
//   * think times  — closed-loop gap before record i (traced inter-call
//     distance minus the traced service duration of record i-1),
//   * page spans   — first/end page index of each data transfer,
//   * file extents — per-inode maximum end offset; its keys are the files
//     the trace touches (disk layout placement, page-index sizing).
// All of these are pure functions of the trace, so sharing one CompiledTrace
// across simulations (e.g. every cell of a sweep grid) is safe and changes
// no simulated number.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "trace/trace.hpp"

namespace flexfetch::trace {

class CompiledTrace {
 public:
  CompiledTrace() = default;
  explicit CompiledTrace(const Trace& trace);

  std::size_t size() const { return think_.size(); }
  bool empty() const { return think_.empty(); }

  /// Closed-loop think time before record i (0 for the first record).
  Seconds think(std::size_t i) const { return think_[i]; }

  /// Page span of record i: [first_page(i), end_page(i)). Zero-width for
  /// non-transfer records.
  std::uint64_t first_page(std::size_t i) const { return first_page_[i]; }
  std::uint64_t end_page(std::size_t i) const { return end_page_[i]; }

  Seconds start_time() const { return start_time_; }

  /// Number of read/write records — a reserve hint for request logs.
  std::size_t data_transfers() const { return data_transfers_; }

  const std::map<Inode, Bytes>& file_extents() const { return file_extents_; }

 private:
  std::vector<Seconds> think_;
  std::vector<std::uint64_t> first_page_;
  std::vector<std::uint64_t> end_page_;
  std::size_t data_transfers_ = 0;
  Seconds start_time_ = Seconds{0.0};
  std::map<Inode, Bytes> file_extents_;
};

}  // namespace flexfetch::trace
