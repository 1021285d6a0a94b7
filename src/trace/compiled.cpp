#include "trace/compiled.hpp"

#include <algorithm>

namespace flexfetch::trace {

namespace {

// Page math mirrors os/page.hpp (same kPageSize, same formulas); the os
// layer depends on trace, so the helpers cannot be included from here.
constexpr std::uint64_t page_of(Bytes offset) { return offset / kPageSize; }

constexpr std::uint64_t page_end_of(Bytes offset, Bytes size) {
  return size == Bytes{} ? page_of(offset)
                         : (offset + size - Bytes{1}) / kPageSize + 1;
}

}  // namespace

CompiledTrace::CompiledTrace(const Trace& trace) {
  const std::size_t n = trace.size();
  think_.resize(n, Seconds{});
  first_page_.resize(n, 0);
  end_page_.resize(n, 0);
  start_time_ = trace.start_time();

  for (std::size_t i = 0; i < n; ++i) {
    const SyscallRecord& r = trace[i];
    if (i > 0) {
      const SyscallRecord& prev = trace[i - 1];
      const Seconds gap = r.timestamp - (prev.timestamp + prev.duration);
      think_[i] = std::max(Seconds{}, gap);
    }
    if (r.is_data_transfer()) {
      first_page_[i] = page_of(r.offset);
      end_page_[i] = page_end_of(r.offset, r.size);
      ++data_transfers_;
      Bytes& e = file_extents_[r.inode];
      e = std::max(e, r.end_offset());
    } else {
      first_page_[i] = page_of(r.offset);
      end_page_[i] = first_page_[i];
    }
  }
}

}  // namespace flexfetch::trace
