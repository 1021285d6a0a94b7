#include "os/readahead.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace flexfetch::os {

Readahead::Readahead(ReadaheadConfig config) : config_(config) {
  FF_REQUIRE(config.min_window_pages >= 1, "readahead: min window < 1 page");
  FF_REQUIRE(config.max_window_pages >= config.min_window_pages,
             "readahead: max window below min window");
}

void Readahead::reserve_files(std::size_t count) {
  if (streams_.size() < count) streams_.resize(count);
}

PageRange Readahead::on_read(trace::FileId file, Bytes offset, Bytes size) {
  FF_REQUIRE(size > Bytes{}, "readahead: zero-size read");
  const std::uint64_t first = page_index(offset);
  const std::uint64_t last_end = page_end_index(offset, size);
  const std::uint64_t demand = last_end - first;

  reserve_files(index_of(file) + 1);
  Stream& s = streams_[index_of(file)];
  // Sequential continuation: the read starts at or before the expected
  // next demanded page and does not end before it.
  const bool sequential =
      s.window != 0 && first <= s.next_demand && last_end >= s.next_demand;

  std::uint64_t want_end;
  if (sequential) {
    // Keep the already-prefetched area resident; when the demand closes in
    // on the prefetched edge (within half a window), issue the next ahead
    // window, doubling its size up to the 32-page / 128 KiB cap — the
    // two-window readahead of Section 3.1.
    want_end = std::max(last_end, s.prefetch_end);
    if (last_end + s.window / 2 >= s.prefetch_end) {
      s.window = std::min(s.window * 2, config_.max_window_pages);
      want_end = std::max(want_end, last_end + s.window);
    }
  } else {
    // Fresh or non-sequential access: restart with the minimum window.
    s.window = config_.min_window_pages;
    want_end = first + std::max(demand, config_.min_window_pages);
  }
  s.next_demand = last_end;
  s.prefetch_end = want_end;

  return PageRange{
      .first_page = first, .page_count = want_end - first, .file = file};
}

void Readahead::forget(trace::FileId file) {
  if (index_of(file) < streams_.size()) streams_[index_of(file)] = Stream{};
}

std::uint64_t Readahead::window_pages(trace::FileId file) const {
  const std::size_t f = index_of(file);
  return f < streams_.size() && streams_[f].window != 0 ? streams_[f].window
                                                        : config_.min_window_pages;
}

}  // namespace flexfetch::os
