// In-memory span recorder for the traced run.
//
// A span is one timed call from the benchmark into a layer: its name,
// start and end (steady clock, ns), the enclosing span on the same thread
// and the task it belongs to. Each thread appends to its own buffer, so
// recording takes no lock; buffers are owned by the process-wide recorder
// and outlive the threads that filled them. Spans are written out once,
// at exit, together with each name's self time (its duration minus the
// part covered by its direct children).
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

/// Aggregate of every span with one name.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// Records one span from construction to destruction on this thread.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::uint64_t task);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void* buffer_;
  std::int32_t index_;
};

/// Totals per span name over everything recorded so far.
std::map<std::string, SpanTotals> span_totals();

/// Totals of one name (zero if never recorded).
SpanTotals span_totals(const std::string& name);

/// Writes every span and the per-name totals as JSON to `path`.
/// Returns false if the file could not be written.
bool write_spans(const std::string& path, const std::string& workload,
                 std::uint64_t seed);

}  // namespace perfbench
