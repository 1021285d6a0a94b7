#include "spans.hpp"

#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

#include "common.hpp"

namespace perfbench {

namespace {

struct Span {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< Index in the same thread's buffer.
  std::uint64_t task = 0;
};

struct Buffer {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
  std::int32_t open = -1;  ///< Innermost open span, -1 at top level.
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<Buffer>> buffers;  // Guarded by mu.
};

Registry& registry() {
  static Registry r;
  return r;
}

Buffer& this_thread_buffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    Registry& r = registry();
    std::lock_guard lock(r.mu);
    r.buffers.push_back(std::make_unique<Buffer>());
    buffer = r.buffers.back().get();
    buffer->thread = static_cast<std::uint32_t>(r.buffers.size() - 1);
  }
  return *buffer;
}

/// Calls fn(buffer, span, self_ns) for every span. Call only while no
/// thread is recording.
template <typename Fn>
void for_each_span(Fn&& fn) {
  Registry& r = registry();
  std::lock_guard lock(r.mu);
  for (const auto& b : r.buffers) {
    std::vector<std::int64_t> child_ns(b->spans.size(), 0);
    for (const Span& s : b->spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (std::size_t i = 0; i < b->spans.size(); ++i) {
      const Span& s = b->spans[i];
      fn(*b, s, s.end_ns - s.start_ns - child_ns[i]);
    }
  }
}

}  // namespace

ScopedSpan::ScopedSpan(const char* name, std::uint64_t task) {
  Buffer& b = this_thread_buffer();
  index_ = static_cast<std::int32_t>(b.spans.size());
  b.spans.push_back(Span{name, now_ns(), 0, b.open, task});
  b.open = index_;
  buffer_ = &b;
}

ScopedSpan::~ScopedSpan() {
  auto& b = *static_cast<Buffer*>(buffer_);
  Span& s = b.spans[static_cast<std::size_t>(index_)];
  s.end_ns = now_ns();
  b.open = s.parent;
}

std::map<std::string, SpanTotals> span_totals() {
  std::map<std::string, SpanTotals> out;
  for_each_span([&](const Buffer&, const Span& s, std::int64_t self_ns) {
    SpanTotals& t = out[s.name];
    ++t.count;
    t.total_s += 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
    t.self_s += 1e-9 * static_cast<double>(self_ns);
  });
  return out;
}

SpanTotals span_totals(const std::string& name) {
  const auto all = span_totals();
  const auto it = all.find(name);
  return it == all.end() ? SpanTotals{} : it->second;
}

bool write_spans(const std::string& path, const std::string& workload,
                 std::uint64_t seed) {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
     << ",\n \"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", "
        "\"thread\", \"task\"],\n \"spans\": [";
  bool first = true;
  for_each_span([&](const Buffer& b, const Span& s, std::int64_t) {
    os << (first ? "\n  " : ",\n  ") << "[\"" << s.name << "\", " << s.start_ns
       << ", " << s.end_ns << ", " << s.parent << ", " << b.thread << ", "
       << s.task << "]";
    first = false;
  });
  os << "\n ],\n \"self_time\": {";
  first = true;
  for (const auto& [name, t] : span_totals()) {
    os << (first ? "\n  " : ",\n  ") << "\"" << name << "\": {\"count\": "
       << t.count << ", \"total_s\": " << t.total_s
       << ", \"self_s\": " << t.self_s << "}";
    first = false;
  }
  os << "\n }\n}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
