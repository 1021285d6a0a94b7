// Trace exporter: Chrome trace_event JSON (chrome://tracing, Perfetto).
#pragma once

#include <iosfwd>
#include <span>

#include "telemetry/event.hpp"
#include "telemetry/metrics.hpp"

namespace flexfetch::telemetry {

/// Writes the events as a Chrome trace_event JSON object (the "JSON Object
/// Format": {"traceEvents": [...], ...}), loadable by chrome://tracing and
/// ui.perfetto.dev. Timestamps are converted from simulated seconds to the
/// format's microseconds. Metrics, when given, ride along in "otherData".
/// Output is deterministic: events are written in emission (seq) order and
/// metrics in sorted-name order.
void write_chrome_trace(std::ostream& os, std::span<const TraceEvent> events,
                        std::uint64_t dropped = 0,
                        const MetricsRegistry* metrics = nullptr);

}  // namespace flexfetch::telemetry
