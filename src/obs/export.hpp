// Exporters for the observability layer (obs/obs.hpp).
//
// Two renderings of the recorded data:
//   - tree_report(): indented text — per-rank span trees (nesting from the
//     `component:phase:subphase` names) followed by the counter/gauge
//     families,
//   - chrome_trace_json(): a chrome://tracing / Perfetto "traceEvents" JSON
//     document with one timeline row (tid) per simulated rank, "X" complete
//     events for spans, thread_name metadata, and merged counter totals under
//     a top-level "counters" key.
#pragma once

#include <string>

namespace ap3::obs {

/// Text report over every registered buffer with data.
std::string tree_report();

/// Chrome-trace JSON document over every registered buffer with data.
/// Buffers labeled with a simulated rank get tid == rank; unlabeled helper
/// threads (e.g. pool workers that only recorded counters) get high tids.
std::string chrome_trace_json();

/// Writes chrome_trace_json() to `path`; throws ap3::Error on I/O failure.
void write_chrome_trace(const std::string& path);

}  // namespace ap3::obs
