#ifndef SLIME4REC_OBSERVABILITY_EXPORT_H_
#define SLIME4REC_OBSERVABILITY_EXPORT_H_

#include <string>
#include <string_view>
#include <vector>

#include "observability/metrics.h"
#include "observability/trace.h"

namespace slime {
namespace obs {

/// Exporters for the two audiences of slime::obs data:
///  - machines: JSONL — one self-describing JSON object per line, every
///    line carrying a leading `"type"` field ("counter", "gauge",
///    "histogram", "trace", plus "epoch"/"rollback"/"fit_summary" from
///    telemetry.h), so a consumer can stream-filter with grep/jq without
///    parsing a document. See docs/OBSERVABILITY.md for the schema.
///  - humans: fixed-width tables via bench::TablePrinter, matching the
///    bench binaries' console style.

/// Escapes a string for embedding inside a JSON string literal (quotes,
/// backslash, control characters).
std::string JsonEscape(std::string_view s);

/// One JSONL line per metric:
///   {"type":"counter","name":"serving.requests","value":12}
///   {"type":"gauge","name":"serving.cost.full_nanos","value":800000}
///   {"type":"histogram","name":"serving.request_nanos","count":12,
///    "sum":...,"min":...,"max":...,"p50":...,"p95":...,"p99":...,
///    "bounds":[...],"buckets":[...]}
/// Metrics appear sorted by name within each kind (snapshot order), so the
/// export of a given snapshot is byte-identical across runs.
std::string SnapshotToJsonl(const MetricsSnapshot& snapshot);

/// One JSONL line per trace, spans inline in creation (pre-order) order:
///   {"type":"trace","id":3,"spans":[{"name":"request","start":0,
///    "end":9000,"parent":-1,"annotations":{"tier":"full"}},...]}
std::string TraceToJsonl(const Trace& trace);
std::string TracesToJsonl(const std::vector<Trace>& traces);

}  // namespace obs
}  // namespace slime

#endif  // SLIME4REC_OBSERVABILITY_EXPORT_H_
