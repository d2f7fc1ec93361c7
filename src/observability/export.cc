#include "observability/export.h"

#include <cinttypes>
#include <cstdio>

namespace slime {
namespace obs {
namespace {

void AppendInt(std::string* out, int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  *out += buf;
}

void AppendIntArray(std::string* out, const std::vector<int64_t>& values) {
  *out += '[';
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) *out += ',';
    AppendInt(out, values[i]);
  }
  *out += ']';
}

}  // namespace

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned char>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string SnapshotToJsonl(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const MetricValue& c : snapshot.counters) {
    out += "{\"type\":\"counter\",\"name\":\"";
    out += JsonEscape(c.name);
    out += "\",\"value\":";
    AppendInt(&out, c.value);
    out += "}\n";
  }
  for (const MetricValue& g : snapshot.gauges) {
    out += "{\"type\":\"gauge\",\"name\":\"";
    out += JsonEscape(g.name);
    out += "\",\"value\":";
    AppendInt(&out, g.value);
    out += "}\n";
  }
  for (const HistogramValue& h : snapshot.histograms) {
    out += "{\"type\":\"histogram\",\"name\":\"";
    out += JsonEscape(h.name);
    out += "\",\"count\":";
    AppendInt(&out, h.count);
    out += ",\"sum\":";
    AppendInt(&out, h.sum);
    out += ",\"min\":";
    AppendInt(&out, h.min);
    out += ",\"max\":";
    AppendInt(&out, h.max);
    out += ",\"p50\":";
    AppendInt(&out, h.p50);
    out += ",\"p95\":";
    AppendInt(&out, h.p95);
    out += ",\"p99\":";
    AppendInt(&out, h.p99);
    out += ",\"bounds\":";
    AppendIntArray(&out, h.bounds);
    out += ",\"buckets\":";
    AppendIntArray(&out, h.buckets);
    out += "}\n";
  }
  return out;
}

std::string TraceToJsonl(const Trace& trace) {
  std::string out = "{\"type\":\"trace\",\"id\":";
  AppendInt(&out, trace.id);
  out += ",\"spans\":[";
  for (size_t i = 0; i < trace.spans.size(); ++i) {
    const SpanRecord& s = trace.spans[i];
    if (i > 0) out += ',';
    out += "{\"name\":\"";
    out += JsonEscape(s.name);
    out += "\",\"start\":";
    AppendInt(&out, s.start_nanos);
    out += ",\"end\":";
    AppendInt(&out, s.end_nanos);
    out += ",\"parent\":";
    AppendInt(&out, s.parent);
    if (!s.annotations.empty()) {
      out += ",\"annotations\":{";
      for (size_t a = 0; a < s.annotations.size(); ++a) {
        if (a > 0) out += ',';
        out += '"';
        out += JsonEscape(s.annotations[a].first);
        out += "\":\"";
        out += JsonEscape(s.annotations[a].second);
        out += '"';
      }
      out += '}';
    }
    out += '}';
  }
  out += "]}\n";
  return out;
}

std::string TracesToJsonl(const std::vector<Trace>& traces) {
  std::string out;
  for (const Trace& t : traces) out += TraceToJsonl(t);
  return out;
}

}  // namespace obs
}  // namespace slime
