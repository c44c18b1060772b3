// Exporters: Prometheus text format and JSON-lines over the observability
// state (metrics registry, flight recorder, time-series store).
//
// Everything here is deterministic and locale-stable: iteration orders are
// the sorted orders the sources already guarantee, and every number is
// formatted with std::to_chars (shortest round-trip form), never the
// locale-sensitive iostream/printf paths — the same rule the plan-cache
// fingerprints follow. Two identical runs therefore produce byte-identical
// exports, which is what lets CI diff them like the BENCH_*.json artifacts.
//
// Formats:
//  * export_prometheus: one `# TYPE` line plus samples per metric, names
//    sanitized to the Prometheus charset ("sched.wait_s" ->
//    "gpupipe_sched_wait_s"), histograms as cumulative `_bucket{le="..."}`
//    rows with `_sum`/`_count`.
//  * export_events_jsonl: one JSON object per flight-recorder event with
//    kind-specific field names (the schema table lives in
//    docs/observability.md).
//  * export_series_jsonl: one JSON object per retained sample point,
//    series in name order, points oldest-first.
//  * export_spans_jsonl: one JSON object per retained span of one device's
//    trace, in recording order, keyed by the job's trace id.
#pragma once

#include <charconv>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>

#include "common/flight_recorder.hpp"
#include "common/metrics.hpp"
#include "core/timeseries.hpp"
#include "sim/trace.hpp"

namespace gpupipe::telemetry {

/// Shortest round-trip decimal form of `v`, independent of the C locale.
inline std::string format_double(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

/// Maps a registry metric name onto the Prometheus charset [a-zA-Z0-9_:]
/// and prepends `prefix` ("sched.dev0.util" -> "gpupipe_sched_dev0_util").
inline std::string prometheus_name(std::string_view name,
                                   std::string_view prefix = "gpupipe_") {
  std::string out;
  out.reserve(prefix.size() + name.size());
  out += prefix;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

/// Prometheus text exposition format (version 0.0.4) of the registry.
inline void export_prometheus(std::ostream& os, const Registry& reg,
                              std::string_view prefix = "gpupipe_") {
  for (const auto& [name, c] : reg.counters()) {
    const std::string n = prometheus_name(name, prefix);
    os << "# TYPE " << n << " counter\n" << n << " " << c.value() << "\n";
  }
  for (const auto& [name, g] : reg.gauges()) {
    const std::string n = prometheus_name(name, prefix);
    os << "# TYPE " << n << " gauge\n" << n << " " << format_double(g.value()) << "\n";
  }
  for (const auto& [name, h] : reg.histograms()) {
    const std::string n = prometheus_name(name, prefix);
    os << "# TYPE " << n << " histogram\n";
    std::int64_t cumulative = 0;
    for (std::size_t i = 0; i < h.buckets().size(); ++i) {
      cumulative += h.buckets()[i];
      os << n << "_bucket{le=\"";
      if (i < h.bounds().size())
        os << format_double(h.bounds()[i]);
      else
        os << "+Inf";
      os << "\"} " << cumulative << "\n";
    }
    os << n << "_sum " << format_double(h.sum()) << "\n";
    os << n << "_count " << h.count() << "\n";
  }
}

/// One JSON-lines object per flight-recorder event, oldest first.
inline void export_events_jsonl(std::ostream& os, const FlightRecorder& rec) {
  for (const FlightEvent& ev : rec.events()) {
    os << "{\"t\":" << format_double(ev.time) << ",\"event\":\"" << to_string(ev.kind)
       << "\"";
    if (ev.trace_id >= 0) os << ",\"trace\":" << ev.trace_id;
    if (ev.job >= 0) os << ",\"job\":" << ev.job;
    if (ev.device >= 0) os << ",\"dev\":" << ev.device;
    switch (ev.kind) {
      case FlightEventKind::Enqueue:
      case FlightEventKind::Backpressure: break;
      case FlightEventKind::Admit:
        os << ",\"footprint\":" << ev.a << ",\"chunk\":" << ev.b;
        break;
      case FlightEventKind::Shrink:
        os << ",\"chunk\":" << ev.a << ",\"streams\":" << ev.b;
        break;
      case FlightEventKind::Reject:
        os << ",\"reason\":\"" << reject_reason(ev.a) << "\"";
        break;
      case FlightEventKind::Backoff:
        os << ",\"attempt\":" << ev.a << ",\"delay_ns\":" << ev.b;
        break;
      case FlightEventKind::QueueWake: os << ",\"woken\":" << ev.a; break;
      case FlightEventKind::Complete: os << ",\"service_ns\":" << ev.a; break;
      case FlightEventKind::DeadlineMiss: os << ",\"late_ns\":" << ev.a; break;
      case FlightEventKind::DiskHit: os << ",\"bytes\":" << ev.a; break;
      case FlightEventKind::DiskCorrupt: break;
      case FlightEventKind::WatchdogTrip:
        os << ",\"reason\":\"" << trip_reason(ev.a) << "\",\"value\":" << ev.b;
        break;
      case FlightEventKind::Shard:
        os << ",\"devices\":" << ev.a << ",\"halo_bytes\":" << ev.b;
        break;
      case FlightEventKind::Reshard:
        os << ",\"devices\":" << ev.a << ",\"remaining\":" << ev.b;
        break;
      case FlightEventKind::P2pXfer:
        os << ",\"bytes\":" << ev.a << ",\"src\":" << ev.b;
        break;
      case FlightEventKind::Stitch:
        os << ",\"bytes\":" << ev.a << ",\"producer\":" << ev.b;
        break;
    }
    os << "}\n";
  }
}

/// One JSON-lines object per retained time-series point (series in name
/// order, points oldest-first).
inline void export_series_jsonl(std::ostream& os, const TimeSeriesStore& store) {
  for (const auto& [name, series] : store.all()) {
    for (const TimeSeries::Point& p : series.points())
      os << "{\"series\":\"" << name << "\",\"t\":" << format_double(p.t)
         << ",\"v\":" << format_double(p.v) << "}\n";
  }
}

/// One JSON-lines object per retained span of device `dev`'s trace, in
/// recording order. `trace` (the job's trace id) and `node` (the plan node)
/// are -1 for work outside a job or a plan.
inline void export_spans_jsonl(std::ostream& os, const sim::Trace& t, int dev) {
  for (const sim::Span& s : t.spans())
    os << "{\"dev\":" << dev << ",\"trace\":" << s.trace << ",\"node\":" << s.node
       << ",\"kind\":\"" << sim::to_string(s.kind) << "\",\"lane\":\""
       << sim::json_escape(t.lane(s)) << "\",\"label\":\"" << sim::json_escape(t.label(s))
       << "\",\"start\":" << format_double(s.start) << ",\"end\":" << format_double(s.end)
       << ",\"bytes\":" << s.bytes << "}\n";
}

}  // namespace gpupipe::telemetry
