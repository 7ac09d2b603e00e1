// Telemetry exporters: one machine-first (JSON, merged into BENCH_*.json
// reports and consumed by sdtctl --json), one ecosystem-first (Prometheus
// text exposition, scrape-able if the testbed ever runs behind a real
// HTTP endpoint). Both are pure functions of registry/tracer state and
// emit families sorted by (name, label set), so equal runs produce equal
// bytes — the property the determinism suite pins.
#pragma once

#include <string>

#include "common/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sdt::obs {

/// Run the registry's collectors, then render every family:
///   { "<family>": { "kind": ..., "help": ..., "values": [
///       {"labels": {...}, ...kind-specific fields...}, ... ] }, ... }
/// Counters and gauges export "value"; series "capacity"/"recorded"/
/// "dropped"/"samples" ([t, v] pairs in simulated-time order).
json::Value metricsToJson(const Registry& registry);

/// Prometheus text exposition format (# HELP / # TYPE + sample lines).
/// Ring series export their latest value as a gauge (Prometheus has no
/// native series type) plus a `_dropped_total` counter.
std::string metricsToPrometheus(const Registry& registry);

/// All spans in creation order:
///   [ {"id": i, "name": ..., "parent": id|-1, "start": ns, "end": ns,
///      "duration": ns, "closed": bool, "attrs": [[k, v], ...]}, ... ]
/// Attrs stay an ordered pair list (not an object): annotation order is
/// meaningful and keys may repeat (one "attempt" entry per retry).
json::Value tracerToJson(const Tracer& tracer);

}  // namespace sdt::obs
