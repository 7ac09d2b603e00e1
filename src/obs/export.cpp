#include "obs/export.hpp"

#include <cmath>
#include <cstdio>

namespace sdt::obs {

namespace {

json::Value labelsToJson(const Labels& labels) {
  json::Object obj;
  for (const auto& [k, v] : labels) obj[k] = v;
  return obj;
}

/// Stable number rendering for Prometheus lines (mirrors common/json's
/// integer-when-exact rule so both exporters agree on what a count looks
/// like).
std::string renderNumber(double v) {
  char buf[64];
  if (std::floor(v) == v && std::abs(v) < 9.0e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

std::string renderLabels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k + "=\"" + v + "\"";
  }
  out += '}';
  return out;
}

}  // namespace

json::Value metricsToJson(const Registry& registry) {
  registry.collect();
  json::Object root;
  registry.visit([&root](const std::string& name, const Family& family) {
    json::Object fam;
    fam["kind"] = instrumentKindName(family.kind);
    if (!family.help.empty()) fam["help"] = family.help;
    json::Array values;
    for (const auto& [key, cellRef] : family.cells) {
      (void)key;
      const Family::Cell& c = cellRef;
      json::Object v;
      v["labels"] = labelsToJson(c.labels);
      switch (family.kind) {
        case InstrumentKind::kCounter:
          v["value"] = static_cast<std::int64_t>(c.counter->value());
          break;
        case InstrumentKind::kGauge:
          v["value"] = c.gauge->value();
          break;
        case InstrumentKind::kSeries: {
          v["capacity"] = static_cast<std::int64_t>(c.series->capacity());
          v["recorded"] = static_cast<std::int64_t>(c.series->recorded());
          v["dropped"] = static_cast<std::int64_t>(c.series->dropped());
          json::Array samples;
          for (const auto& [t, val] : c.series->samples()) {
            samples.push_back(json::Array{json::Value(t), json::Value(val)});
          }
          v["samples"] = std::move(samples);
          break;
        }
      }
      values.push_back(std::move(v));
    }
    fam["values"] = std::move(values);
    root[name] = std::move(fam);
  });
  return root;
}

std::string metricsToPrometheus(const Registry& registry) {
  registry.collect();
  std::string out;
  registry.visit([&out](const std::string& name, const Family& family) {
    if (!family.help.empty()) out += "# HELP " + name + " " + family.help + "\n";
    const char* type = family.kind == InstrumentKind::kCounter ? "counter" : "gauge";
    out += "# TYPE " + name + " " + std::string(type) + "\n";
    for (const auto& [key, c] : family.cells) {
      (void)key;
      switch (family.kind) {
        case InstrumentKind::kCounter:
          out += name + renderLabels(c.labels) + " " +
                 renderNumber(static_cast<double>(c.counter->value())) + "\n";
          break;
        case InstrumentKind::kGauge:
          out += name + renderLabels(c.labels) + " " + renderNumber(c.gauge->value()) +
                 "\n";
          break;
        case InstrumentKind::kSeries: {
          const auto samples = c.series->samples();
          const double last = samples.empty() ? 0.0 : samples.back().second;
          out += name + renderLabels(c.labels) + " " + renderNumber(last) + "\n";
          out += name + "_dropped_total" + renderLabels(c.labels) + " " +
                 renderNumber(static_cast<double>(c.series->dropped())) + "\n";
          break;
        }
      }
    }
  });
  return out;
}

json::Value tracerToJson(const Tracer& tracer) {
  json::Array out;
  const auto spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    json::Object obj;
    obj["id"] = static_cast<std::int64_t>(i);
    obj["name"] = s.name;
    obj["parent"] =
        s.parent == kNoSpan ? json::Value(-1) : json::Value(static_cast<std::int64_t>(s.parent));
    obj["start"] = s.start;
    obj["end"] = s.end;
    obj["duration"] = s.duration();
    obj["closed"] = s.closed;
    json::Array attrs;
    for (const auto& [k, v] : s.attrs) {
      attrs.push_back(json::Array{json::Value(k), json::Value(v)});
    }
    obj["attrs"] = std::move(attrs);
    out.push_back(std::move(obj));
  }
  return out;
}

}  // namespace sdt::obs
