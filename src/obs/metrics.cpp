#include "obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace sdt::obs {

RingSeries::RingSeries(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_);
}

void RingSeries::record(TimeNs at, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.emplace_back(at, value);
  } else {
    ring_[recorded_ % capacity_] = {at, value};
  }
  ++recorded_;
}

std::vector<std::pair<TimeNs, double>> RingSeries::samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<TimeNs, double>> out;
  out.reserve(ring_.size());
  if (recorded_ <= capacity_) {
    out = ring_;
  } else {
    const std::size_t head = recorded_ % capacity_;  // oldest sample
    for (std::size_t i = 0; i < capacity_; ++i) {
      out.push_back(ring_[(head + i) % capacity_]);
    }
  }
  return out;
}

std::uint64_t RingSeries::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

std::uint64_t RingSeries::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_ > capacity_ ? recorded_ - capacity_ : 0;
}

const char* instrumentKindName(InstrumentKind kind) {
  switch (kind) {
    case InstrumentKind::kCounter: return "counter";
    case InstrumentKind::kGauge: return "gauge";
    case InstrumentKind::kSeries: return "series";
  }
  return "?";
}

std::string labelKey(const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key;
  for (const auto& [k, v] : sorted) {
    if (!key.empty()) key += ',';
    key += k;
    key += '=';
    key += v;
  }
  return key;
}

Family::Cell& Registry::cell(const std::string& name, InstrumentKind kind,
                             const Labels& labels, const std::string& help,
                             std::size_t seriesCapacity) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [fit, created] = families_.try_emplace(name);
  Family& family = fit->second;
  if (created) {
    family.kind = kind;
    family.help = help;
    family.seriesCapacity = seriesCapacity;
  } else if (family.kind != kind) {
    throw std::logic_error("metric family '" + name + "' already registered as " +
                           instrumentKindName(family.kind));
  }
  Labels effective = labels;
  std::string key = labelKey(effective);
  if (family.cells.find(key) == family.cells.end() &&
      family.cells.size() >= cellLimit_) {
    // Family is full: fold this (new) label set into the shared overflow
    // cell so the map stops growing. Existing cells are unaffected.
    ++overflowCells_;
    effective = Labels{{"overflow", "true"}};
    key = labelKey(effective);
  }
  auto [cit, fresh] = family.cells.try_emplace(std::move(key));
  Family::Cell& c = cit->second;
  if (fresh) {
    c.labels = std::move(effective);
    std::sort(c.labels.begin(), c.labels.end());
    switch (kind) {
      case InstrumentKind::kCounter: c.counter = std::make_unique<Counter>(); break;
      case InstrumentKind::kGauge: c.gauge = std::make_unique<Gauge>(); break;
      case InstrumentKind::kSeries:
        c.series = std::make_unique<RingSeries>(family.seriesCapacity);
        break;
    }
  }
  return c;
}

Counter& Registry::counter(const std::string& name, const Labels& labels,
                           const std::string& help) {
  return *cell(name, InstrumentKind::kCounter, labels, help, 0).counter;
}

Gauge& Registry::gauge(const std::string& name, const Labels& labels,
                       const std::string& help) {
  return *cell(name, InstrumentKind::kGauge, labels, help, 0).gauge;
}

RingSeries& Registry::series(const std::string& name, std::size_t capacity,
                             const Labels& labels, const std::string& help) {
  return *cell(name, InstrumentKind::kSeries, labels, help, capacity).series;
}

void Registry::addCollector(std::function<void()> collector) {
  std::lock_guard<std::mutex> lock(mu_);
  collectors_.push_back(std::move(collector));
}

void Registry::collect() const {
  // Copy the hooks out so a collector may itself create instruments
  // (get-or-create re-enters the mutex).
  std::vector<std::function<void()>> hooks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    hooks = collectors_;
  }
  for (const auto& hook : hooks) hook();
}

void Registry::visit(
    const std::function<void(const std::string& name, const Family&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, family] : families_) fn(name, family);
}

void Registry::setCellLimitPerFamily(std::size_t limit) {
  std::lock_guard<std::mutex> lock(mu_);
  cellLimit_ = limit == 0 ? 1 : limit;
}

std::size_t Registry::cellLimitPerFamily() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cellLimit_;
}

std::uint64_t Registry::overflowCells() const {
  std::lock_guard<std::mutex> lock(mu_);
  return overflowCells_;
}

std::size_t Registry::cellCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [name, family] : families_) n += family.cells.size();
  return n;
}

std::size_t Registry::approxBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t bytes = 0;
  for (const auto& [name, family] : families_) {
    bytes += sizeof(Family) + name.capacity() + family.help.capacity();
    for (const auto& [key, c] : family.cells) {
      bytes += sizeof(Family::Cell) + key.capacity();
      for (const auto& [k, v] : c.labels) bytes += k.capacity() + v.capacity();
      if (c.counter) bytes += sizeof(Counter);
      if (c.gauge) bytes += sizeof(Gauge);
      if (c.series) {
        bytes += sizeof(RingSeries) +
                 c.series->capacity() * sizeof(std::pair<TimeNs, double>);
      }
    }
  }
  return bytes;
}

}  // namespace sdt::obs
