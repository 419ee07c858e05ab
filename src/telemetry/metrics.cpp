#include "telemetry/metrics.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <stdexcept>

#include "common/log.h"

namespace panic::telemetry {

const char* to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

// --- MetricsSnapshot ---

bool MetricsSnapshot::has(const std::string& name) const {
  return index_.find(name) != index_.end();
}

const MetricValue* MetricsSnapshot::find(const std::string& name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? nullptr : &entries_[it->second];
}

const MetricValue& MetricsSnapshot::at(const std::string& name) const {
  const MetricValue* v = find(name);
  if (v == nullptr) {
    throw std::out_of_range("MetricsSnapshot: no metric named '" + name +
                            "'");
  }
  return *v;
}

std::uint64_t MetricsSnapshot::counter(const std::string& name) const {
  return static_cast<std::uint64_t>(value(name));
}

double MetricsSnapshot::value(const std::string& name) const {
  const MetricValue* v = find(name);
  return v == nullptr ? 0.0 : v->value;
}

double MetricsSnapshot::sum(const std::string& prefix,
                            const std::string& suffix) const {
  double total = 0.0;
  for (const MetricValue& v : entries_) {
    if (v.name.size() < prefix.size() + suffix.size()) continue;
    if (v.name.compare(0, prefix.size(), prefix) != 0) continue;
    if (!suffix.empty() &&
        v.name.compare(v.name.size() - suffix.size(), suffix.size(),
                       suffix) != 0) {
      continue;
    }
    total += v.value;
  }
  return total;
}

MetricValue& MetricsSnapshot::upsert(const std::string& name) {
  const auto it = index_.find(name);
  if (it != index_.end()) return entries_[it->second];
  index_.emplace(name, entries_.size());
  entries_.emplace_back();
  entries_.back().name = name;
  return entries_.back();
}

namespace {
bool metric_values_equal(const MetricValue& a, const MetricValue& b) {
  return a.value == b.value && a.count == b.count && a.mean == b.mean &&
         a.min == b.min && a.max == b.max && a.p50 == b.p50 &&
         a.p90 == b.p90 && a.p99 == b.p99 && a.p999 == b.p999;
}

bool metric_value_is_zero(const MetricValue& v) {
  return v.value == 0.0 && v.count == 0;
}
}  // namespace

std::vector<std::string> MetricsSnapshot::diff_names(
    const MetricsSnapshot& other,
    const std::function<bool(const std::string&)>& exclude) const {
  std::vector<std::string> diff;
  for (const MetricValue& v : entries_) {
    if (exclude && exclude(v.name)) continue;
    const MetricValue* o = other.find(v.name);
    const bool same =
        o != nullptr ? metric_values_equal(v, *o) : metric_value_is_zero(v);
    if (!same) diff.push_back(v.name);
  }
  for (const MetricValue& o : other.entries_) {
    if (has(o.name)) continue;  // handled above
    if (exclude && exclude(o.name)) continue;
    if (!metric_value_is_zero(o)) diff.push_back(o.name);
  }
  return diff;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const MetricValue& o : other.entries_) {
    MetricValue& v = upsert(o.name);
    if (v.count == 0 && v.value == 0.0) {  // fresh entry: copy wholesale
      v = o;
      continue;
    }
    switch (o.kind) {
      case MetricKind::kCounter:
        v.value += o.value;
        break;
      case MetricKind::kGauge:
        v.value = o.value;  // latest sample wins
        break;
      case MetricKind::kHistogram: {
        const std::uint64_t n = v.count + o.count;
        if (n > 0) {
          v.mean = (v.mean * static_cast<double>(v.count) +
                    o.mean * static_cast<double>(o.count)) /
                   static_cast<double>(n);
        }
        v.min = v.count == 0 ? o.min
                             : (o.count == 0 ? v.min : std::min(v.min, o.min));
        v.max = std::max(v.max, o.max);
        // Quantiles of merged data are not recoverable from summaries;
        // keep the pessimistic (larger) of the two as an upper bound.
        v.p50 = std::max(v.p50, o.p50);
        v.p90 = std::max(v.p90, o.p90);
        v.p99 = std::max(v.p99, o.p99);
        v.p999 = std::max(v.p999, o.p999);
        v.count = n;
        v.value = static_cast<double>(n);
        break;
      }
    }
  }
}

std::string MetricsSnapshot::to_csv() const {
  std::string out = "name,kind,value,count,mean,min,max,p50,p90,p99,p999\n";
  char buf[512];
  for (const MetricValue& v : entries_) {
    std::snprintf(buf, sizeof(buf),
                  "%s,%s,%.17g,%llu,%.17g,%llu,%llu,%llu,%llu,%llu,%llu\n",
                  v.name.c_str(), to_string(v.kind), v.value,
                  static_cast<unsigned long long>(v.count), v.mean,
                  static_cast<unsigned long long>(v.min),
                  static_cast<unsigned long long>(v.max),
                  static_cast<unsigned long long>(v.p50),
                  static_cast<unsigned long long>(v.p90),
                  static_cast<unsigned long long>(v.p99),
                  static_cast<unsigned long long>(v.p999));
    out += buf;
  }
  return out;
}

bool MetricsSnapshot::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    PANIC_WARN("telemetry", "cannot open %s for metrics snapshot",
               path.c_str());
    return false;
  }
  const std::string csv = to_csv();
  const bool ok = std::fwrite(csv.data(), 1, csv.size(), f) == csv.size();
  std::fclose(f);
  if (!ok) PANIC_WARN("telemetry", "short write to %s", path.c_str());
  return ok;
}

// --- MetricsRegistry ---

bool MetricsRegistry::add(Entry e) {
  if (contains(e.name)) {
    PANIC_WARN("telemetry", "metric name collision: %s (first wins)",
               e.name.c_str());
    return false;
  }
  index_.emplace(e.name, entries_.size());
  entries_.push_back(std::move(e));
  return true;
}

std::uint64_t& MetricsRegistry::counter(const std::string& name) {
  const auto it = index_.find(name);
  if (it != index_.end()) {
    Entry& e = entries_[it->second];
    if (e.kind != MetricKind::kCounter) {
      throw std::logic_error("MetricsRegistry: '" + name +
                             "' already registered as " +
                             to_string(e.kind));
    }
    return *e.cell;
  }
  owned_.push_back(0);
  claim_cell(&owned_.back(), name);
  Entry e;
  e.name = name;
  e.kind = MetricKind::kCounter;
  e.cell = &owned_.back();
  add(std::move(e));
  return owned_.back();
}

bool MetricsRegistry::claim_cell(const std::uint64_t* cell,
                                 const std::string& name) {
  const auto [it, inserted] = cell_owners_.emplace(cell, name);
  if (!inserted) {
    PANIC_WARN("telemetry",
               "counter cell of '%s' already published as '%s' — a cell "
               "belongs to exactly one metric",
               name.c_str(), it->second.c_str());
    assert(false && "counter cell published twice");
    return false;
  }
  return true;
}

bool MetricsRegistry::expose_counter(const std::string& name,
                                     std::uint64_t* cell) {
  if (!claim_cell(cell, name)) return false;
  Entry e;
  e.name = name;
  e.kind = MetricKind::kCounter;
  e.cell = cell;
  return add(std::move(e));
}

bool MetricsRegistry::expose_gauge(const std::string& name,
                                   std::function<double()> fn) {
  Entry e;
  e.name = name;
  e.kind = MetricKind::kGauge;
  e.gauge = std::move(fn);
  return add(std::move(e));
}

bool MetricsRegistry::expose_histogram(const std::string& name,
                                       Histogram* hist) {
  Entry e;
  e.name = name;
  e.kind = MetricKind::kHistogram;
  e.hist = hist;
  return add(std::move(e));
}

void MetricsRegistry::reset() {
  for (Entry& e : entries_) {
    switch (e.kind) {
      case MetricKind::kCounter:
        *e.cell = 0;
        break;
      case MetricKind::kHistogram: e.hist->reset(); break;
      case MetricKind::kGauge: break;  // read-only view
    }
  }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.entries_.reserve(entries_.size());
  for (const Entry& e : entries_) {
    MetricValue v;
    v.name = e.name;
    v.kind = e.kind;
    switch (e.kind) {
      case MetricKind::kCounter:
        v.value = static_cast<double>(*e.cell);
        break;
      case MetricKind::kGauge:
        v.value = e.gauge ? e.gauge() : 0.0;
        break;
      case MetricKind::kHistogram:
        v.count = e.hist->count();
        v.value = static_cast<double>(v.count);
        v.mean = e.hist->mean();
        v.min = e.hist->min();
        v.max = e.hist->max();
        v.p50 = e.hist->p50();
        v.p90 = e.hist->p90();
        v.p99 = e.hist->p99();
        v.p999 = e.hist->p999();
        break;
    }
    snap.index_.emplace(v.name, snap.entries_.size());
    snap.entries_.push_back(std::move(v));
  }
  return snap;
}

}  // namespace panic::telemetry
