#include "obs/metrics.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/json.h"

namespace numaio::obs {

namespace {

template <typename Vec>
typename Vec::value_type* find_by_name(Vec& entries, std::string_view name) {
  for (auto& entry : entries) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

}  // namespace

MetricsRegistry::Id MetricsRegistry::counter(std::string_view name) {
  if (find_by_name(gauges_, name) != nullptr ||
      find_by_name(histograms_, name) != nullptr) {
    throw std::invalid_argument("metric '" + std::string(name) +
                                "' already registered with a different kind");
  }
  for (Id i = 0; i < counters_.size(); ++i) {
    if (counters_[i].name == name) return i;
  }
  counters_.push_back(Scalar{std::string(name), 0.0});
  return counters_.size() - 1;
}

MetricsRegistry::Id MetricsRegistry::gauge(std::string_view name) {
  if (find_by_name(counters_, name) != nullptr ||
      find_by_name(histograms_, name) != nullptr) {
    throw std::invalid_argument("metric '" + std::string(name) +
                                "' already registered with a different kind");
  }
  for (Id i = 0; i < gauges_.size(); ++i) {
    if (gauges_[i].name == name) return i;
  }
  gauges_.push_back(Scalar{std::string(name), 0.0});
  return gauges_.size() - 1;
}

MetricsRegistry::Id MetricsRegistry::histogram(
    std::string_view name, std::vector<double> upper_bounds) {
  if (upper_bounds.empty() ||
      !std::is_sorted(upper_bounds.begin(), upper_bounds.end()) ||
      std::adjacent_find(upper_bounds.begin(), upper_bounds.end()) !=
          upper_bounds.end()) {
    throw std::invalid_argument("histogram '" + std::string(name) +
                                "' bounds must be strictly ascending");
  }
  if (find_by_name(counters_, name) != nullptr ||
      find_by_name(gauges_, name) != nullptr) {
    throw std::invalid_argument("metric '" + std::string(name) +
                                "' already registered with a different kind");
  }
  for (Id i = 0; i < histograms_.size(); ++i) {
    if (histograms_[i].name == name) {
      if (histograms_[i].bounds != upper_bounds) {
        throw std::invalid_argument("histogram '" + std::string(name) +
                                    "' re-registered with different bounds");
      }
      return i;
    }
  }
  Histogram h;
  h.name.assign(name);
  h.bounds = std::move(upper_bounds);
  h.counts.assign(h.bounds.size() + 1, 0);
  histograms_.push_back(std::move(h));
  return histograms_.size() - 1;
}

void MetricsRegistry::add(Id id, double delta) {
  if (id < counters_.size()) counters_[id].value += delta;
}

void MetricsRegistry::set(Id id, double value) {
  if (id < gauges_.size()) gauges_[id].value = value;
}

void MetricsRegistry::observe(Id id, double value) {
  if (id >= histograms_.size()) return;
  histograms_[id].observe(value);
}

void MetricsRegistry::Histogram::observe(double value) {
  // First bucket whose upper bound is >= value; past-the-end = overflow.
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), value);
  counts[static_cast<std::size_t>(it - bounds.begin())] += 1;
  count += 1;
  sum += value;
}

void MetricsRegistry::merge_histogram(const Histogram& histogram) {
  if (histogram.bounds.empty()) return;
  const Id id = this->histogram(histogram.name, histogram.bounds);
  Histogram& h = histograms_[id];
  const std::size_t n = std::min(h.counts.size(), histogram.counts.size());
  for (std::size_t i = 0; i < n; ++i) {
    h.counts[i] += histogram.counts[i];
  }
  h.count += histogram.count;
  h.sum += histogram.sum;
}

double MetricsRegistry::value(std::string_view name) const {
  for (const Scalar& c : counters_) {
    if (c.name == name) return c.value;
  }
  for (const Scalar& g : gauges_) {
    if (g.name == name) return g.value;
  }
  return 0.0;
}

const MetricsRegistry::Histogram* MetricsRegistry::find_histogram(
    std::string_view name) const {
  for (const Histogram& h : histograms_) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

double MetricsRegistry::Histogram::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double in_bucket = static_cast<double>(counts[i]);
    if (cum + in_bucket < rank || in_bucket == 0.0) {
      cum += in_bucket;
      continue;
    }
    if (i >= bounds.size()) return bounds.back();  // +inf overflow bucket
    const double hi = bounds[i];
    const double lo = i == 0 ? std::min(0.0, hi) : bounds[i - 1];
    return lo + (hi - lo) * ((rank - cum) / in_bucket);
  }
  return bounds.back();
}

std::vector<MetricsRegistry::NamedValue> MetricsRegistry::counter_values()
    const {
  std::vector<NamedValue> out;
  for (const Scalar& c : counters_) out.push_back({c.name, c.value});
  std::sort(out.begin(), out.end(),
            [](const NamedValue& a, const NamedValue& b) {
              return a.name < b.name;
            });
  return out;
}

std::vector<MetricsRegistry::NamedValue> MetricsRegistry::gauge_values()
    const {
  std::vector<NamedValue> out;
  for (const Scalar& g : gauges_) out.push_back({g.name, g.value});
  std::sort(out.begin(), out.end(),
            [](const NamedValue& a, const NamedValue& b) {
              return a.name < b.name;
            });
  return out;
}

std::vector<const MetricsRegistry::Histogram*>
MetricsRegistry::histograms_sorted() const {
  std::vector<const Histogram*> out;
  for (const Histogram& h : histograms_) out.push_back(&h);
  std::sort(out.begin(), out.end(),
            [](const Histogram* a, const Histogram* b) {
              return a->name < b->name;
            });
  return out;
}

std::string MetricsRegistry::to_json() const {
  // Sorted maps make the snapshot independent of registration order, so
  // same-seed runs diff clean.
  std::map<std::string, double> counters;
  for (const Scalar& c : counters_) counters[c.name] = c.value;
  std::map<std::string, double> gauges;
  for (const Scalar& g : gauges_) gauges[g.name] = g.value;
  std::map<std::string, const Histogram*> histograms;
  for (const Histogram& h : histograms_) histograms[h.name] = &h;

  std::ostringstream out;
  out << "{";
  for (const auto& [section, values] :
       {std::pair{"counters", &counters}, std::pair{"gauges", &gauges}}) {
    out << "\n  \"" << section << "\": {";
    bool first = true;
    for (const auto& [name, value] : *values) {
      out << (first ? "\n" : ",\n") << "    ";
      json::write_string(out, name);
      out << ": ";
      json::write_number(out, value);
      first = false;
    }
    out << (first ? "" : "\n  ") << "},";
  }
  out << "\n  \"histograms\": {";
  bool first = true;
  for (const auto& [name, h] : histograms) {
    out << (first ? "\n" : ",\n") << "    ";
    json::write_string(out, name);
    out << ": {\"bounds\": [";
    for (std::size_t i = 0; i < h->bounds.size(); ++i) {
      out << (i == 0 ? "" : ", ");
      json::write_number(out, h->bounds[i]);
    }
    out << "], \"counts\": [";
    for (std::size_t i = 0; i < h->counts.size(); ++i) {
      out << (i == 0 ? "" : ", ") << h->counts[i];
    }
    out << "], \"count\": " << h->count << ", \"sum\": ";
    json::write_number(out, h->sum);
    out << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
  return out.str();
}

std::string MetricsRegistry::summary() const {
  std::map<std::string, double> counters;
  for (const Scalar& c : counters_) counters[c.name] = c.value;
  std::map<std::string, double> gauges;
  for (const Scalar& g : gauges_) gauges[g.name] = g.value;
  std::map<std::string, const Histogram*> histograms;
  for (const Histogram& h : histograms_) histograms[h.name] = &h;

  std::ostringstream out;
  for (const auto& [section, values] :
       {std::pair{"counters:\n", &counters}, std::pair{"gauges:\n", &gauges}}) {
    if (!values->empty()) out << section;
    for (const auto& [name, value] : *values) {
      out << "  " << name << " = ";
      json::write_number(out, value);
      out << "\n";
    }
  }
  if (!histograms.empty()) {
    out << "histograms:\n";
    const std::pair<const char*, double> quantiles[] = {
        {", p50 ", 0.50}, {", p95 ", 0.95}, {", p99 ", 0.99},
        {", p99.9 ", 0.999}};
    for (const auto& [name, h] : histograms) {
      out << "  " << name << " (count " << h->count << ", sum ";
      json::write_number(out, h->sum);
      if (h->count > 0) {
        out << ", mean ";
        json::write_number(out, h->sum / static_cast<double>(h->count));
        for (const auto& [label, q] : quantiles) {
          out << label;
          json::write_number(out, h->quantile(q));
        }
      }
      out << ")\n";
      for (std::size_t i = 0; i < h->counts.size(); ++i) {
        const bool bounded = i < h->bounds.size();
        out << (bounded ? "    <= " : "    > ");
        json::write_number(out, bounded ? h->bounds[i] : h->bounds.back());
        out << ": " << h->counts[i] << "\n";
      }
    }
  }
  if (counters.empty() && gauges.empty() && histograms.empty()) {
    out << "(no metrics recorded)\n";
  }
  return out.str();
}

MetricsRegistry parse_metrics_json(const std::string& text) {
  MetricsRegistry registry;
  json::Cursor cur(text, "metrics JSON");
  cur.object([&](std::string_view section) {
    if (section == "counters") {
      cur.object([&](std::string_view name) {
        const MetricsRegistry::Id id = registry.counter(name);
        registry.add(id, cur.number());
      });
    } else if (section == "gauges") {
      cur.object([&](std::string_view name) {
        const MetricsRegistry::Id id = registry.gauge(name);
        registry.set(id, cur.number());
      });
    } else if (section == "histograms") {
      cur.object([&](std::string_view key) {
        MetricsRegistry::Histogram h;
        h.name = key;
        cur.object([&](std::string_view field) {
          if (field == "bounds") {
            cur.array([&] { h.bounds.push_back(cur.number()); });
          } else if (field == "counts") {
            cur.array([&] {
              h.counts.push_back(cur.integer<std::uint64_t>());
              h.count += h.counts.back();
            });
          } else if (field == "count") {
            cur.number();  // redundant with the counts array
          } else if (field == "sum") {
            h.sum = cur.number();
          } else {
            cur.fail("unknown histogram field '" + std::string(field) + "'");
          }
        });
        if (h.counts.size() != h.bounds.size() + 1) {
          cur.fail("histogram '" + h.name + "' counts/bounds size mismatch");
        }
        registry.histograms_.push_back(std::move(h));
      });
    } else {
      cur.fail("unknown section '" + std::string(section) + "'");
    }
  });
  cur.end();
  return registry;
}

}  // namespace numaio::obs
