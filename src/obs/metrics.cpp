#include "obs/metrics.hpp"

#include <algorithm>

namespace mann::obs {

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard lock(mutex_);
  if (const auto it = counter_index_.find(name);
      it != counter_index_.end()) {
    return *it->second;
  }
  Counter& instrument = counters_.emplace_back();
  counter_index_.emplace(std::string(name), &instrument);
  return instrument;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard lock(mutex_);
  if (const auto it = gauge_index_.find(name); it != gauge_index_.end()) {
    return *it->second;
  }
  Gauge& instrument = gauges_.emplace_back();
  gauge_index_.emplace(std::string(name), &instrument);
  return instrument;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard lock(mutex_);
  if (const auto it = histogram_index_.find(name);
      it != histogram_index_.end()) {
    return *it->second;
  }
  Histogram& instrument = histograms_.emplace_back();
  histogram_index_.emplace(std::string(name), &instrument);
  return instrument;
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  std::vector<MetricSample> samples;
  samples.reserve(counter_index_.size() + gauge_index_.size() +
                  histogram_index_.size());
  for (const auto& [name, instrument] : counter_index_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::kCounter;
    s.value = instrument->value();
    samples.push_back(std::move(s));
  }
  for (const auto& [name, instrument] : gauge_index_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::kGauge;
    s.gauge = instrument->value();
    samples.push_back(std::move(s));
  }
  for (const auto& [name, instrument] : histogram_index_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::kHistogram;
    s.histogram = instrument->snapshot();
    samples.push_back(std::move(s));
  }
  std::sort(samples.begin(), samples.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return samples;
}

}  // namespace mann::obs
