#include "obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace adlp::obs {

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {
  if (bounds_.empty()) {
    throw std::invalid_argument("Histogram: bounds must be non-empty");
  }
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::invalid_argument("Histogram: bounds must be strictly ascending");
  }
}

Histogram::Snapshot Histogram::Snap() const {
  Snapshot snap;
  snap.bounds = bounds_;
  snap.counts.reserve(counts_.size());
  for (const auto& c : counts_) {
    snap.counts.push_back(c.value.load(std::memory_order_relaxed));
    snap.count += snap.counts.back();
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

void Histogram::Reset() noexcept {
  for (auto& c : counts_) c.value.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

const std::vector<std::uint64_t>& DefaultLatencyBucketsNs() {
  // Never destroyed, like the registry: a reactor loop may register its
  // first default-bucket histogram while the process exits.
  static const auto* buckets = new std::vector<std::uint64_t>([] {
    std::vector<std::uint64_t> b;
    // 100 ns, 200, 500, 1 µs, ... 10 s: a 1-2-5 decade ladder.
    for (std::uint64_t decade = 100; decade <= 10'000'000'000ull;
         decade *= 10) {
      b.push_back(decade);
      b.push_back(decade * 2);
      b.push_back(decade * 5);
    }
    return b;
  }());
  return *buckets;
}

// ---------------------------------------------------------------------------

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* instance = new MetricsRegistry();  // never destroyed
  return *instance;
}

Counter& MetricsRegistry::GetCounter(const std::string& name, Labels labels,
                                     const std::string& help) {
  MutexLock lock(mu_);
  auto& entry = counters_[Key{name, std::move(labels)}];
  if (!entry.metric) {
    entry.metric = std::make_unique<Counter>();
    entry.help = help;
  }
  return *entry.metric;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name, Labels labels,
                                 const std::string& help) {
  MutexLock lock(mu_);
  auto& entry = gauges_[Key{name, std::move(labels)}];
  if (!entry.metric) {
    entry.metric = std::make_unique<Gauge>();
    entry.help = help;
  }
  return *entry.metric;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         Labels labels,
                                         std::vector<std::uint64_t> bounds,
                                         const std::string& help) {
  MutexLock lock(mu_);
  auto& entry = histograms_[Key{name, std::move(labels)}];
  if (!entry.metric) {
    entry.metric = std::make_unique<Histogram>(
        bounds.empty() ? DefaultLatencyBucketsNs() : std::move(bounds));
    entry.help = help;
  }
  return *entry.metric;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MutexLock lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [key, entry] : counters_) {
    snap.counters.push_back(
        {key.name, key.labels, entry.help, entry.metric->Value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [key, entry] : gauges_) {
    snap.gauges.push_back(
        {key.name, key.labels, entry.help, entry.metric->Value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [key, entry] : histograms_) {
    snap.histograms.push_back(
        {key.name, key.labels, entry.help, entry.metric->Snap()});
  }
  // The maps are keyed by (name, labels), so iteration order is already the
  // deterministic sorted order the snapshot promises.
  return snap;
}

void MetricsRegistry::Reset() {
  MutexLock lock(mu_);
  for (auto& [key, entry] : counters_) entry.metric->Reset();
  for (auto& [key, entry] : gauges_) entry.metric->Reset();
  for (auto& [key, entry] : histograms_) entry.metric->Reset();
}

ScopedTimerNs::ScopedTimerNs(Histogram& hist)
    : hist_(hist),
      start_ns_(std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now().time_since_epoch())
                    .count()) {}

ScopedTimerNs::~ScopedTimerNs() {
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  hist_.Record(static_cast<std::uint64_t>(now - start_ns_));
}

}  // namespace adlp::obs
