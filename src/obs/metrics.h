// Process-wide runtime metrics: counters, gauges, and fixed-bucket latency
// histograms behind a MetricsRegistry.
//
// The paper's evaluation (Tables I-IV, Figs. 13-15) is measurement-driven,
// but those numbers come from offline benches. This layer gives the live
// system the same observability: every hot path records into pre-resolved
// metric handles, and a snapshot (JSON or Prometheus text, see export.h)
// can be pulled at any time without disturbing the writers.
//
// Design constraints, in order:
//
//   * The record path is lock-free and allocation-free: Counter::Add is one
//     relaxed fetch_add on a cache-line-private shard, Histogram::Record is
//     a branchless bucket lookup plus two relaxed fetch_adds. Target is
//     < 100 ns per record (bench/obs_bench measures it and writes
//     BENCH_obs.json).
//   * Registration is rare and may take a mutex; instrument sites resolve
//     their handles once (static local or member) and never touch the
//     registry map again.
//   * Handles are stable for the life of the process: the registry never
//     deletes a metric, and Reset() (tests only) zeroes values in place so
//     cached references stay valid.
//   * No dependencies outside the C++ standard library.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace adlp::obs {

/// Sorted (key, value) pairs identifying one time series of a metric name,
/// Prometheus-style: adlp_transport_bytes_total{dir="tx",kind="epoll"}.
using Labels = std::vector<std::pair<std::string, std::string>>;

namespace internal {

/// One cache line per shard so concurrent writers never false-share.
struct alignas(64) PaddedAtomic {
  std::atomic<std::uint64_t> value{0};
};

/// Stable small shard index for the calling thread. Threads hash onto
/// kShards slots; collisions only cost contention, never correctness.
inline std::size_t ThreadShard(std::size_t shards) {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id % shards;
}

}  // namespace internal

/// Monotonically increasing event count. Sharded across cache lines: the
/// record path touches only the calling thread's shard, the read path sums
/// all shards (reads may observe a value mid-update sequence; each shard's
/// count itself is always exact).
class Counter {
 public:
  static constexpr std::size_t kShards = 16;

  void Add(std::uint64_t n = 1) noexcept {
    shards_[internal::ThreadShard(kShards)].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  std::uint64_t Value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Zeroes all shards (test isolation; racy against concurrent Add).
  void Reset() noexcept {
    for (auto& shard : shards_) {
      shard.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  std::array<internal::PaddedAtomic, kShards> shards_;
};

/// A value that can go up and down (queue depth, spool depth, pending ACKs).
class Gauge {
 public:
  void Set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void Add(std::int64_t d = 1) noexcept {
    value_.fetch_add(d, std::memory_order_relaxed);
  }
  void Sub(std::int64_t d = 1) noexcept {
    value_.fetch_sub(d, std::memory_order_relaxed);
  }

  /// Monotonic raise-to-at-least update (high-water marks).
  void SetMax(std::int64_t v) noexcept {
    std::int64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < v && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }

  std::int64_t Value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

  void Reset() noexcept { Set(0); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram. Bucket i counts samples <= bounds[i]; one
/// implicit overflow bucket counts everything above the last bound.
/// Record is lock-free: a linear scan over the (small, immutable) bounds
/// array, then relaxed fetch_adds on the bucket and the sum.
class Histogram {
 public:
  struct Snapshot {
    std::vector<std::uint64_t> bounds;  // upper bounds, ascending
    std::vector<std::uint64_t> counts;  // bounds.size() + 1 (last = overflow)
    std::uint64_t count = 0;            // total samples
    std::uint64_t sum = 0;              // sum of recorded values
  };

  /// `bounds` must be ascending and non-empty.
  explicit Histogram(std::vector<std::uint64_t> bounds);

  void Record(std::uint64_t value) noexcept {
    std::size_t i = 0;
    while (i < bounds_.size() && value > bounds_[i]) ++i;
    counts_[i].value.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  Snapshot Snap() const;

  const std::vector<std::uint64_t>& Bounds() const { return bounds_; }

  void Reset() noexcept;

 private:
  const std::vector<std::uint64_t> bounds_;
  // One atomic per bucket. Buckets of one histogram may share cache lines —
  // unlike a counter, a histogram's buckets are written by the same sites,
  // so padding every bucket would cost memory for little contention win.
  std::vector<internal::PaddedAtomic> counts_;
  std::atomic<std::uint64_t> sum_{0};
};

/// 1-2-5 series of nanosecond bounds from 100 ns to 10 s: one size fits the
/// crypto (µs..ms) and network (ms) latencies this system measures.
const std::vector<std::uint64_t>& DefaultLatencyBucketsNs();

// ---------------------------------------------------------------------------

/// Everything needed to render a registry without touching live metrics.
struct MetricsSnapshot {
  struct CounterSample {
    std::string name;
    Labels labels;
    std::string help;
    std::uint64_t value = 0;
  };
  struct GaugeSample {
    std::string name;
    Labels labels;
    std::string help;
    std::int64_t value = 0;
  };
  struct HistogramSample {
    std::string name;
    Labels labels;
    std::string help;
    Histogram::Snapshot data;
  };

  // Each vector is sorted by (name, labels): deterministic output for a
  // given set of values regardless of registration order.
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

/// Owner of all metrics. `Global()` is the process-wide instance every
/// instrument site uses; tests may build private registries.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Global();

  /// Finds or creates. The returned reference is valid for the registry's
  /// lifetime. `help` is recorded on first registration only.
  Counter& GetCounter(const std::string& name, Labels labels = {},
                      const std::string& help = "") EXCLUDES(mu_);
  Gauge& GetGauge(const std::string& name, Labels labels = {},
                  const std::string& help = "") EXCLUDES(mu_);
  /// `bounds` applies on first registration only; later calls with the same
  /// (name, labels) return the existing histogram unchanged.
  Histogram& GetHistogram(const std::string& name, Labels labels = {},
                          std::vector<std::uint64_t> bounds = {},
                          const std::string& help = "") EXCLUDES(mu_);

  MetricsSnapshot Snapshot() const EXCLUDES(mu_);

  /// Zeroes every metric in place (handles stay valid). Test isolation only.
  void Reset() EXCLUDES(mu_);

 private:
  struct Key {
    std::string name;
    Labels labels;
    bool operator<(const Key& o) const {
      if (name != o.name) return name < o.name;
      return labels < o.labels;
    }
  };
  template <typename T>
  struct Entry {
    std::unique_ptr<T> metric;
    std::string help;
  };

  // mu_ guards the registration maps only; the metric objects the maps own
  // are internally atomic and are updated by instrument sites without it.
  mutable Mutex mu_;
  std::map<Key, Entry<Counter>> counters_ GUARDED_BY(mu_);
  std::map<Key, Entry<Gauge>> gauges_ GUARDED_BY(mu_);
  std::map<Key, Entry<Histogram>> histograms_ GUARDED_BY(mu_);
};

/// Scoped wall-time measurement into a histogram of nanoseconds.
class ScopedTimerNs {
 public:
  explicit ScopedTimerNs(Histogram& hist);
  ~ScopedTimerNs();

  ScopedTimerNs(const ScopedTimerNs&) = delete;
  ScopedTimerNs& operator=(const ScopedTimerNs&) = delete;

 private:
  Histogram& hist_;
  std::int64_t start_ns_;
};

}  // namespace adlp::obs
