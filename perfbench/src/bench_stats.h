// Pure helpers of the benchmark: percentile selection, open-loop due-time
// accounting and span self time. Header-only so the helper tests link
// nothing from the library.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

// --- Percentiles ---------------------------------------------------------------

/// A nearest-rank percentile and how many samples lie strictly beyond it.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
  /// A tail is trusted only with at least this many samples beyond it.
  static constexpr std::size_t kMinBeyond = 10;
  bool Trusted() const { return samples > 0 && beyond >= kMinBeyond; }
};

/// Nearest-rank percentile: the smallest sample with at least q * n samples
/// at or below it. q in (0, 1]. Empty input gives a zero-sample result.
inline Percentile NearestRank(std::vector<double> samples, double q) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  p.value = samples[rank - 1];
  p.beyond = samples.size() - rank;
  return p;
}

inline double Median(std::vector<double> samples) {
  return NearestRank(std::move(samples), 0.5).value;
}

// --- Open-loop schedule ---------------------------------------------------------

/// Transmission i is due at start + i * period, whatever happened to the
/// ones before it: latency is measured from the due time, so a stall of the
/// generator or the system is charged to every transmission it delays.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(std::int64_t start_ns, std::int64_t period_ns)
      : start_ns_(start_ns), period_ns_(period_ns) {}

  std::int64_t Due(std::uint64_t i) const {
    return start_ns_ + static_cast<std::int64_t>(i) * period_ns_;
  }
  /// Latency of an event of transmission i observed at `at_ns`.
  std::int64_t LatencyNs(std::uint64_t i, std::int64_t at_ns) const {
    return at_ns - Due(i);
  }
  /// How late the generator issued transmission i (0 when on time).
  std::int64_t LatenessNs(std::uint64_t i, std::int64_t sent_ns) const {
    return std::max<std::int64_t>(0, sent_ns - Due(i));
  }
 private:
  std::int64_t start_ns_;
  std::int64_t period_ns_;
};

// --- Spans ---------------------------------------------------------------------

/// The correlation key of the paper: (topic, publisher, subscriber, seq),
/// with topic/publisher/subscriber as small indices into the workload's
/// name tables (-1 = not specific to one subscriber).
struct SpanKey {
  std::int32_t topic = -1;
  std::int32_t publisher = -1;
  std::int32_t subscriber = -1;
  std::uint64_t seq = 0;
};

struct Span {
  std::uint16_t name = 0;  // index into the run's span-name table
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  // index of the parent span, -1 for a root
  SpanKey key;
  std::int64_t Duration() const { return end_ns - start_ns; }
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals. Overlapping children
/// are counted once; a child reaching outside its parent counts only inside.
inline std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& parent = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = parent.start_ns;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, parent.end_ns);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = std::max<std::int64_t>(0, parent.Duration() - covered);
  }
  return self;
}

}  // namespace perfbench
