// Tests of the benchmark's own helpers: percentile selection, open-loop
// due-time accounting and span self time.
#include <cstdio>
#include <vector>

#include "bench_stats.h"

using namespace perfbench;

namespace {

int failures = 0;

#define EXPECT(cond)                                                    \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                              \
      ++failures;                                                       \
    }                                                                   \
  } while (0)

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentiles() {
  const Percentile p50 = NearestRank(OneTo(100), 0.50);
  EXPECT(p50.value == 50 && p50.samples == 100 && p50.beyond == 50);
  const Percentile p90 = NearestRank(OneTo(100), 0.90);
  EXPECT(p90.value == 90 && p90.beyond == 10 && p90.Trusted());
  // 99 samples leave only 9 beyond the p90: the tail is not trusted.
  const Percentile short_tail = NearestRank(OneTo(99), 0.90);
  EXPECT(short_tail.value == 90 && short_tail.beyond == 9);
  EXPECT(!short_tail.Trusted());
  EXPECT(NearestRank(OneTo(1), 0.90).value == 1);
  const Percentile none = NearestRank({}, 0.5);
  EXPECT(none.samples == 0 && !none.Trusted());
  EXPECT(Median({3, 1, 2}) == 2);
}

void TestOpenLoop() {
  const OpenLoopSchedule s(1'000, 50);
  EXPECT(s.Due(0) == 1'000 && s.Due(3) == 1'150);
  // On time: latency is event minus due.
  EXPECT(s.LatenessNs(0, 1'000) == 0 && s.LatencyNs(0, 1'012) == 12);
  // The generator stalls 30 ns on transmission 1: it is late by 30, and its
  // latency still counts from the due time, so the stall is charged.
  EXPECT(s.LatenessNs(1, 1'080) == 30);
  EXPECT(s.LatencyNs(1, 1'085) == 35);
  // Transmission 2 is due while the stall lasts; it pays the rest of it.
  EXPECT(s.LatencyNs(2, 1'110) == 10);
  // Early sends are not negative lateness.
  EXPECT(s.LatenessNs(3, 1'100) == 0);
}

void TestSelfTime() {
  std::vector<Span> spans;
  spans.push_back({0, 0, 100, -1, {}});   // 0: root
  spans.push_back({1, 10, 40, 0, {}});    // 1: child
  spans.push_back({1, 30, 60, 0, {}});    // 2: child overlapping 1
  spans.push_back({1, 35, 45, 0, {}});    // 3: inside 1 and 2
  spans.push_back({1, 90, 120, 0, {}});   // 4: reaches past the root
  spans.push_back({2, 15, 20, 1, {}});    // 5: grandchild
  const std::vector<std::int64_t> self = SelfTimes(spans);
  // Root: children cover [10,60] and [90,100] once each.
  EXPECT(self[0] == 100 - 50 - 10);
  EXPECT(self[1] == 30 - 5);  // its own child only
  EXPECT(self[2] == 30 && self[3] == 10 && self[5] == 5);
  EXPECT(self[4] == 30);
  // Disjoint children, one empty.
  const std::vector<Span> flat = {
      {0, 0, 10, -1, {}}, {1, 2, 4, 0, {}}, {1, 6, 6, 0, {}}};
  EXPECT(SelfTimes(flat)[0] == 8);
}

}  // namespace

int main() {
  TestPercentiles();
  TestOpenLoop();
  TestSelfTime();
  if (failures == 0) std::printf("perfbench helpers: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
