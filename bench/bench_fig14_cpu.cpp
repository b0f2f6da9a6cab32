// Figure 14 — publisher CPU utilization for an Image stream (921,641 B @
// 20 Hz) as the number of Image subscribers grows, comparing No-Logging,
// Base Logging, and ADLP.
//
// The publisher-attributable CPU (encode/sign + publisher links on the
// reactor + logging thread) is measured with per-thread CPU clocks. Shapes to
// reproduce:
//   * Base - None grows ~linearly with subscriber count (per-link copies and
//     per-subscriber log entries);
//   * ADLP - Base stays roughly flat: the hash+signature is computed once
//     per publication regardless of subscriber count.
#include <thread>

#include "bench_util.h"
#include "sim/workload.h"

namespace {

using namespace adlp;
using namespace adlp::bench;

struct CpuResult {
  double utilization_pct = 0.0;  // publisher CPU / wall
  std::uint64_t published = 0;
};

CpuResult MeasurePublisherCpu(proto::LoggingScheme scheme, int subscribers,
                              double seconds) {
  pubsub::Master master;
  proto::LogServer server;
  Rng rng(7);

  proto::ComponentOptions opts = PaperOptions(scheme);
  proto::Component pub("image_feeder", master, server, rng, opts);
  std::vector<std::unique_ptr<proto::Component>> subs;
  for (int i = 0; i < subscribers; ++i) {
    subs.push_back(std::make_unique<proto::Component>(
        "image_sub_" + std::to_string(i), master, server, rng, opts));
    subs.back()->Subscribe("image", [](const pubsub::Message&) {});
  }

  auto& publisher = pub.Advertise("image");
  publisher.WaitForSubscribers(subscribers);

  const auto& spec = sim::PaperDataType("Image");
  Bytes payload = rng.RandomBytes(spec.size_bytes);

  const Timestamp wall_start = MonotonicNowNs();
  const std::int64_t cpu_start = pub.CpuTimeNs();

  const auto period = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(1.0 / spec.rate_hz));
  auto next = std::chrono::steady_clock::now();
  std::uint64_t published = 0;
  const auto deadline =
      next + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double>(seconds));
  while (std::chrono::steady_clock::now() < deadline) {
    publisher.Publish(payload);
    ++published;
    next += period;
    std::this_thread::sleep_until(next);
  }

  const double wall_ns =
      static_cast<double>(MonotonicNowNs() - wall_start);
  const double cpu_ns = static_cast<double>(pub.CpuTimeNs() - cpu_start);

  pub.Shutdown();
  for (auto& s : subs) s->Shutdown();

  return CpuResult{100.0 * cpu_ns / wall_ns, published};
}

}  // namespace

int main(int argc, char** argv) {
  const double seconds = argc > 1 ? std::atof(argv[1]) : 3.0;

  PrintHeader(
      "Figure 14: publisher CPU utilization, Image @ 20 Hz, vs #subscribers");
  std::printf("%-6s | %-12s | %-12s | %-12s | %-11s | %s\n", "#subs",
              "No Logging", "Base", "ADLP", "Base-None", "ADLP-Base");
  PrintRule(84);

  for (int subs = 1; subs <= 4; ++subs) {
    const CpuResult none = MeasurePublisherCpu(
        adlp::proto::LoggingScheme::kNone, subs, seconds);
    const CpuResult base = MeasurePublisherCpu(
        adlp::proto::LoggingScheme::kBase, subs, seconds);
    const CpuResult adlp = MeasurePublisherCpu(
        adlp::proto::LoggingScheme::kAdlp, subs, seconds);
    std::printf(
        "%-6d | %10.2f %% | %10.2f %% | %10.2f %% | %+9.2f %% | %+9.2f %%\n",
        subs, none.utilization_pct, base.utilization_pct,
        adlp.utilization_pct, base.utilization_pct - none.utilization_pct,
        adlp.utilization_pct - base.utilization_pct);
  }
  PrintRule(84);
  std::printf(
      "shape checks: Base-None grows with #subscribers (per-subscriber "
      "logging of full\n"
      "images); ADLP-Base stays ~flat (crypto runs once per publication). "
      "Paper: ~6.7%%\n"
      "ADLP overhead at 1 subscriber, ~8.5%% at 4.\n");
  return 0;
}
