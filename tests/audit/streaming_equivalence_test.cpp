// The streaming auditor's load-bearing invariant, exercised across the full
// misbehavior matrix: for every fault class and every seed, an online
// audit's finalized report is BYTE-identical (rendered JSON, verdict list
// included) to Auditor::Audit's seal-free replay of the same entries and
// topology — under serial delivery, multi-threaded delivery, perturbed
// (reordered + duplicated) upload streams, random epoch schedules, and
// eviction pressure.
//
// Identity alone would only pin the driver to itself, so every cell is
// also checked against the paper: the report blames exactly the one
// unfaithful component (Theorems 1-2). And each misbehaving cell asserts
// online detection: the offending pair is flagged at an intermediate epoch
// seal — i.e. while the fleet would still be running — not only at
// end-of-run finalization.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "audit/auditor.h"
#include "audit/report_json.h"
#include "audit/streaming_auditor.h"
#include "fleet_gen.h"

namespace adlp {
namespace {

using test::ChainFleet;
using test::kAllMisbehaviorClasses;
using test::MakeMisbehavedFleet;
using test::MisbehavedFleet;
using test::MisbehaviorClass;
using test::MisbehaviorClassName;

std::string Render(const audit::AuditReport& report) {
  audit::JsonOptions json;
  json.pretty = false;
  json.include_verdicts = true;
  return audit::RenderReportJson(report, json);
}

audit::AuditReport Replay(const ChainFleet& fleet,
                          const std::vector<proto::LogEntry>& entries,
                          std::size_t threads) {
  const audit::LogDatabase db(entries, fleet.topology);
  const audit::Auditor auditor(fleet.keys);
  audit::AuditOptions exec;
  exec.threads = threads;
  return auditor.Audit(db, exec);
}

std::string ReplayJson(const ChainFleet& fleet,
                       const std::vector<proto::LogEntry>& entries,
                       std::size_t threads) {
  return Render(Replay(fleet, entries, threads));
}

/// The paper's blame property, independent of any audit driver: a fleet
/// with one unfaithful, non-colluding component blames that component and
/// no other chain node (Theorems 1-2). An impersonator may also be blamed
/// under the registered shadow identity it logged as. Clean and
/// timing-only fleets blame nobody: timestamps are outside the signed
/// digest.
void ExpectPaperBlame(const MisbehavedFleet& mf, const std::string& label,
                      const audit::AuditReport& report) {
  if (mf.cls == MisbehaviorClass::kClean ||
      mf.cls == MisbehaviorClass::kTiming) {
    EXPECT_TRUE(report.unfaithful.empty())
        << report.unfaithful.size() << " component(s) blamed";
    return;
  }
  EXPECT_TRUE(report.Blames(mf.attacker)) << mf.attacker << " not blamed";
  for (const auto& id : report.unfaithful) {
    const bool shadow = mf.cls == MisbehaviorClass::kImpersonation &&
                        id == label + "-shadow";
    EXPECT_TRUE(id == mf.attacker || shadow) << "blamed faithful " << id;
  }
}

struct StreamRun {
  std::string json;
  audit::StreamingStats stats;
  /// on_finding firings observed before Finalize() — online detections.
  std::size_t flags_before_final = 0;
};

/// Serial delivery in arrival order with a seed-randomized epoch schedule;
/// one final explicit epoch before Finalize so every flag that can fire
/// online has fired online.
StreamRun RunStreamingSerial(const ChainFleet& fleet,
                             const std::vector<proto::LogEntry>& entries,
                             std::uint64_t seed) {
  Rng rng(seed);
  audit::StreamingOptions options;
  std::atomic<std::size_t> flags{0};
  options.on_finding = [&](const audit::PairVerdict&, Timestamp) { ++flags; };
  audit::StreamingAuditor streaming(fleet.keys, fleet.topology, options);
  // Epochs aligned to transmission boundaries (entries arrive in
  // publisher/subscriber-adjacent pairs): a clean fleet then never seals a
  // half-arrived pair, so any online flag is a real detection. Mutated
  // fleets may mis-align (hiding removes entries) — a provisionally flagged
  // pair re-opens on its late counterpart and converges, which the byte
  // identity below certifies.
  const std::size_t epoch_every = 2 * (1 + rng.UniformBelow(3));
  for (std::size_t i = 0; i < entries.size(); ++i) {
    streaming.OnEntry(entries[i]);
    if ((i + 1) % epoch_every == 0) streaming.SealEpoch();
  }
  streaming.SealEpoch();
  StreamRun run;
  run.flags_before_final = flags.load();
  run.json = Render(streaming.Finalize());
  run.stats = streaming.Stats();
  return run;
}

/// Multi-threaded delivery: entries are partitioned by (topic, seq) so each
/// transmission instance keeps its relative arrival order while different
/// instances race freely — the strongest concurrency the per-pair fact
/// model admits while staying comparable to the replay's log order.
std::string RunStreamingParallel(const ChainFleet& fleet,
                                 const std::vector<proto::LogEntry>& entries,
                                 std::size_t threads) {
  audit::StreamingAuditor streaming(fleet.keys, fleet.topology);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (const auto& entry : entries) {
        std::size_t h = entry.seq;
        for (char c : entry.topic) {
          h = h * 131 + static_cast<unsigned char>(c);
        }
        if (h % threads == t) streaming.OnEntry(entry);
      }
    });
  }
  for (auto& w : workers) w.join();
  return Render(streaming.Finalize());
}

/// Seed-deterministic upload-stream perturbation: bounded-window reorder
/// plus duplicated frames. The perturbed sequence is what both the online
/// audit and the replay consume, modelling a log server that stored exactly
/// this arrival order.
std::vector<proto::LogEntry> PerturbStream(std::vector<proto::LogEntry> v,
                                           std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = 0; i + 1 < v.size(); ++i) {
    const std::size_t j = i + rng.UniformBelow(4);
    if (j < v.size() && j != i) std::swap(v[i], v[j]);
  }
  const std::size_t dups = 1 + rng.UniformBelow(3);
  for (std::size_t d = 0; d < dups && !v.empty(); ++d) {
    v.push_back(v[rng.UniformBelow(v.size())]);
  }
  return v;
}

class StreamingEquivalenceTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamingEquivalenceTest, MatchesBatchAcrossMisbehaviorMatrix) {
  const std::uint64_t seed = GetParam();
  for (const MisbehaviorClass cls : kAllMisbehaviorClasses) {
    SCOPED_TRACE(MisbehaviorClassName(cls));
    const MisbehavedFleet mf = MakeMisbehavedFleet(cls, seed);
    const ChainFleet& fleet = mf.fleet;

    // The one-thread replay is the reference, and it must be right by the
    // paper; the partitioned replay must match it.
    const audit::AuditReport replay = Replay(fleet, fleet.entries, 1);
    ExpectPaperBlame(mf, "eq", replay);
    const std::string reference = Render(replay);
    EXPECT_EQ(ReplayJson(fleet, fleet.entries, 4), reference);

    // Streaming, serial delivery, random epochs: byte-identical, and every
    // misbehaving cell was flagged online (before Finalize).
    const StreamRun serial = RunStreamingSerial(fleet, fleet.entries, seed);
    EXPECT_EQ(serial.json, reference);
    EXPECT_EQ(serial.stats.entries, fleet.entries.size());
    if (mf.expects_pairwise_finding) {
      EXPECT_GE(serial.flags_before_final, 1u)
          << "misbehavior not detected until finalization";
      EXPECT_GE(serial.stats.flagged, 1u);
    } else {
      EXPECT_EQ(serial.flags_before_final, 0u)
          << "clean/timing fleet flagged online";
    }

    // Streaming, concurrent delivery: byte-identical.
    EXPECT_EQ(RunStreamingParallel(fleet, fleet.entries, 4), reference);

    // Perturbed upload stream (reorder + duplicates): streaming matches the
    // replay of the SAME perturbed order, byte for byte.
    const std::vector<proto::LogEntry> perturbed =
        PerturbStream(fleet.entries, seed * 977 + static_cast<int>(cls));
    EXPECT_EQ(RunStreamingSerial(fleet, perturbed, seed ^ 0xabc).json,
              ReplayJson(fleet, perturbed, 1));
  }
}

/// Memory pressure must not change a single byte either: the same matrix
/// under a tiny open-pair bound, forcing evictions mid-stream.
TEST_P(StreamingEquivalenceTest, EvictionPressurePreservesIdentity) {
  const std::uint64_t seed = GetParam();
  for (const MisbehaviorClass cls : kAllMisbehaviorClasses) {
    SCOPED_TRACE(MisbehaviorClassName(cls));
    const MisbehavedFleet mf = MakeMisbehavedFleet(cls, seed, "ev");
    const ChainFleet& fleet = mf.fleet;

    audit::StreamingOptions options;
    options.max_open_pairs = 3;
    audit::StreamingAuditor streaming(fleet.keys, fleet.topology, options);
    for (const auto& entry : fleet.entries) {
      streaming.OnEntry(entry);
      EXPECT_LE(streaming.Stats().open_pairs, options.max_open_pairs);
    }
    const audit::StreamingStats mid = streaming.Stats();
    EXPECT_GT(mid.evicted_pairs, 0u) << "bound never exercised";
    const audit::AuditReport report = streaming.Finalize();
    ExpectPaperBlame(mf, "ev", report);
    EXPECT_EQ(Render(report), ReplayJson(fleet, fleet.entries, 1));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingEquivalenceTest,
                         ::testing::Range<std::uint64_t>(0, 24));

}  // namespace
}  // namespace adlp
