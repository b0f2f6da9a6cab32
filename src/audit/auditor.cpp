#include "audit/auditor.h"

#include <algorithm>
#include <functional>
#include <map>
#include <string_view>

#include "audit/merge.h"
#include "audit/streaming_auditor.h"
#include "common/clock.h"
#include "common/thread_pool.h"
#include "obs/instrument.h"

namespace adlp::audit {

namespace {

/// Signature checks per VerifyDigestBatch call in the replay. Larger
/// batches amortize the Ed25519 combined equation further and let more of
/// the checks ADLP makes twice (once from each side's entry) be verified
/// once.
constexpr std::size_t kReplayChunkChecks = 1024;

/// Splits the log into min(workers, distinct topics) partitions, each in
/// log order. A topic goes whole to one partition — largest topics first,
/// each to the partition with the fewest entries so far — so every
/// transmission instance is audited by exactly one auditor, which sees its
/// entries in log order.
std::vector<std::vector<const proto::LogEntry*>> PartitionByTopic(
    const std::vector<proto::LogEntry>& entries, std::size_t workers) {
  std::map<std::string_view, std::size_t> topic_entries;
  for (const auto& entry : entries) ++topic_entries[entry.topic];
  const std::size_t count =
      std::max<std::size_t>(1, std::min(workers, topic_entries.size()));

  std::vector<std::pair<std::size_t, std::string_view>> by_size;
  by_size.reserve(topic_entries.size());
  for (const auto& [topic, n] : topic_entries) by_size.emplace_back(n, topic);
  std::sort(by_size.begin(), by_size.end(), std::greater<>());
  std::vector<std::size_t> load(count, 0);
  std::map<std::string_view, std::size_t> partition_of;
  for (const auto& [n, topic] : by_size) {
    const auto lightest = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    load[lightest] += n;
    partition_of[topic] = lightest;
  }

  std::vector<std::vector<const proto::LogEntry*>> parts(count);
  for (std::size_t p = 0; p < count; ++p) parts[p].reserve(load[p]);
  for (const auto& entry : entries) {
    parts[partition_of[entry.topic]].push_back(&entry);
  }
  return parts;
}

}  // namespace

std::string_view FindingName(Finding f) {
  switch (f) {
    case Finding::kOk: return "ok";
    case Finding::kPublisherHidEntry: return "publisher-hid-entry";
    case Finding::kSubscriberHidEntry: return "subscriber-hid-entry";
    case Finding::kPublisherFalsified: return "publisher-falsified";
    case Finding::kSubscriberFalsified: return "subscriber-falsified";
    case Finding::kPublisherFabricated: return "publisher-fabricated";
    case Finding::kSubscriberFabricated: return "subscriber-fabricated";
    case Finding::kPublisherSelfAuthFailed: return "publisher-self-auth-failed";
    case Finding::kSubscriberSelfAuthFailed:
      return "subscriber-self-auth-failed";
    case Finding::kDuplicateEntry: return "duplicate-entry";
    case Finding::kConflictUnresolvable: return "conflict-unresolvable";
    case Finding::kUnprovableConsistent: return "unprovable-consistent";
    case Finding::kUnprovableConflict: return "unprovable-conflict";
    case Finding::kUnprovableMissing: return "unprovable-missing";
  }
  return "unknown";
}

AuditReport Auditor::Audit(std::vector<proto::LogEntry> entries,
                           Topology topology) const {
  return Audit(LogDatabase(std::move(entries), std::move(topology)));
}

AuditReport Auditor::Audit(const LogDatabase& db) const {
  return Audit(db, AuditOptions{});
}

AuditReport Auditor::Audit(const LogDatabase& db,
                           const AuditOptions& exec) const {
  const Timestamp wall_start = MonotonicNowNs();
  obs::metric::AuditRunsTotal().Add(1);
  obs::metric::AuditPairsTotal().Add(db.Pairs().size());

  StreamingOptions replay;
  replay.include_base_scheme = options_.include_base_scheme;
  replay.chunk_checks = kReplayChunkChecks;

  const std::vector<std::vector<const proto::LogEntry*>> parts =
      PartitionByTopic(db.RawEntries(), exec.threads);
  std::vector<AuditReport> reports(parts.size());
  // Each partition is a seal-free replay: entries in log order, then the
  // final seal. Partitions share only the thread-safe keystore, and each
  // writes its own report slot.
  const auto replay_part = [&](std::size_t p) {
    obs::TraceLog::Global().Record(obs::TraceKind::kAuditShardStart, "",
                                   parts[p].size());
    const Timestamp part_start = MonotonicNowNs();
    StreamingAuditor auditor(keys_, db.topology(), replay);
    for (const proto::LogEntry* entry : parts[p]) auditor.OnEntry(*entry);
    reports[p] = auditor.Finalize();
    obs::metric::AuditShardNs().Record(
        static_cast<std::uint64_t>(MonotonicNowNs() - part_start));
    obs::TraceLog::Global().Record(obs::TraceKind::kAuditShardFinish, "",
                                   parts[p].size());
  };
  if (parts.size() == 1) {
    replay_part(0);
  } else {
    ThreadPool pool(parts.size());
    for (std::size_t p = 0; p < parts.size(); ++p) {
      pool.Submit([&replay_part, p] { replay_part(p); });
    }
    pool.Wait();
  }
  AuditReport report = MergeReports(std::move(reports));
  obs::metric::AuditWallNs().Record(
      static_cast<std::uint64_t>(MonotonicNowNs() - wall_start));
  return report;
}

}  // namespace adlp::audit
