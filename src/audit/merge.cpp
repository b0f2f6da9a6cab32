// Verdict folding and report rendering. Everything that mutates an
// AuditReport after pair evaluation lives in this translation unit — the
// partitioned auditor depends on this fold and join being the only,
// order-preserving ways verdicts become a report.
#include "audit/merge.h"

#include <algorithm>
#include <iterator>
#include <tuple>

namespace adlp::audit {

void MergeVerdict(AuditReport& report, PairVerdict verdict, MergeSides sides) {
  auto account = [&](const crypto::ComponentId& id, EntryClass cls) {
    ComponentStats& s = report.stats[id];
    switch (cls) {
      case EntryClass::kValid: ++s.valid; break;
      case EntryClass::kInvalid: ++s.invalid; break;
      case EntryClass::kHidden: ++s.hidden; break;
    }
  };
  // A side is accounted when its entry exists, or when the audit proved
  // the entry should exist but was hidden.
  if (!verdict.publisher.empty() &&
      (sides.has_publisher ||
       verdict.finding == Finding::kPublisherHidEntry)) {
    account(verdict.publisher, verdict.publisher_class);
  }
  if (!verdict.subscriber.empty() &&
      (sides.has_subscriber ||
       verdict.finding == Finding::kSubscriberHidEntry)) {
    account(verdict.subscriber, verdict.subscriber_class);
  }
  for (const auto& id : verdict.blamed) {
    report.unfaithful.insert(id);
    ++report.stats[id].blamed;
  }
  report.verdicts.push_back(std::move(verdict));
}

AuditReport MergeReports(std::vector<AuditReport> parts) {
  if (parts.size() == 1) return std::move(parts.front());
  AuditReport report;
  for (AuditReport& part : parts) {
    std::move(part.verdicts.begin(), part.verdicts.end(),
              std::back_inserter(report.verdicts));
    for (const auto& [id, s] : part.stats) {
      ComponentStats& total = report.stats[id];
      total.valid += s.valid;
      total.invalid += s.invalid;
      total.hidden += s.hidden;
      total.blamed += s.blamed;
    }
    report.unfaithful.merge(part.unfaithful);
  }
  // No key is in two parts, so sorting by key yields exactly the PairKey
  // order one fold over all pairs would produce.
  std::sort(report.verdicts.begin(), report.verdicts.end(),
            [](const PairVerdict& a, const PairVerdict& b) {
              return std::tie(a.topic, a.seq, a.subscriber) <
                     std::tie(b.topic, b.seq, b.subscriber);
            });
  return report;
}

std::size_t AuditReport::TotalValid() const {
  std::size_t n = 0;
  for (const auto& [id, s] : stats) n += s.valid;
  return n;
}

std::size_t AuditReport::TotalInvalid() const {
  std::size_t n = 0;
  for (const auto& [id, s] : stats) n += s.invalid;
  return n;
}

std::size_t AuditReport::TotalHidden() const {
  std::size_t n = 0;
  for (const auto& [id, s] : stats) n += s.hidden;
  return n;
}

std::string AuditReport::Render() const {
  std::map<Finding, std::size_t> by_finding;
  for (const auto& v : verdicts) ++by_finding[v.finding];

  std::string out;
  out += "=== Audit report ===\n";
  out += "transmission instances: " + std::to_string(verdicts.size()) + "\n";
  out += "entries: valid=" + std::to_string(TotalValid()) +
         " invalid=" + std::to_string(TotalInvalid()) +
         " hidden=" + std::to_string(TotalHidden()) + "\n";
  out += "findings:\n";
  for (const auto& [finding, count] : by_finding) {
    out += "  " + std::string(FindingName(finding)) + ": " +
           std::to_string(count) + "\n";
  }
  out += "per-component:\n";
  for (const auto& [id, s] : stats) {
    out += "  " + id + ": valid=" + std::to_string(s.valid) +
           " invalid=" + std::to_string(s.invalid) +
           " hidden=" + std::to_string(s.hidden) +
           " blamed=" + std::to_string(s.blamed) + "\n";
  }
  out += "unfaithful components:";
  if (unfaithful.empty()) {
    out += " (none)\n";
  } else {
    for (const auto& id : unfaithful) out += " " + id;
    out += "\n";
  }
  // Fleet findings appear only when there are any: an honest replicated
  // fleet renders byte-identically to a single-logger audit.
  if (!replica_verdicts.empty()) {
    out += "replica findings:\n";
    for (const auto& v : replica_verdicts) {
      out += "  [" + std::string(ReplicaFindingName(v.finding)) + "] " +
             v.replica + " epoch " + std::to_string(v.epoch) + ": " +
             v.detail + "\n";
    }
  }
  return out;
}

}  // namespace adlp::audit
