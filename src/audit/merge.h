// Deterministic verdict merging: folds per-pair verdicts into an
// AuditReport, and joins the reports of topic partitions into one.
//
// A StreamingAuditor folds its verdicts HERE, in PairKey order, when it
// finalizes. Auditor::Audit runs one StreamingAuditor per topic partition
// and joins their reports HERE too. Partitions hold disjoint topics, so the
// join — verdicts re-ordered by PairKey, per-component stats summed, blame
// sets united — yields byte for byte the report a single auditor over the
// whole log would have folded, for any number of partitions.
#pragma once

#include <vector>

#include "audit/verdict.h"

namespace adlp::audit {

/// Which sides of a pair actually had entries (the auditor keeps the entry
/// counts after discarding the entries themselves).
struct MergeSides {
  bool has_publisher = false;
  bool has_subscriber = false;
};

/// Folds one pair's verdict into the report: per-component entry
/// classification counts, blame set, and the verdict list itself. A side is
/// accounted only when its entry exists (`sides`), or when the audit proved
/// the entry should exist but was hidden.
void MergeVerdict(AuditReport& report, PairVerdict verdict, MergeSides sides);

/// Joins the reports of partitions over disjoint topic sets: verdicts in
/// PairKey order (topic, seq, subscriber), per-component stats summed,
/// unfaithful sets united. Parts carry no replica findings (those are
/// checked once, over the whole fleet).
AuditReport MergeReports(std::vector<AuditReport> parts);

}  // namespace adlp::audit
