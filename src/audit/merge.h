// Deterministic verdict merging: folds per-pair verdicts into an
// AuditReport.
//
// Both audit paths — serial and sharded-parallel — evaluate pairs with the
// same pure pair_eval pipeline and then fold the verdicts HERE, in the
// LogDatabase's pair-iteration order. Because the fold is the only stateful
// step and it always runs serially over identically ordered inputs, the
// parallel auditor's report is byte-identical to the serial one by
// construction, not by testing luck.
#pragma once

#include "audit/log_database.h"
#include "audit/verdict.h"

namespace adlp::audit {

/// Which sides of a pair actually had entries. The batch path derives this
/// from the live PairEvidence; the streaming path from the entry counts it
/// retained after discarding the entries themselves.
struct MergeSides {
  bool has_publisher = false;
  bool has_subscriber = false;
};

/// Folds one pair's verdict into the report: per-component entry
/// classification counts, blame set, and the verdict list itself. A side is
/// accounted only when its entry exists (`sides`), or when the audit proved
/// the entry should exist but was hidden.
void MergeVerdict(AuditReport& report, PairVerdict verdict, MergeSides sides);

/// Convenience overload reading the sides off the pair's evidence.
void MergeVerdict(AuditReport& report, PairVerdict verdict,
                  const PairEvidence& evidence);

}  // namespace adlp::audit
