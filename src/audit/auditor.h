// The auditor: classifies every log entry (valid / invalid / hidden),
// resolves disputes between publisher and subscriber entries, and names the
// responsible component — the executable form of Lemmas 1-3 and Theorems
// 1-2.
//
// Verification is purely offline: the auditor holds the public-key registry
// and the topology manifest, reconstructs each entry's signed digest
// h(seq || D) from the entry's own fields, and checks the entry's own
// signature (authenticity, Eq. (3)) plus the embedded counterpart signature
// (interdependence, Eq. (4)).
//
// There is one audit driver, StreamingAuditor. Audit() replays the stored
// log through it in log order with no intermediate seals. With several
// threads the log is split by topic into min(threads, topics) partitions,
// one StreamingAuditor each, and their reports are joined in audit/merge.h
// — byte-identical to the one-partition report for any thread count.
#pragma once

#include "audit/log_database.h"
#include "audit/verdict.h"
#include "crypto/keystore.h"

namespace adlp::audit {

struct AuditorOptions {
  /// Evaluate base-scheme entries too (produces kUnprovable* findings that
  /// demonstrate the naive scheme's limitation).
  bool include_base_scheme = true;
};

/// Per-audit execution knobs. Every setting produces a byte-identical
/// report: each topic partition runs the same pure per-pair code, and the
/// partition reports are joined in one deterministic order (see merge.h).
struct AuditOptions {
  /// Worker threads: the log is split into min(threads, distinct topics)
  /// topic partitions audited concurrently on a pool made for the call.
  /// <= 1 audits in the calling thread.
  std::size_t threads = 1;
};

class Auditor {
 public:
  Auditor(const crypto::KeyStore& keys, AuditorOptions options = {})
      : keys_(keys), options_(options) {}

  /// Audits all entries against the topology manifest (one thread).
  AuditReport Audit(const LogDatabase& db) const;

  /// Audits with explicit execution options; the report is byte-identical
  /// to the one-thread report for every setting.
  AuditReport Audit(const LogDatabase& db, const AuditOptions& exec) const;

  /// Convenience: builds the database internally.
  AuditReport Audit(std::vector<proto::LogEntry> entries,
                    Topology topology) const;

 private:
  const crypto::KeyStore& keys_;
  AuditorOptions options_;
};

}  // namespace adlp::audit
