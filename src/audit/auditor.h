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
#pragma once

#include "audit/log_database.h"
#include "audit/verdict.h"
#include "crypto/keystore.h"
#include "crypto/sig.h"

namespace adlp {

class ThreadPool;

namespace audit {

struct AuditorOptions {
  /// Evaluate base-scheme entries too (produces kUnprovable* findings that
  /// demonstrate the naive scheme's limitation).
  bool include_base_scheme = true;
};

/// Per-audit execution knobs. The defaults reproduce the historical serial
/// auditor exactly; any other setting produces a byte-identical report (the
/// parallel path evaluates the same pure per-pair function and merges
/// verdicts in the same deterministic order — see merge.h).
struct AuditOptions {
  /// Worker threads for shard evaluation. <= 1 runs the serial path.
  std::size_t threads = 1;

  /// Memoize signature verifications keyed by (public key, digest,
  /// signature). Sound because verification is a pure function of that
  /// triple (see crypto::VerifyCache); profitable because ADLP verifies
  /// every acknowledgement signature twice (once in each side's entry).
  bool cache = false;

  /// Optional externally owned pool to reuse across audits (amortizes
  /// thread spawn cost for fleet-scale batch audits). When null and
  /// threads > 1, a pool is created for the single call.
  ThreadPool* pool = nullptr;

  /// Optional externally owned memo cache, reused across audits (useful for
  /// incremental re-audits of a growing log, and for reading hit/lookup
  /// statistics afterwards). Implies `cache`; when null and `cache` is
  /// true, a per-call cache is used.
  crypto::VerifyCache* verify_cache = nullptr;
};

class Auditor {
 public:
  Auditor(const crypto::KeyStore& keys, AuditorOptions options = {})
      : keys_(keys), options_(options) {}

  /// Audits all entries against the topology manifest (serial).
  AuditReport Audit(const LogDatabase& db) const;

  /// Audits with explicit execution options; the report is byte-identical
  /// to the serial one for every setting.
  AuditReport Audit(const LogDatabase& db, const AuditOptions& exec) const;

  /// Convenience: builds the database internally.
  AuditReport Audit(std::vector<proto::LogEntry> entries,
                    Topology topology) const;

 private:
  // Pair evaluation itself — the PreparePair / EmitPairRequests /
  // FinalizePairPlan pipeline — lives in audit/pair_eval.h, shared with the
  // StreamingAuditor so both produce byte-identical verdicts by running the
  // same code.

  const crypto::KeyStore& keys_;
  AuditorOptions options_;
};

}  // namespace audit
}  // namespace adlp
