// Pure per-pair audit evaluation — the executable decision tree of
// Lemmas 1-3. StreamingAuditor runs it, and so does Auditor::Audit, which
// is a replay of the log through StreamingAuditor.
//
// The tree has two halves:
//
//   DecideStructural  decides every verdict that needs no signature check
//                     (duplicates, impersonation, base scheme);
//   FinalizePairPlan  turns the outcomes of the four signature checks into
//                     the verdict.
//
// Both halves run on plain facts and booleans rather than on entries: the
// auditor reduces each entry to compact per-pair residue on arrival and
// discards it, then re-derives the verdict from that residue at every
// seal. Sealing early, re-opening on late arrivals and evicting under
// memory pressure therefore all converge to the same verdict.
#pragma once

#include <optional>

#include "audit/log_database.h"
#include "audit/verdict.h"
#include "crypto/sha256.h"

namespace adlp::audit {

/// Parses a raw 32-byte payload-hash field (h(D)). nullopt when the field
/// is malformed (wrong size).
std::optional<crypto::Digest> PayloadHashFromBytes(BytesView bytes);

/// Reconstructs the signed digest h(header || h(D)) an entry commits to,
/// from the parts the auditor retained (its payload hash and message
/// stamp). The header is rebuilt from the entry's own fields — this is what
/// rebinds a stored payload hash to THIS topic/seq/stamp, defeating
/// replays. `publisher` is the topic's unique publisher (the entry owner for
/// out-entries, the recorded peer or manifest publisher for in-entries).
crypto::Digest DigestFromParts(const std::string& topic,
                               const crypto::ComponentId& publisher,
                               std::uint64_t seq, Timestamp message_stamp,
                               const crypto::Digest& payload_hash);

/// Publisher of `topic` per the manifest, if listed.
std::optional<crypto::ComponentId> TopologyPublisherOf(
    const Topology& topology, const std::string& topic);

/// Evidence-shape facts the structural decision tree runs on, read off the
/// first entry of each side of the pair.
struct PairFacts {
  /// Resolved publisher (manifest, else out-entry owner, else in-entry
  /// peer; empty when nothing names one).
  crypto::ComponentId publisher;
  std::size_t pub_count = 0;
  std::size_t sub_count = 0;
  crypto::ComponentId pub_first_component;
  crypto::ComponentId sub_first_component;
  bool pub_base = false;  // first publisher entry uses the base scheme
  bool sub_base = false;  // first subscriber entry uses the base scheme
  /// Base-scheme consistency: publisher data equals subscriber data and the
  /// subscriber stored raw data (no hash). Only consulted when both sides
  /// exist and either is base-scheme.
  bool base_agree = false;
};

/// Everything FinalizePairPlan needs: the structural verdict prefix, which
/// sides exist, the digests each side commits to, and the outcome of each
/// signature check. A check is false when it failed or when it could not be
/// made at all (no key, no digest, or an empty signature).
struct PairPlan {
  bool done = false;  // verdict decided without signature checks
  PairVerdict verdict;
  bool has_publisher = false;
  bool has_subscriber = false;
  std::optional<crypto::Digest> pub_digest;
  std::optional<crypto::Digest> sub_digest;
  bool pub_self_ok = false;   // publisher's own signature, Eq. (3)
  bool pub_ack_ok = false;    // subscriber's ACK in the publisher entry
  bool sub_self_ok = false;   // subscriber's own signature, Eq. (3)
  bool sub_cross_ok = false;  // publisher's signature in the subscriber
                              // entry, Eq. (4)
};

/// The signature-free prefix of the decision tree: replayed sequence
/// numbers (duplicates), impersonated out-entries, and the base scheme's
/// unprovable outcomes. Fills plan.verdict's identity fields from `key` and
/// `facts.publisher`, and decides the verdict (plan.done) when one of those
/// branches fires. Returns plan.done.
bool DecideStructural(PairPlan& plan, const PairKey& key,
                      const PairFacts& facts);

/// Turns the check outcomes into the verdict: the rest of the decision
/// tree after DecideStructural.
PairVerdict FinalizePairPlan(PairPlan& plan);

}  // namespace adlp::audit
