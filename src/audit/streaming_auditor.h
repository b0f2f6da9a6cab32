// Online audit pipeline: consumes log entries as they arrive (e.g. drained
// from the log server's upload tap), keeps per-(publisher, subscriber,
// topic) shard state machines with bounded memory, feeds outstanding
// signature checks into VerifyDigestBatch in chunks, and finalizes verdicts
// per epoch — so a lying component is flagged while the fleet is still
// running instead of at end-of-run. It is the only audit driver:
// Auditor::Audit replays a stored log through it with no intermediate
// seals.
//
// The load-bearing invariant: Finalize()'s report depends only on the
// multiset of entries consumed and, within each transmission instance, on
// their order — not on the epoch schedule, on eviction pressure, or on how
// entries of different instances interleave. So an online audit ends at
// the same report as Auditor::Audit over the stored log. It holds because
//  - every arriving entry is reduced immediately to the compact facts the
//    decision tree consumes (counts, first-entry identities, payload
//    hashes, message stamps, check outcomes), and
//  - the verdict is re-derived from those facts by the same pure code
//    (audit/pair_eval.h DecideStructural + FinalizePairPlan) at every seal,
//    so sealing early, re-opening on late arrivals, and evicting under
//    memory pressure all converge to the seal-free answer.
//
// Memory: O(total pairs) compact residue (~250 B/pair: no payloads, no
// signatures once checks resolve) plus O(open pairs) working state, with
// `max_open_pairs` bounding the open set — the knob the upload-stream fuzz
// test drives.
//
// Publisher resolution across time: for topics in the manifest the
// publisher is pinned up front. For off-manifest topics a subscriber-side
// entry resolves the publisher provisionally from its recorded peer, and a
// later publisher entry can re-resolve it; the subscriber's signatures are
// retained for exactly this case so its checks can be re-verified under the
// re-derived digest. Publisher-side checks never go stale: once an
// out-entry exists the resolution is final.
//
// Keys: checks whose signer has no registered key yet stay pending and are
// re-tried at every flush, so a key that registers later (cross-connection
// ordering on the live upload path) still lands before Finalize. A check
// whose signer never registers is structurally false.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "adlp/epoch.h"
#include "audit/log_database.h"
#include "audit/verdict.h"
#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "crypto/keystore.h"
#include "crypto/sig.h"

namespace adlp::audit {

struct StreamingOptions {
  /// Evaluate base-scheme entries too (kUnprovable* findings); mirrors
  /// AuditorOptions::include_base_scheme.
  bool include_base_scheme = true;

  /// Newly enqueued signature checks that trigger a VerifyDigestBatch
  /// flush.
  std::size_t chunk_checks = 256;

  /// Upper bound on simultaneously open (unsealed) pairs; 0 = unbounded.
  /// When exceeded, the least-recently-touched shards are force-sealed
  /// until the open set is at half the bound. Evicted pairs re-open on
  /// late arrivals, so the bound never costs report fidelity.
  std::size_t max_open_pairs = 0;

  /// Fleet sealing key for OnEpochRoot cross-checking. When set and roots
  /// were fed, Finalize() appends replica findings (roots-only checks:
  /// seal signatures, chain linkage, cross-replica equivocation) to the
  /// report. Honest fleets contribute nothing, so an honest fleet's report
  /// stays byte-identical to Auditor::Audit's.
  std::optional<crypto::PublicKey> seal_key;

  /// Online detection hook: invoked once per pair, at the first seal whose
  /// verdict is not kOk, with the verdict and the detection latency
  /// (seal time minus the pair's first entry arrival, ns). Called WITHOUT
  /// the auditor's lock, from the thread that sealed the pair.
  std::function<void(const PairVerdict&, Timestamp detect_ns)> on_finding;
};

struct StreamingStats {
  std::size_t entries = 0;        // entries consumed
  std::size_t pairs = 0;          // distinct transmission pairs seen
  std::size_t open_pairs = 0;     // currently unsealed pairs
  std::size_t open_shards = 0;    // shards with at least one open pair
  std::size_t epochs = 0;         // SealEpoch() calls
  std::size_t flagged = 0;        // pairs flagged online (non-kOk at seal)
  std::size_t late_entries = 0;   // entries that re-opened a sealed pair
  std::size_t evicted_pairs = 0;  // pairs force-sealed at the memory bound
  std::size_t unresolved_checks = 0;  // checks awaiting key or flush
};

class StreamingAuditor {
 public:
  /// `keys` is the (shared, thread-safe) registry checks resolve against —
  /// typically the log server's. `topology` is the manifest, fixed for the
  /// run.
  StreamingAuditor(const crypto::KeyStore& keys, Topology topology,
                   const StreamingOptions& options = {});

  /// Gives this auditor's open pairs and shards back to the process-wide
  /// gauges.
  ~StreamingAuditor();

  StreamingAuditor(const StreamingAuditor&) = delete;
  StreamingAuditor& operator=(const StreamingAuditor&) = delete;

  /// Consumes one uploaded log entry, in server arrival order. Thread-safe.
  void OnEntry(const proto::LogEntry& entry) EXCLUDES(mu_);

  /// Observes one replica's sealed epoch root (e.g. a kEpochRoot tap
  /// event). Accumulated per replica and cross-checked at Finalize when
  /// `StreamingOptions::seal_key` is set. Thread-safe.
  void OnEpochRoot(const std::string& replica, const proto::EpochRoot& root)
      EXCLUDES(mu_);

  /// Closes the current epoch: flushes outstanding checks, seals every open
  /// pair, and fires on_finding for newly flagged ones. A pair receiving an
  /// entry after its epoch sealed is counted late, re-opened, and
  /// re-audited at the next seal — never silently merged.
  void SealEpoch() EXCLUDES(mu_);

  /// Final seal plus the full report over every entry this auditor
  /// consumed, verdicts in PairKey order.
  AuditReport Finalize() EXCLUDES(mu_);

  StreamingStats Stats() const EXCLUDES(mu_);

 private:
  /// Outcome of one signature check, tracked per pair from arrival.
  enum class Check : std::uint8_t {
    kAbsent,   // structurally false: no digest or empty signature
    kPending,  // enqueued, awaiting flush (or the signer's key)
    kPass,
    kFail,
  };
  enum CheckIndex : int { kPubSelf = 0, kPubAck = 1, kSubSelf = 2,
                          kSubCross = 3 };

  /// Owned material of one pending check; freed once the batch resolves it.
  struct CheckSpec {
    crypto::ComponentId signer;
    crypto::Digest digest{};
    Bytes signature;
  };
  struct PendingChecks {
    std::array<std::optional<CheckSpec>, 4> spec;
  };

  /// Subscriber signatures retained for off-manifest topics only, where a
  /// late publisher entry can change the resolved publisher and the
  /// subscriber checks must be re-verified under the re-derived digest.
  struct RetainedSubSigs {
    Bytes self_signature;
    Bytes cross_signature;
  };

  /// Hashes of one arriving entry, taken once before it fans out to its
  /// pairs.
  struct EntryHashes {
    std::optional<crypto::Digest> claimed;  // h(D) the entry commits to
    crypto::Digest data_sha{};              // h(raw data field)
  };

  /// Compact residue of one side of a pair: everything the decision tree
  /// reads from the side's FIRST entry, plus the entry count.
  struct SideState {
    std::uint32_t count = 0;
    crypto::ComponentId first_component;
    bool base = false;
    bool has_payload_hash = false;
    crypto::Digest payload_hash{};   // h(D) the first entry commits to
    crypto::Digest data_sha{};       // h(raw data field), for base agreement
    Timestamp message_stamp = 0;
    /// The signed digest h(header || h(D)) under the resolved publisher;
    /// nullopt when the payload hash is malformed.
    std::optional<crypto::Digest> digest;

    /// Rebuilds `digest` for `key` under `publisher`.
    void BindDigest(const PairKey& key, const crypto::ComponentId& publisher);
  };

  struct ShardState;

  struct PairState {
    SideState pub;
    SideState sub;
    bool sub_data_hash_empty = false; // first in-entry stored raw data
    crypto::ComponentId publisher;    // resolved publisher (see header)
    bool manifest_publisher = false;  // resolution pinned by the manifest
    std::array<Check, 4> checks{Check::kAbsent, Check::kAbsent,
                                Check::kAbsent, Check::kAbsent};
    std::unique_ptr<PendingChecks> pending;
    std::unique_ptr<RetainedSubSigs> retained;
    ShardState* shard = nullptr;
    bool open = false;
    bool queued = false;   // in verify_queue_
    bool flagged = false;  // on_finding fired for this pair
    Timestamp first_arrival_ns = 0;
  };
  /// One node of pairs_. Nodes are never erased, so pointers to them stay
  /// valid for the auditor's lifetime.
  using PairEntry = std::pair<const PairKey, PairState>;

  /// All transmission instances between one (publisher, subscriber) pair on
  /// one topic: the unit eviction seals together.
  struct ShardKey {
    crypto::ComponentId publisher;
    crypto::ComponentId subscriber;
    std::string topic;

    auto operator<=>(const ShardKey&) const = default;
  };

  struct ShardState {
    std::uint64_t last_touch = 0;
    std::size_t open = 0;
    /// Open pairs homed here; entries go stale when a pair seals or
    /// re-homes (publisher re-resolution) and are skipped on iteration.
    std::vector<PairEntry*> open_pairs;
  };

  struct FlaggedVerdict {
    PairVerdict verdict;
    Timestamp detect_ns = 0;
  };
  struct Outcome {
    bool skipped = false;  // base-scheme pair under include_base_scheme off
    PairVerdict verdict;
  };

  void ApplyLocked(const PairKey& key, const proto::LogEntry& entry,
                   const EntryHashes& hashes, bool publisher_side,
                   BytesView ack_hash, BytesView ack_sig, Timestamp now)
      REQUIRES(mu_);
  void SetCheckLocked(PairState& st, int index,
                      const std::optional<crypto::Digest>& digest,
                      const crypto::ComponentId& signer, BytesView signature)
      REQUIRES(mu_);
  void RecomputeSubChecksLocked(const PairKey& key, PairState& st)
      REQUIRES(mu_);
  void OpenPairLocked(PairEntry& pair) REQUIRES(mu_);
  void RehomeLocked(PairEntry& pair) REQUIRES(mu_);
  void ShardGainedLocked(ShardState& shard) REQUIRES(mu_);
  void ShardLostLocked(ShardState& shard) REQUIRES(mu_);
  void FlushLocked() REQUIRES(mu_);
  Outcome ComputeVerdictLocked(const PairKey& key, const PairState& st) const
      REQUIRES(mu_);
  void ClosePairLocked(PairState& st, const Outcome& out, Timestamp now,
                       std::vector<FlaggedVerdict>& flagged) REQUIRES(mu_);
  void SealShardLocked(ShardState& shard, Timestamp now,
                       std::vector<FlaggedVerdict>& flagged) REQUIRES(mu_);
  void EvictLocked(Timestamp now, std::vector<FlaggedVerdict>& flagged)
      REQUIRES(mu_);
  void FireCallbacks(std::vector<FlaggedVerdict> flagged);

  const crypto::KeyStore& keys_;
  const Topology topology_;
  const StreamingOptions options_;

  mutable Mutex mu_;
  std::map<PairKey, PairState> pairs_ GUARDED_BY(mu_);
  /// Replica name -> sealed roots in feed order (OnEpochRoot).
  std::map<std::string, std::vector<proto::EpochRoot>> replica_roots_
      GUARDED_BY(mu_);
  std::map<ShardKey, ShardState> shards_ GUARDED_BY(mu_);
  std::vector<PairState*> verify_queue_ GUARDED_BY(mu_);
  std::size_t open_pairs_ GUARDED_BY(mu_) = 0;
  std::size_t open_shards_ GUARDED_BY(mu_) = 0;
  std::size_t unresolved_checks_ GUARDED_BY(mu_) = 0;
  std::size_t fresh_checks_ GUARDED_BY(mu_) = 0;
  std::uint64_t touch_counter_ GUARDED_BY(mu_) = 0;
  StreamingStats stats_ GUARDED_BY(mu_);
};

}  // namespace adlp::audit
