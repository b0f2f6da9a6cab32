// Trusted logger.
//
// Stores each log entry once, as its serialized record, in arrival order
// under an RFC 6962 Merkle tree, keeps the public-key registry, and exposes
// the query surface the auditor works from. It has no back-channel to the
// nodes: entries are pushed in, so a logger failure never interrupts the
// data plane (no single-point failure for the pub/sub system).
//
// The tree is periodically sealed into signed, hash-linked `EpochRoot`s
// (every `seal_every` appends and/or `seal_interval_ms` of wall time,
// checked lazily on append). Sealed roots make the store tamper-evident and
// are what replicas of the logger can be cross-audited against: divergent
// roots for the same epoch are logger equivocation, and sampled records
// verify in O(log n) with inclusion proofs.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "adlp/epoch.h"
#include "adlp/log_entry.h"
#include "adlp/log_tap.h"
#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "adlp/log_sink.h"
#include "crypto/keystore.h"
#include "crypto/merkle.h"
#include "crypto/sig.h"

namespace adlp::proto {

struct LogServerOptions {
  /// Seal an epoch once this many records accumulated since the last seal
  /// (0 disables count-triggered sealing).
  std::uint64_t seal_every = 0;
  /// Seal when this much wall time passed since the last seal (or since
  /// construction, before any seal), checked lazily on append (0 disables
  /// time-triggered sealing). A quiet logger seals on its next append, not
  /// on a timer thread.
  std::int64_t seal_interval_ms = 0;
  /// Identity the sealed roots carry (the replica's name in a fleet).
  crypto::ComponentId logger_id = "logger";
  /// Seed for the deterministic Ed25519 sealing key. Replicas of one
  /// logical logger share a seed so an auditor can verify the whole fleet
  /// under one public key.
  std::uint64_t seal_key_seed = 0x5ea1;
  /// Time source for `sealed_at` (nullptr = wall clock).
  const Clock* clock = nullptr;
};

class LogServer final : public LogSink {
 public:
  LogServer() : LogServer(LogServerOptions{}) {}
  explicit LogServer(LogServerOptions options);

  // --- LogSink ---
  void RegisterKey(const crypto::ComponentId& id,
                   const crypto::PublicKey& key) override;
  void Append(const LogEntry& entry) override;

  // --- Query surface (auditor / experiments) ---
  /// Entries parsed from the stored records, in arrival order.
  std::vector<LogEntry> Entries() const;
  std::vector<LogEntry> EntriesFor(const crypto::ComponentId& id) const;
  std::size_t EntryCount() const;

  /// Total serialized bytes appended (what the log-generation-rate
  /// experiments in Fig. 15 / Table IV measure).
  std::uint64_t TotalBytes() const;
  std::uint64_t BytesFor(const crypto::ComponentId& id) const;

  const crypto::KeyStore& Keys() const { return keys_; }

  // --- Tamper evidence ---
  /// Recomputes the Merkle root over the stored records and compares it
  /// with the tree's root.
  bool VerifyRecords() const;
  /// Serialized records, e.g. for offline verification.
  std::vector<Bytes> SerializedRecords() const;
  /// Serialized records [first, first + count), clamped to what is stored
  /// (the sync protocol's range fetch).
  std::vector<Bytes> RecordRange(std::uint64_t first,
                                 std::uint64_t count) const;

  /// Test-only: corrupts the stored record at `index` (flips one byte) to
  /// demonstrate tamper evidence. Returns false if out of range. Entries()
  /// throws wire::WireError if the corrupted record no longer parses.
  bool CorruptRecordForTest(std::size_t index);

  // --- Epoch sealing ---
  /// Forces a seal over everything appended so far. Returns nullopt when
  /// nothing new was appended since the last seal (epochs never repeat a
  /// tree size).
  std::optional<EpochRoot> SealEpoch();
  /// Seals exactly the first `tree_size` records — the repair path uses
  /// this to reproduce a peer's epoch boundaries so both replicas map epoch
  /// -> (size, root) identically. Returns nullopt unless
  /// sealed_size < tree_size <= current size.
  std::optional<EpochRoot> SealEpochAt(std::uint64_t tree_size);
  /// All seals so far, in epoch order.
  std::vector<EpochRoot> EpochRoots() const;
  /// Seals with epoch >= `epoch`, in epoch order (the sync protocol's
  /// frontier fetch).
  std::vector<EpochRoot> EpochRootsSince(std::uint64_t epoch) const;
  /// Current Merkle root (may be ahead of the last seal).
  crypto::Digest MerkleRoot() const;
  /// Inclusion proof for record `index` against the first `size` records
  /// (a sealed epoch's tree_size). Empty when out of range.
  std::vector<crypto::Digest> InclusionProof(std::uint64_t index,
                                             std::uint64_t size) const;
  /// Consistency proof between the trees over the first `old_size` and
  /// first `new_size` records. Empty when out of range
  /// (old_size > new_size or new_size > current size).
  std::vector<crypto::Digest> ConsistencyProof(std::uint64_t old_size,
                                               std::uint64_t new_size) const;
  /// Merkle root over the first `size` records (a past epoch's view).
  /// Returns nullopt when size > current size.
  std::optional<crypto::Digest> MerkleRootAt(std::uint64_t size) const;
  /// Public half of the sealing key (what the auditor verifies roots with).
  const crypto::PublicKey& SealKey() const { return seal_keys_.pub; }

  // --- Replicated upload dedup ---
  /// Records that upload `seq` from `sink_id` is being applied. kDuplicate
  /// when the (cumulatively acked) sequence was already applied — the
  /// caller must skip the frame. Sound because each sink's frames arrive
  /// FIFO per connection and a reconnect replays from the first unacked
  /// frame in order, so "seq <= watermark" exactly identifies
  /// retransmissions. kGap (watermark untouched) when `seq` skips past
  /// watermark + 1. A gap means the uploader's spool
  /// evicted unacked frames past its horizon — applying the frame anyway
  /// would append out of order and the replica's log would stop being a
  /// prefix of the fleet's, making Merkle-consistency-gated repair
  /// impossible forever. The server instead refuses the frame and waits
  /// for anti-entropy repair (repair.h) to fill the gap from a peer.
  /// Used by key-registration frames; entry frames go through
  /// ApplyTaggedEntry so watermark and record move atomically.
  enum class UploadSeqOutcome { kFresh, kDuplicate, kGap };
  UploadSeqOutcome NoteUploadSeqGapChecked(const std::string& sink_id,
                                           std::uint64_t seq);
  /// Gap-checked watermark advance + entry append + seal triggers in ONE
  /// critical section. Atomicity is what keeps the per-seal watermark
  /// snapshot exact: a seal can never observe a watermark covering a seq
  /// whose record is not yet in the tree (a repaired replica merging such a
  /// snapshot would dedup that frame forever and diverge).
  UploadSeqOutcome ApplyTaggedEntry(const std::string& sink_id,
                                    std::uint64_t seq, const LogEntry& entry);
  /// Highest applied upload seq for `sink_id` (0 = none).
  std::uint64_t UploadWatermark(const std::string& sink_id) const;
  /// The per-sink watermarks captured when epoch `epoch` was sealed (empty
  /// when out of range). Exact fleet-wide pairing: the replicated sink fans
  /// out one frame order, so "first tree_size records" and "uploads up to
  /// these seqs" name the same state on every honest replica.
  std::map<std::string, std::uint64_t> UploadWatermarksAtSeal(
      std::uint64_t epoch) const;

  // --- Anti-entropy repair commit ---
  enum class RepairAppendResult {
    kOk,
    /// The batch does not bridge the current tree size to
    /// `peer_root.tree_size`, or the epoch index does not extend the local
    /// seal chain (a bad request — or a concurrent upload won the race;
    /// the agent recomputes and retries).
    kBadRange,
    /// Some record does not deserialize as a LogEntry.
    kBadRecord,
    /// The resulting tree would NOT have root `peer_root.root` — a forged
    /// or rewritten range. Nothing is committed.
    kRootMismatch,
  };
  /// Verify-then-commit of one repaired epoch, atomically: stage `records`
  /// against a scratch tree, and only if the root at `peer_root.tree_size`
  /// equals the peer's SIGNED root, append them, max-merge
  /// `peer_watermarks` into the upload dedup table, and seal locally at the
  /// peer's exact boundary (so epoch -> (size, root) matches fleet-wide).
  /// On any non-kOk outcome the store is untouched — a hostile peer cannot
  /// poison it. With `records` empty this adopts a seal the local log
  /// already covers (tree_size <= current size, root verified against the
  /// local tree). The local seal snapshot stores `peer_watermarks`, the
  /// exact coverage at that boundary, not the possibly-further-along local
  /// table.
  RepairAppendResult CommitRepairedEpoch(
      const std::vector<Bytes>& records, const EpochRoot& peer_root,
      const std::map<std::string, std::uint64_t>& peer_watermarks);
  /// Const dry run of CommitRepairedEpoch's verification (nothing is ever
  /// committed) — the repair agent classifies a bad batch before it spends
  /// proof fetches on it.
  RepairAppendResult VerifyRepairBatch(const std::vector<Bytes>& records,
                                       const EpochRoot& peer_root) const;

  // --- Online consumers ---
  /// Attaches a tap that observes every subsequent key registration and
  /// appended entry in the server's arrival order (entry events are pushed
  /// inside the append critical section, so tap order == Entries() order).
  /// Only a tapped append copies the entry.
  /// The queue must outlive the server or be detached first; pass nullptr
  /// to detach. The tap's overflow policy decides what a lagging consumer
  /// costs: kDropNewest loses events, kBlock slows ingestion.
  void AttachTap(LogTapQueue* tap);

 private:
  std::optional<EpochRoot> SealLocked() REQUIRES(mu_);
  /// Seals the first `tree_size` records. `watermark_snapshot` overrides
  /// the stored per-seal watermark snapshot (repair passes the peer's
  /// at-seal values; nullptr snapshots the live table).
  std::optional<EpochRoot> SealAtLocked(
      std::uint64_t tree_size,
      const std::map<std::string, std::uint64_t>* watermark_snapshot = nullptr)
      REQUIRES(mu_);
  void MaybeSealLocked() REQUIRES(mu_);
  void AppendRecordLocked(const LogEntry& entry, Bytes record) REQUIRES(mu_);

  const LogServerOptions options_;
  const crypto::SigKeyPair seal_keys_;  // immutable after construction

  mutable Mutex mu_;
  // keys_ is internally synchronized (KeyStore has its own lock) and is
  // handed out by Keys() without mu_, so it is deliberately not guarded.
  crypto::KeyStore keys_;
  crypto::MerkleTree tree_ GUARDED_BY(mu_);
  /// The only copy of each entry. Every record parses: Append serialized
  /// it, and repair validates records before committing them.
  std::vector<Bytes> records_ GUARDED_BY(mu_);
  std::uint64_t total_bytes_ GUARDED_BY(mu_) = 0;
  std::map<crypto::ComponentId, std::uint64_t> bytes_by_component_
      GUARDED_BY(mu_);
  std::vector<EpochRoot> epoch_roots_ GUARDED_BY(mu_);
  /// Per-seal snapshot of upload_watermarks_, parallel to epoch_roots_
  /// (the sync protocol's seal-info payload).
  std::vector<std::map<std::string, std::uint64_t>> watermarks_at_seal_
      GUARDED_BY(mu_);
  std::uint64_t sealed_size_ GUARDED_BY(mu_) = 0;
  Timestamp last_seal_at_ GUARDED_BY(mu_) = 0;
  std::map<std::string, std::uint64_t> upload_watermarks_ GUARDED_BY(mu_);
  LogTapQueue* tap_ GUARDED_BY(mu_) = nullptr;
};

}  // namespace adlp::proto
