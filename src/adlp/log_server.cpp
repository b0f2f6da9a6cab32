#include "adlp/log_server.h"

#include <algorithm>
#include <limits>

#include "common/rng.h"
#include "obs/instrument.h"
#include "wire/wire.h"

namespace adlp::proto {

LogServer::LogServer(LogServerOptions options)
    : options_(std::move(options)),
      seal_keys_(EpochSealKeys(options_.seal_key_seed)),
      // The interval trigger measures from construction (then from the last
      // seal), not from the clock's epoch 0: otherwise the very first append
      // under a wall clock always seals a 1-record epoch immediately.
      last_seal_at_(
          (options_.clock != nullptr ? options_.clock : &WallClock::Instance())
              ->Now()) {}

void LogServer::RegisterKey(const crypto::ComponentId& id,
                            const crypto::PublicKey& key) {
  // Register before publishing the event so a consumer that pops it is
  // guaranteed to find the key in Keys().
  keys_.Register(id, key);
  MutexLock lock(mu_);
  if (tap_ != nullptr) {
    TapEvent event;
    event.kind = TapEvent::Kind::kKey;
    event.component = id;
    event.key = key;
    tap_->Push(std::move(event));
  }
}

void LogServer::Append(const LogEntry& entry) {
  const Bytes record = SerializeLogEntry(entry);
  MutexLock lock(mu_);
  AppendRecordLocked(entry, record);
  MaybeSealLocked();
}

void LogServer::AppendRecordLocked(const LogEntry& entry, BytesView record) {
  tree_.Append(record);
  total_bytes_ += record.size();
  bytes_by_component_[entry.component] += record.size();
  records_.Append(record);
  if (tap_ != nullptr) {
    // Inside the critical section so tap order is exactly arrival order —
    // the streaming auditor sees the same sequence a later Entries() batch
    // read would. A kBlock tap therefore throttles ingestion here; the
    // data plane's publisher ACKs are unaffected (logging is out-of-band).
    TapEvent event;
    event.kind = TapEvent::Kind::kEntry;
    event.entry = entry;
    event.index = records_.Size() - 1;
    tap_->Push(std::move(event));
  }
}

void LogServer::MaybeSealLocked() {
  if (options_.seal_every == 0 && options_.seal_interval_ms == 0) return;
  const std::uint64_t unsealed = tree_.Size() - sealed_size_;
  if (unsealed == 0) return;
  bool due =
      options_.seal_every != 0 && unsealed >= options_.seal_every;
  if (!due && options_.seal_interval_ms != 0) {
    const Clock* clock =
        options_.clock != nullptr ? options_.clock : &WallClock::Instance();
    due = clock->Now() - last_seal_at_ >=
          options_.seal_interval_ms * 1'000'000;
  }
  if (due) SealLocked();
}

std::optional<EpochRoot> LogServer::SealLocked() {
  return SealAtLocked(tree_.Size());
}

std::optional<EpochRoot> LogServer::SealAtLocked(
    std::uint64_t tree_size,
    const std::map<std::string, std::uint64_t>* watermark_snapshot) {
  if (tree_size <= sealed_size_ || tree_size > tree_.Size()) {
    return std::nullopt;
  }
  const Clock* clock =
      options_.clock != nullptr ? options_.clock : &WallClock::Instance();
  EpochRoot root;
  root.epoch = epoch_roots_.size();
  root.tree_size = tree_size;
  root.root = tree_.RootAt(tree_size);
  root.prev_root_hash = epoch_roots_.empty()
                            ? EpochGenesis()
                            : EpochRootDigest(epoch_roots_.back());
  root.sealed_at = clock->Now();
  root.logger = options_.logger_id;
  root.signature = crypto::SignDigest(seal_keys_.priv, EpochRootDigest(root));
  epoch_roots_.push_back(root);
  // Snapshot the upload watermarks the seal pins: "first tree_size records"
  // and "uploads applied through these seqs" describe the same state, which
  // is what lets a repaired replica resume dedup at the sealed frontier.
  watermarks_at_seal_.push_back(
      watermark_snapshot != nullptr ? *watermark_snapshot : upload_watermarks_);
  sealed_size_ = root.tree_size;
  last_seal_at_ = root.sealed_at;
  obs::metric::EpochSealedTotal().Add();
  if (tap_ != nullptr) {
    TapEvent event;
    event.kind = TapEvent::Kind::kEpochRoot;
    event.epoch_root = root;
    tap_->Push(std::move(event));
  }
  return root;
}

std::optional<EpochRoot> LogServer::SealEpoch() {
  MutexLock lock(mu_);
  return SealLocked();
}

std::optional<EpochRoot> LogServer::SealEpochAt(std::uint64_t tree_size) {
  MutexLock lock(mu_);
  return SealAtLocked(tree_size);
}

std::vector<EpochRoot> LogServer::EpochRoots() const {
  MutexLock lock(mu_);
  return epoch_roots_;
}

std::vector<EpochRoot> LogServer::EpochRootsSince(std::uint64_t epoch) const {
  MutexLock lock(mu_);
  if (epoch >= epoch_roots_.size()) return {};
  return std::vector<EpochRoot>(
      epoch_roots_.begin() + static_cast<std::ptrdiff_t>(epoch),
      epoch_roots_.end());
}

crypto::Digest LogServer::MerkleRoot() const {
  MutexLock lock(mu_);
  return tree_.Root();
}

std::vector<crypto::Digest> LogServer::InclusionProof(
    std::uint64_t index, std::uint64_t size) const {
  MutexLock lock(mu_);
  return tree_.InclusionProof(index, size);
}

std::vector<crypto::Digest> LogServer::ConsistencyProof(
    std::uint64_t old_size, std::uint64_t new_size) const {
  MutexLock lock(mu_);
  if (old_size > new_size || new_size > tree_.Size()) return {};
  return tree_.ConsistencyProof(old_size, new_size);
}

std::optional<crypto::Digest> LogServer::MerkleRootAt(
    std::uint64_t size) const {
  MutexLock lock(mu_);
  if (size > tree_.Size()) return std::nullopt;
  return tree_.RootAt(size);
}

LogServer::UploadSeqOutcome LogServer::NoteUploadSeqGapChecked(
    const std::string& sink_id, std::uint64_t seq) {
  MutexLock lock(mu_);
  std::uint64_t& watermark = upload_watermarks_[sink_id];
  if (seq <= watermark) return UploadSeqOutcome::kDuplicate;
  if (seq > watermark + 1) return UploadSeqOutcome::kGap;
  watermark = seq;
  return UploadSeqOutcome::kFresh;
}

LogServer::UploadSeqOutcome LogServer::ApplyTaggedEntry(
    const std::string& sink_id, std::uint64_t seq, const LogEntry& entry) {
  const Bytes record = SerializeLogEntry(entry);
  MutexLock lock(mu_);
  std::uint64_t& watermark = upload_watermarks_[sink_id];
  if (seq <= watermark) return UploadSeqOutcome::kDuplicate;
  if (seq > watermark + 1) return UploadSeqOutcome::kGap;
  watermark = seq;
  AppendRecordLocked(entry, record);
  MaybeSealLocked();
  return UploadSeqOutcome::kFresh;
}

std::uint64_t LogServer::UploadWatermark(const std::string& sink_id) const {
  MutexLock lock(mu_);
  const auto it = upload_watermarks_.find(sink_id);
  return it == upload_watermarks_.end() ? 0 : it->second;
}

std::map<std::string, std::uint64_t> LogServer::UploadWatermarksAtSeal(
    std::uint64_t epoch) const {
  MutexLock lock(mu_);
  if (epoch >= watermarks_at_seal_.size()) return {};
  return watermarks_at_seal_[epoch];
}

LogServer::RepairAppendResult LogServer::VerifyRepairBatch(
    const std::vector<Bytes>& records, const EpochRoot& peer_root) const {
  MutexLock lock(mu_);
  if (records.empty()) {
    if (peer_root.tree_size > tree_.Size()) {
      return RepairAppendResult::kBadRange;
    }
    return tree_.RootAt(peer_root.tree_size) == peer_root.root
               ? RepairAppendResult::kOk
               : RepairAppendResult::kRootMismatch;
  }
  if (tree_.Size() + records.size() != peer_root.tree_size) {
    return RepairAppendResult::kBadRange;
  }
  for (const Bytes& record : records) {
    try {
      (void)DeserializeLogEntry(record);
    } catch (const wire::WireError&) {
      return RepairAppendResult::kBadRecord;
    }
  }
  crypto::MerkleTree scratch = tree_;
  for (const Bytes& record : records) scratch.Append(record);
  return scratch.Root() == peer_root.root ? RepairAppendResult::kOk
                                          : RepairAppendResult::kRootMismatch;
}

LogServer::RepairAppendResult LogServer::CommitRepairedEpoch(
    const std::vector<Bytes>& records, const EpochRoot& peer_root,
    const std::map<std::string, std::uint64_t>& peer_watermarks) {
  MutexLock lock(mu_);
  if (peer_root.epoch != epoch_roots_.size() ||
      peer_root.tree_size <= sealed_size_) {
    return RepairAppendResult::kBadRange;
  }
  std::vector<LogEntry> staged;
  staged.reserve(records.size());
  if (records.empty()) {
    // Adopting a seal the local log already covers (we held unsealed
    // records past the peer's boundary): the local tree must agree.
    if (peer_root.tree_size > tree_.Size()) {
      return RepairAppendResult::kBadRange;
    }
    if (tree_.RootAt(peer_root.tree_size) != peer_root.root) {
      return RepairAppendResult::kRootMismatch;
    }
  } else {
    if (tree_.Size() + records.size() != peer_root.tree_size) {
      return RepairAppendResult::kBadRange;
    }
    for (const Bytes& record : records) {
      try {
        staged.push_back(DeserializeLogEntry(record));
      } catch (const wire::WireError&) {
        return RepairAppendResult::kBadRecord;
      }
    }
    // Stage against a scratch tree: nothing is committed unless the batch
    // reproduces the peer's signed root, so a forged or rewritten range
    // can never poison the store.
    crypto::MerkleTree scratch = tree_;
    for (const Bytes& record : records) scratch.Append(record);
    if (scratch.Root() != peer_root.root) {
      return RepairAppendResult::kRootMismatch;
    }
    for (std::size_t i = 0; i < records.size(); ++i) {
      AppendRecordLocked(staged[i], records[i]);
    }
  }
  // Dedup state and seal move with the records, atomically: the watermark
  // merge is exactly the peer's at-seal coverage (local <= peer per sink,
  // both logs being prefixes of one fleet-wide frame order), and the local
  // seal snapshot stores those same values so repair chains transitively.
  for (const auto& [sink, seq] : peer_watermarks) {
    std::uint64_t& watermark = upload_watermarks_[sink];
    watermark = std::max(watermark, seq);
  }
  (void)SealAtLocked(peer_root.tree_size, &peer_watermarks);
  return RepairAppendResult::kOk;
}

void LogServer::AttachTap(LogTapQueue* tap) {
  MutexLock lock(mu_);
  tap_ = tap;
}

std::vector<LogEntry> LogServer::Entries() const {
  MutexLock lock(mu_);
  std::vector<LogEntry> out;
  out.reserve(records_.Size());
  for (std::size_t i = 0; i < records_.Size(); ++i) {
    out.push_back(DeserializeLogEntry(records_[i]));
  }
  return out;
}

std::vector<LogEntry> LogServer::EntriesFor(
    const crypto::ComponentId& id) const {
  MutexLock lock(mu_);
  std::vector<LogEntry> out;
  for (std::size_t i = 0; i < records_.Size(); ++i) {
    LogEntry entry = DeserializeLogEntry(records_[i]);
    if (entry.component == id) out.push_back(std::move(entry));
  }
  return out;
}

std::size_t LogServer::EntryCount() const {
  MutexLock lock(mu_);
  return records_.Size();
}

std::uint64_t LogServer::TotalBytes() const {
  MutexLock lock(mu_);
  return total_bytes_;
}

std::uint64_t LogServer::BytesFor(const crypto::ComponentId& id) const {
  MutexLock lock(mu_);
  const auto it = bytes_by_component_.find(id);
  return it == bytes_by_component_.end() ? 0 : it->second;
}

bool LogServer::VerifyRecords() const {
  MutexLock lock(mu_);
  crypto::MerkleTree recomputed;
  for (std::size_t i = 0; i < records_.Size(); ++i) {
    recomputed.Append(records_[i]);
  }
  return recomputed.Root() == tree_.Root();
}

std::vector<Bytes> LogServer::SerializedRecords() const {
  return RecordRange(0, std::numeric_limits<std::uint64_t>::max());
}

std::vector<Bytes> LogServer::RecordRange(std::uint64_t first,
                                          std::uint64_t count) const {
  MutexLock lock(mu_);
  if (first >= records_.Size()) return {};
  const std::uint64_t end =
      first + std::min<std::uint64_t>(count, records_.Size() - first);
  std::vector<Bytes> out;
  out.reserve(end - first);
  for (std::uint64_t i = first; i < end; ++i) {
    out.emplace_back(records_[i].begin(), records_[i].end());
  }
  return out;
}

bool LogServer::CorruptRecordForTest(std::size_t index) {
  MutexLock lock(mu_);
  if (index >= records_.Size() || records_[index].empty()) return false;
  records_.MutableRecordForTest(index)[0] ^= 0x01;
  return true;
}

}  // namespace adlp::proto
