#include "audit/streaming_auditor.h"

#include <utility>

#include "audit/merge.h"
#include "audit/pair_eval.h"
#include "audit/replica_check.h"
#include "obs/instrument.h"
#include "pubsub/message.h"

namespace adlp::audit {

using proto::Direction;
using proto::LogEntry;
using proto::LogScheme;

StreamingAuditor::StreamingAuditor(const crypto::KeyStore& keys,
                                   Topology topology,
                                   const StreamingOptions& options)
    : keys_(keys), topology_(std::move(topology)), options_(options) {}

StreamingAuditor::~StreamingAuditor() {
  MutexLock lock(mu_);
  obs::metric::StreamingOpenPairs().Sub(
      static_cast<std::int64_t>(open_pairs_));
  obs::metric::StreamingOpenShards().Sub(
      static_cast<std::int64_t>(open_shards_));
}

void StreamingAuditor::OnEntry(const LogEntry& entry) {
  const Timestamp now = MonotonicNowNs();
  // One pass over the payload per entry, however many pairs it fans out
  // to: an entry that stores raw data commits to exactly h(data).
  EntryHashes hashes;
  hashes.data_sha = pubsub::PayloadHash(entry.data);
  hashes.claimed = entry.data_hash.empty()
                       ? std::optional<crypto::Digest>(hashes.data_sha)
                       : PayloadHashFromBytes(entry.data_hash);
  std::vector<FlaggedVerdict> flagged;
  {
    MutexLock lock(mu_);
    ++stats_.entries;
    obs::metric::StreamingEntriesTotal().Add(1);

    // Expand the entry into per-pair contributions exactly as LogDatabase
    // does: in-entries key on their owner; aggregated out-entries fan out
    // one contribution per AckRecord; plain out-entries key on their peer;
    // peerless out-entries attach to every manifest subscriber (or to the
    // empty-subscriber pair for unknown topics).
    const auto apply = [&](crypto::ComponentId subscriber, bool publisher_side,
                           BytesView ack_hash, BytesView ack_sig) {
      ApplyLocked(PairKey{entry.topic, entry.seq, std::move(subscriber)},
                  entry, hashes, publisher_side, ack_hash, ack_sig, now);
    };
    if (entry.direction == Direction::kIn) {
      apply(entry.component, /*publisher_side=*/false, {}, {});
    } else if (!entry.acks.empty()) {
      for (const auto& ack : entry.acks) {
        apply(ack.subscriber, /*publisher_side=*/true, ack.data_hash,
              ack.signature);
      }
    } else if (!entry.peer.empty()) {
      apply(entry.peer, /*publisher_side=*/true, entry.peer_data_hash,
            entry.peer_signature);
    } else {
      const auto it = topology_.find(entry.topic);
      if (it != topology_.end() && !it->second.subscribers.empty()) {
        for (const auto& sub : it->second.subscribers) {
          apply(sub, /*publisher_side=*/true, entry.peer_data_hash,
                entry.peer_signature);
        }
      } else {
        apply({}, /*publisher_side=*/true, entry.peer_data_hash,
              entry.peer_signature);
      }
    }

    if (fresh_checks_ >= options_.chunk_checks) FlushLocked();
    if (options_.max_open_pairs != 0 &&
        open_pairs_ > options_.max_open_pairs) {
      EvictLocked(now, flagged);
    }
  }
  FireCallbacks(std::move(flagged));
}

void StreamingAuditor::ApplyLocked(const PairKey& key, const LogEntry& entry,
                                   const EntryHashes& hashes,
                                   bool publisher_side, BytesView ack_hash,
                                   BytesView ack_sig, Timestamp now) {
  const auto [it, created] = pairs_.try_emplace(key);
  PairEntry& pair = *it;
  PairState& st = pair.second;
  if (created) {
    ++stats_.pairs;
    st.first_arrival_ns = now;
    if (const auto p = TopologyPublisherOf(topology_, key.topic)) {
      st.publisher = *p;
      st.manifest_publisher = true;
    }
    OpenPairLocked(pair);
  } else if (!st.open) {
    // An entry for an already-sealed pair: count it, re-open, and let the
    // next seal re-audit — the verdict is re-derived from the updated
    // facts, so the late entry is flagged (e.g. as a duplicate) rather
    // than silently merged.
    ++stats_.late_entries;
    obs::metric::StreamingLateEntriesTotal().Add(1);
    OpenPairLocked(pair);
  }
  st.shard->last_touch = ++touch_counter_;

  SideState& side = publisher_side ? st.pub : st.sub;
  ++side.count;
  // Only the FIRST entry of a side feeds the decision tree (extra entries
  // make the pair a duplicate, decided from the count alone).
  if (side.count > 1) return;
  side.first_component = entry.component;
  side.base = entry.scheme == LogScheme::kBase;
  side.message_stamp = entry.message_stamp;
  side.data_sha = hashes.data_sha;
  if (hashes.claimed) {
    side.has_payload_hash = true;
    side.payload_hash = *hashes.claimed;
  }

  if (publisher_side) {
    // A live out-entry pins the publisher resolution for good (manifest
    // permitting). If a subscriber entry arrived first on an off-manifest
    // topic, its checks were issued under the provisional peer-derived
    // publisher and must be re-verified under this one.
    if (!st.manifest_publisher && st.publisher != entry.component) {
      st.publisher = entry.component;
      RehomeLocked(pair);
      RecomputeSubChecksLocked(key, st);
    }
    side.BindDigest(key, st.publisher);
    const std::optional<crypto::Digest>& digest = side.digest;
    SetCheckLocked(st, kPubSelf, digest, st.publisher,
                   entry.self_signature);
    // The ACK proves receipt of *this* publication only if the subscriber's
    // acknowledged payload hash matches the publisher's claim AND the ACK
    // signature verifies over the digest rebound to this entry's header — a
    // replayed ACK from an older seq fails because the rebound digest
    // embeds the sequence number. Without a matching hash the ACK check is
    // structurally false.
    const auto ack_payload = PayloadHashFromBytes(ack_hash);
    if (digest.has_value() && ack_payload.has_value() &&
        *ack_payload == side.payload_hash) {
      SetCheckLocked(st, kPubAck, digest, key.subscriber, ack_sig);
    }
  } else {
    st.sub_data_hash_empty = entry.data_hash.empty();
    if (!st.manifest_publisher && st.pub.count == 0) {
      st.publisher = entry.peer;
      RehomeLocked(pair);
    }
    side.BindDigest(key, st.publisher);
    SetCheckLocked(st, kSubSelf, side.digest, key.subscriber,
                   entry.self_signature);
    SetCheckLocked(st, kSubCross, side.digest, st.publisher,
                   entry.peer_signature);
    if (!topology_.contains(key.topic)) {
      // Off-manifest: a late publisher entry can re-resolve the publisher;
      // keep the signatures so the checks can be re-issued then.
      st.retained = std::make_unique<RetainedSubSigs>();
      st.retained->self_signature = entry.self_signature;
      st.retained->cross_signature = entry.peer_signature;
    }
  }
}

void StreamingAuditor::SetCheckLocked(
    PairState& st, int index,
    const std::optional<crypto::Digest>& digest,
    const crypto::ComponentId& signer, BytesView signature) {
  if (st.pending && st.pending->spec[static_cast<std::size_t>(index)]) {
    st.pending->spec[static_cast<std::size_t>(index)].reset();
    --unresolved_checks_;
  }
  if (!digest.has_value() || signature.empty()) {
    st.checks[static_cast<std::size_t>(index)] = Check::kAbsent;
    return;
  }
  if (!st.pending) st.pending = std::make_unique<PendingChecks>();
  st.pending->spec[static_cast<std::size_t>(index)] =
      CheckSpec{signer, *digest, Bytes(signature.begin(), signature.end())};
  st.checks[static_cast<std::size_t>(index)] = Check::kPending;
  ++unresolved_checks_;
  ++fresh_checks_;
  if (!st.queued) {
    st.queued = true;
    verify_queue_.push_back(&st);
  }
}

void StreamingAuditor::RecomputeSubChecksLocked(const PairKey& key,
                                                PairState& st) {
  if (st.sub.count == 0) return;
  static const Bytes kNoSig;
  const Bytes& self_sig =
      st.retained != nullptr ? st.retained->self_signature : kNoSig;
  const Bytes& cross_sig =
      st.retained != nullptr ? st.retained->cross_signature : kNoSig;
  st.sub.BindDigest(key, st.publisher);
  SetCheckLocked(st, kSubSelf, st.sub.digest, key.subscriber, self_sig);
  SetCheckLocked(st, kSubCross, st.sub.digest, st.publisher, cross_sig);
}

void StreamingAuditor::SideState::BindDigest(
    const PairKey& key, const crypto::ComponentId& publisher) {
  digest = has_payload_hash
               ? std::optional<crypto::Digest>(DigestFromParts(
                     key.topic, publisher, key.seq, message_stamp,
                     payload_hash))
               : std::nullopt;
}

void StreamingAuditor::OpenPairLocked(PairEntry& pair) {
  const PairKey& key = pair.first;
  PairState& st = pair.second;
  st.open = true;
  ++open_pairs_;
  obs::metric::StreamingOpenPairs().Add(1);
  ShardState& shard =
      shards_[ShardKey{st.publisher, key.subscriber, key.topic}];
  st.shard = &shard;
  ShardGainedLocked(shard);
  shard.open_pairs.push_back(&pair);
}

void StreamingAuditor::RehomeLocked(PairEntry& pair) {
  const PairKey& key = pair.first;
  PairState& st = pair.second;
  ShardState& shard =
      shards_[ShardKey{st.publisher, key.subscriber, key.topic}];
  if (st.shard == &shard) return;
  if (st.open) {
    ShardLostLocked(*st.shard);
    ShardGainedLocked(shard);
    shard.open_pairs.push_back(&pair);
    // The old shard's list entry becomes a tombstone; seal iteration skips
    // pairs whose current shard no longer matches.
  }
  st.shard = &shard;
}

// The process-wide gauges move with every open/seal transition, so they
// sum over all live auditors.
void StreamingAuditor::ShardGainedLocked(ShardState& shard) {
  if (shard.open++ != 0) return;
  ++open_shards_;
  obs::metric::StreamingOpenShards().Add(1);
}

void StreamingAuditor::ShardLostLocked(ShardState& shard) {
  if (--shard.open != 0) return;
  --open_shards_;
  obs::metric::StreamingOpenShards().Sub(1);
}

void StreamingAuditor::FlushLocked() {
  fresh_checks_ = 0;
  if (verify_queue_.empty()) return;
  std::vector<PairState*> queue;
  queue.swap(verify_queue_);

  // Each signer's key is looked up once per flush. Requests reference the
  // specs' owned signatures and the keys in this map (node-based: stable
  // addresses) — alive until the batch call returns. One key object per
  // signer is what lets VerifyDigestBatch's identity dedup verify a
  // signature that both sides' entries carry once.
  std::map<crypto::ComponentId, std::optional<crypto::PublicKey>> signer_keys;
  std::vector<crypto::VerifyRequest> requests;
  struct Slot {
    PairState* st;
    int index;
  };
  std::vector<Slot> slots;
  for (PairState* st : queue) {
    st->queued = false;
    if (!st->pending) continue;
    for (int i = 0; i < 4; ++i) {
      const auto& spec = st->pending->spec[static_cast<std::size_t>(i)];
      if (!spec) continue;
      const auto [key_it, fresh] = signer_keys.try_emplace(spec->signer);
      if (fresh) key_it->second = keys_.Find(spec->signer);
      // Unregistered signer: keep the check pending and retry at the next
      // flush, so a key that registers later still resolves before
      // Finalize.
      if (!key_it->second) continue;
      requests.push_back(crypto::VerifyRequest{&*key_it->second, spec->digest,
                                               spec->signature});
      slots.push_back(Slot{st, i});
    }
  }

  if (!requests.empty()) {
    const std::vector<std::uint8_t> results =
        crypto::VerifyDigestBatch(requests);
    for (std::size_t i = 0; i < slots.size(); ++i) {
      PairState& st = *slots[i].st;
      const auto index = static_cast<std::size_t>(slots[i].index);
      st.checks[index] = results[i] != 0 ? Check::kPass : Check::kFail;
      st.pending->spec[index].reset();
      --unresolved_checks_;
    }
  }

  // Free empty spec blocks; re-queue pairs still waiting on a key.
  for (PairState* st : queue) {
    if (!st->pending) continue;
    bool any = false;
    for (const auto& spec : st->pending->spec) any = any || spec.has_value();
    if (!any) {
      st->pending.reset();
      continue;
    }
    if (!st->queued) {
      st->queued = true;
      verify_queue_.push_back(st);
    }
  }
}

StreamingAuditor::Outcome StreamingAuditor::ComputeVerdictLocked(
    const PairKey& key, const PairState& st) const {
  Outcome out;
  if ((st.pub.base || st.sub.base) && !options_.include_base_scheme) {
    out.skipped = true;
    return out;
  }

  PairFacts facts;
  facts.publisher = st.publisher;
  facts.pub_count = st.pub.count;
  facts.sub_count = st.sub.count;
  facts.pub_first_component = st.pub.first_component;
  facts.sub_first_component = st.sub.first_component;
  facts.pub_base = st.pub.base;
  facts.sub_base = st.sub.base;
  if (st.pub.count > 0 && st.sub.count > 0) {
    // Base-scheme agreement compares raw data fields; equal SHA-256 of the
    // retained data stands in for the byte comparison.
    facts.base_agree =
        st.pub.data_sha == st.sub.data_sha && st.sub_data_hash_empty;
  }

  PairPlan plan;
  if (!DecideStructural(plan, key, facts)) {
    // Each side's digest was bound under the current publisher when its
    // first entry arrived or the publisher last re-resolved.
    plan.pub_digest = st.pub.digest;
    plan.sub_digest = st.sub.digest;
    // A check still pending here (signer key never registered) is
    // structurally false, like an absent one.
    plan.pub_self_ok = st.checks[kPubSelf] == Check::kPass;
    plan.pub_ack_ok = st.checks[kPubAck] == Check::kPass;
    plan.sub_self_ok = st.checks[kSubSelf] == Check::kPass;
    plan.sub_cross_ok = st.checks[kSubCross] == Check::kPass;
  }
  out.verdict = FinalizePairPlan(plan);
  return out;
}

void StreamingAuditor::ClosePairLocked(PairState& st, const Outcome& out,
                                       Timestamp now,
                                       std::vector<FlaggedVerdict>& flagged) {
  st.open = false;
  --open_pairs_;
  obs::metric::StreamingOpenPairs().Sub(1);
  ShardLostLocked(*st.shard);

  if (out.skipped || st.flagged || out.verdict.finding == Finding::kOk) {
    return;
  }
  st.flagged = true;
  ++stats_.flagged;
  obs::metric::StreamingFlaggedTotal().Add(1);
  const Timestamp detect = now > st.first_arrival_ns
                               ? now - st.first_arrival_ns
                               : Timestamp{0};
  obs::metric::StreamingDetectNs().Record(static_cast<std::uint64_t>(detect));
  flagged.push_back(FlaggedVerdict{out.verdict, detect});
}

void StreamingAuditor::SealShardLocked(ShardState& shard, Timestamp now,
                                       std::vector<FlaggedVerdict>& flagged) {
  std::vector<PairEntry*> pairs;
  pairs.swap(shard.open_pairs);
  for (PairEntry* pair : pairs) {
    PairState& st = pair->second;
    if (!st.open || st.shard != &shard) continue;  // tombstone
    ClosePairLocked(st, ComputeVerdictLocked(pair->first, st), now, flagged);
  }
}

void StreamingAuditor::EvictLocked(Timestamp now,
                                   std::vector<FlaggedVerdict>& flagged) {
  FlushLocked();
  const std::size_t target = options_.max_open_pairs / 2;
  while (open_pairs_ > target) {
    ShardState* victim = nullptr;
    for (auto& [shard_key, shard] : shards_) {
      if (shard.open == 0) continue;
      if (victim == nullptr || shard.last_touch < victim->last_touch) {
        victim = &shard;
      }
    }
    if (victim == nullptr) break;
    const std::size_t before = open_pairs_;
    SealShardLocked(*victim, now, flagged);
    const std::size_t sealed = before - open_pairs_;
    stats_.evicted_pairs += sealed;
    obs::metric::StreamingEvictedPairsTotal().Add(sealed);
  }
}

void StreamingAuditor::SealEpoch() {
  const Timestamp now = MonotonicNowNs();
  std::vector<FlaggedVerdict> flagged;
  {
    MutexLock lock(mu_);
    FlushLocked();
    for (auto& [shard_key, shard] : shards_) {
      if (shard.open > 0) SealShardLocked(shard, now, flagged);
    }
    ++stats_.epochs;
    obs::metric::StreamingEpochsTotal().Add(1);
  }
  FireCallbacks(std::move(flagged));
}

AuditReport StreamingAuditor::Finalize() {
  const Timestamp now = MonotonicNowNs();
  std::vector<FlaggedVerdict> flagged;
  AuditReport report;
  {
    MutexLock lock(mu_);
    // Final flush retries checks whose signer key registered late.
    FlushLocked();
    // One pass in PairKey order. Each pair's verdict is derived once from
    // its retained facts (pure, no crypto: every check already resolved);
    // it closes the pair if it is still open (the implicit final seal) and
    // is folded into the report.
    for (auto& [key, st] : pairs_) {
      Outcome out = ComputeVerdictLocked(key, st);
      if (st.open) ClosePairLocked(st, out, now, flagged);
      if (out.skipped) continue;
      MergeVerdict(report, std::move(out.verdict),
                   MergeSides{st.pub.count > 0, st.sub.count > 0});
    }
    // Every pair is sealed: the shards' open lists hold only tombstones.
    for (auto& [shard_key, shard] : shards_) shard.open_pairs.clear();
    // Fleet cross-check over accumulated roots (roots-only: the streaming
    // auditor holds no record store). Honest fleets contribute nothing.
    if (options_.seal_key.has_value() && !replica_roots_.empty()) {
      std::vector<ReplicaEvidence> fleet;
      fleet.reserve(replica_roots_.size());
      for (const auto& [name, roots] : replica_roots_) {
        ReplicaEvidence evidence;
        evidence.name = name;
        evidence.roots = roots;
        evidence.roots_only = true;
        fleet.push_back(std::move(evidence));
      }
      ReplicaCheckOptions check;
      check.seal_key = *options_.seal_key;
      ApplyReplicaFindings(report, CheckReplicas(fleet, check));
    }
  }
  FireCallbacks(std::move(flagged));
  return report;
}

void StreamingAuditor::OnEpochRoot(const std::string& replica,
                                   const proto::EpochRoot& root) {
  MutexLock lock(mu_);
  replica_roots_[replica].push_back(root);
}

StreamingStats StreamingAuditor::Stats() const {
  MutexLock lock(mu_);
  StreamingStats s = stats_;
  s.open_pairs = open_pairs_;
  s.open_shards = open_shards_;
  s.unresolved_checks = unresolved_checks_;
  return s;
}

void StreamingAuditor::FireCallbacks(std::vector<FlaggedVerdict> flagged) {
  if (!options_.on_finding) return;
  for (const FlaggedVerdict& f : flagged) {
    options_.on_finding(f.verdict, f.detect_ns);
  }
}

}  // namespace adlp::audit
