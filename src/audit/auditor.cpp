#include "audit/auditor.h"

#include <algorithm>
#include <numeric>
#include <optional>

#include "audit/merge.h"
#include "audit/pair_eval.h"
#include "common/clock.h"
#include "common/thread_pool.h"
#include "crypto/sig.h"
#include "obs/instrument.h"

namespace adlp::audit {

using proto::LogScheme;

std::string_view FindingName(Finding f) {
  switch (f) {
    case Finding::kOk: return "ok";
    case Finding::kPublisherHidEntry: return "publisher-hid-entry";
    case Finding::kSubscriberHidEntry: return "subscriber-hid-entry";
    case Finding::kPublisherFalsified: return "publisher-falsified";
    case Finding::kSubscriberFalsified: return "subscriber-falsified";
    case Finding::kPublisherFabricated: return "publisher-fabricated";
    case Finding::kSubscriberFabricated: return "subscriber-fabricated";
    case Finding::kPublisherSelfAuthFailed: return "publisher-self-auth-failed";
    case Finding::kSubscriberSelfAuthFailed:
      return "subscriber-self-auth-failed";
    case Finding::kDuplicateEntry: return "duplicate-entry";
    case Finding::kConflictUnresolvable: return "conflict-unresolvable";
    case Finding::kUnprovableConsistent: return "unprovable-consistent";
    case Finding::kUnprovableConflict: return "unprovable-conflict";
    case Finding::kUnprovableMissing: return "unprovable-missing";
  }
  return "unknown";
}

AuditReport Auditor::Audit(std::vector<proto::LogEntry> entries,
                           Topology topology) const {
  return Audit(LogDatabase(std::move(entries), std::move(topology)));
}

AuditReport Auditor::Audit(const LogDatabase& db) const {
  return Audit(db, AuditOptions{});
}

AuditReport Auditor::Audit(const LogDatabase& db,
                           const AuditOptions& exec) const {
  const Timestamp wall_start = MonotonicNowNs();
  // Pairs in the database's deterministic iteration order; verdict slot i
  // belongs to pair i. A disabled slot (base-scheme pair with
  // include_base_scheme off) stays nullopt and is skipped by the merge, so
  // the report matches the serial auditor's `continue` exactly.
  std::vector<const std::map<PairKey, PairEvidence>::value_type*> pairs;
  pairs.reserve(db.Pairs().size());
  for (const auto& kv : db.Pairs()) pairs.push_back(&kv);
  std::vector<std::optional<PairVerdict>> verdicts(pairs.size());

  obs::metric::AuditRunsTotal().Add(1);
  obs::metric::AuditPairsTotal().Add(pairs.size());

  crypto::VerifyCache cache_storage;
  crypto::VerifyCache* cache = exec.verify_cache != nullptr
                                   ? exec.verify_cache
                                   : (exec.cache ? &cache_storage : nullptr);
  const std::size_t cache_lookups_before = cache ? cache->Lookups() : 0;
  const std::size_t cache_hits_before = cache ? cache->Hits() : 0;

  // Pairs are audited in chunks: each chunk prepares its plans, gathers
  // every outstanding signature check into ONE VerifyDigestBatch call
  // (duplicate triples verified once; Ed25519 checks collapse into a single
  // combined-equation batch), then finalizes verdicts. Chunking changes
  // only how many checks share a batch — every verdict is still the pure
  // serial decision function of its own pair, so the report is
  // byte-identical for any chunk size or schedule.
  constexpr std::size_t kChunkPairs = 256;
  auto evaluate_chunk = [&](const std::size_t* index, std::size_t count) {
    std::vector<PairPlan> plans;
    plans.reserve(count);
    for (std::size_t j = 0; j < count; ++j) {
      const auto& [key, evidence] = *pairs[index[j]];
      const bool is_base =
          (!evidence.publisher.empty() &&
           evidence.publisher.front().entry->scheme == LogScheme::kBase) ||
          (!evidence.subscriber.empty() &&
           evidence.subscriber.front()->scheme == LogScheme::kBase);
      if (is_base && !options_.include_base_scheme) {
        PairPlan skipped;
        skipped.skip = true;
        plans.push_back(std::move(skipped));
        continue;
      }
      plans.push_back(PreparePair(keys_, db.topology(), key, evidence));
    }
    // Requests point into the plans, so emission starts only after every
    // plan for the chunk is in place.
    std::vector<crypto::VerifyRequest> requests;
    requests.reserve(4 * count);
    for (PairPlan& plan : plans) EmitPairRequests(plan, requests);
    const std::vector<std::uint8_t> results =
        crypto::VerifyDigestBatch(requests, cache);
    for (std::size_t j = 0; j < count; ++j) {
      if (plans[j].skip) continue;
      verdicts[index[j]] = FinalizePairPlan(plans[j], results);
    }
  };

  if (exec.threads <= 1 && exec.pool == nullptr) {
    std::vector<std::size_t> order(pairs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (std::size_t start = 0; start < order.size(); start += kChunkPairs) {
      evaluate_chunk(order.data() + start,
                     std::min(kChunkPairs, order.size() - start));
    }
  } else {
    // Shard-parallel evaluation: each (publisher, subscriber, topic) shard
    // is split into chunk tasks, so entries of one conversation stay on one
    // worker (warm key material, no false sharing of adjacent verdict slots
    // in practice). Workers write disjoint verdict slots; the merge below
    // is the only aggregation and runs serially.
    const std::vector<PairShard>& shards = db.Shards();
    std::optional<ThreadPool> local_pool;
    ThreadPool* pool = exec.pool;
    if (pool == nullptr) {
      local_pool.emplace(exec.threads);
      pool = &*local_pool;
    }
    for (const PairShard& shard : shards) {
      const std::size_t* base = shard.pair_indices.data();
      const std::size_t total = shard.pair_indices.size();
      for (std::size_t start = 0; start < total; start += kChunkPairs) {
        const std::size_t count = std::min(kChunkPairs, total - start);
        pool->Submit([&evaluate_chunk, base, start, count] {
          obs::TraceLog::Global().Record(obs::TraceKind::kAuditShardStart, "",
                                         count);
          const Timestamp shard_start = MonotonicNowNs();
          evaluate_chunk(base + start, count);
          obs::metric::AuditShardNs().Record(
              static_cast<std::uint64_t>(MonotonicNowNs() - shard_start));
          obs::TraceLog::Global().Record(obs::TraceKind::kAuditShardFinish, "",
                                         count);
        });
      }
    }
    pool->Wait();
  }

  AuditReport report;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (!verdicts[i]) continue;
    MergeVerdict(report, std::move(*verdicts[i]), pairs[i]->second);
  }
  if (cache != nullptr) {
    obs::metric::VerifyCacheLookupsTotal().Add(cache->Lookups() -
                                               cache_lookups_before);
    obs::metric::VerifyCacheHitsTotal().Add(cache->Hits() -
                                            cache_hits_before);
  }
  obs::metric::AuditWallNs().Record(
      static_cast<std::uint64_t>(MonotonicNowNs() - wall_start));
  return report;
}

}  // namespace adlp::audit
