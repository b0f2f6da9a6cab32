// Indexed view over the trusted logger's entries: the entries in log order
// (what Auditor::Audit replays), plus an index that groups publisher and
// subscriber entries by transmission instance (topic, seq, subscriber) and
// expands aggregated publisher entries into per-subscriber views (what
// provenance and causality analysis walk).
#pragma once

#include <compare>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "adlp/log_entry.h"
#include "crypto/keystore.h"
#include "pubsub/master.h"

namespace adlp::audit {

using Topology = std::map<std::string, pubsub::Master::TopicInfo>;

/// Key of one transmission instance.
struct PairKey {
  std::string topic;
  std::uint64_t seq = 0;
  crypto::ComponentId subscriber;

  auto operator<=>(const PairKey&) const = default;
};

/// Publisher-side evidence for one instance: the entry plus the subscriber's
/// (hash, signature) pair, which lives either in the entry's dedicated
/// fields or in one AckRecord of an aggregated entry. Evidence refers into
/// the database's entries; it holds no copies.
struct PublisherEvidence {
  const proto::LogEntry* entry = nullptr;
  BytesView peer_data_hash;
  BytesView peer_signature;
};

struct PairEvidence {
  std::vector<PublisherEvidence> publisher;        // usually 0 or 1
  std::vector<const proto::LogEntry*> subscriber;  // usually 0 or 1
};

class LogDatabase {
 public:
  /// `topology` tells the auditor which subscriber set each topic has (the
  /// master's manifest); it is what turns "publisher logged, subscriber
  /// didn't" into a *hidden* subscriber entry rather than a non-event.
  LogDatabase(std::vector<proto::LogEntry> entries, Topology topology);

  // Pairs() points into entries_, so the database stays where it was built.
  LogDatabase(const LogDatabase&) = delete;
  LogDatabase& operator=(const LogDatabase&) = delete;

  const std::map<PairKey, PairEvidence>& Pairs() const { return pairs_; }
  const Topology& topology() const { return topology_; }
  const std::vector<proto::LogEntry>& RawEntries() const { return entries_; }

  /// Publisher of `topic` per the manifest (type label -> unique publisher).
  std::optional<crypto::ComponentId> PublisherOf(const std::string& topic) const;

 private:
  std::vector<proto::LogEntry> entries_;
  Topology topology_;
  std::map<PairKey, PairEvidence> pairs_;
};

}  // namespace adlp::audit
