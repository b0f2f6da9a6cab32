#include "audit/log_database.h"

namespace adlp::audit {

LogDatabase::LogDatabase(std::vector<proto::LogEntry> entries,
                         Topology topology)
    : entries_(std::move(entries)), topology_(std::move(topology)) {
  for (const auto& entry : entries_) {
    if (entry.direction == proto::Direction::kIn) {
      // Subscriber entry: the instance is (topic, seq, owner).
      PairKey key{entry.topic, entry.seq, entry.component};
      pairs_[key].subscriber.push_back(&entry);
      continue;
    }

    // Publisher entry. Aggregated entries carry one AckRecord per
    // subscriber; plain entries name a single peer. An entry naming no peer
    // at all (e.g. base scheme, or an ADLP publication logged without an
    // ACK) is attached to every manifest subscriber of the topic so the
    // auditor still evaluates it.
    if (!entry.acks.empty()) {
      for (const auto& ack : entry.acks) {
        PairKey key{entry.topic, entry.seq, ack.subscriber};
        pairs_[key].publisher.push_back(
            PublisherEvidence{&entry, ack.data_hash, ack.signature});
      }
      continue;
    }
    if (!entry.peer.empty()) {
      PairKey key{entry.topic, entry.seq, entry.peer};
      pairs_[key].publisher.push_back(
          PublisherEvidence{&entry, entry.peer_data_hash,
                            entry.peer_signature});
      continue;
    }
    const auto topic_it = topology_.find(entry.topic);
    if (topic_it != topology_.end() && !topic_it->second.subscribers.empty()) {
      for (const auto& sub : topic_it->second.subscribers) {
        PairKey key{entry.topic, entry.seq, sub};
        pairs_[key].publisher.push_back(
            PublisherEvidence{&entry, entry.peer_data_hash,
                              entry.peer_signature});
      }
    } else {
      // No known subscriber: keep the entry under an empty subscriber id so
      // fabricated publications on unknown topics are still examined.
      PairKey key{entry.topic, entry.seq, {}};
      pairs_[key].publisher.push_back(PublisherEvidence{
          &entry, entry.peer_data_hash, entry.peer_signature});
    }
  }
}

std::optional<crypto::ComponentId> LogDatabase::PublisherOf(
    const std::string& topic) const {
  const auto it = topology_.find(topic);
  if (it == topology_.end()) return std::nullopt;
  return it->second.publisher;
}

}  // namespace adlp::audit
