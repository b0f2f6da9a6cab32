#include "audit/pair_eval.h"

#include <algorithm>

#include "pubsub/message.h"

namespace adlp::audit {

std::optional<crypto::Digest> PayloadHashFromBytes(BytesView bytes) {
  if (bytes.size() != crypto::kSha256DigestSize) return std::nullopt;
  crypto::Digest d;
  std::copy(bytes.begin(), bytes.end(), d.begin());
  return d;
}

crypto::Digest DigestFromParts(const std::string& topic,
                               const crypto::ComponentId& publisher,
                               std::uint64_t seq, Timestamp message_stamp,
                               const crypto::Digest& payload_hash) {
  pubsub::MessageHeader header;
  header.topic = topic;
  header.publisher = publisher;
  header.seq = seq;
  header.stamp = message_stamp;
  return pubsub::MessageDigestFromPayloadHash(header, payload_hash);
}

std::optional<crypto::ComponentId> TopologyPublisherOf(
    const Topology& topology, const std::string& topic) {
  const auto it = topology.find(topic);
  if (it == topology.end()) return std::nullopt;
  return it->second.publisher;
}

bool DecideStructural(PairPlan& plan, const PairKey& key,
                      const PairFacts& facts) {
  PairVerdict& v = plan.verdict;
  v.topic = key.topic;
  v.seq = key.seq;
  v.subscriber = key.subscriber;
  v.publisher = facts.publisher;
  plan.has_publisher = facts.pub_count > 0;
  plan.has_subscriber = facts.sub_count > 0;

  // Replayed sequence numbers: extra entries for the same instance are
  // invalid on sight.
  if (facts.pub_count > 1 || facts.sub_count > 1) {
    v.finding = Finding::kDuplicateEntry;
    if (facts.pub_count > 1) {
      v.blamed.push_back(facts.pub_first_component);
      v.publisher_class = EntryClass::kInvalid;
    }
    if (facts.sub_count > 1) {
      v.blamed.push_back(facts.sub_first_component);
      v.subscriber_class = EntryClass::kInvalid;
    }
    v.detail = "multiple entries for one (topic, seq, direction, peer)";
    plan.done = true;
    return true;
  }

  // An out-entry claiming a component other than the topic's unique
  // publisher is an impersonation attempt: the type label identifies the
  // publisher uniquely.
  if (plan.has_publisher && !v.publisher.empty() &&
      facts.pub_first_component != v.publisher) {
    v.finding = Finding::kPublisherSelfAuthFailed;
    v.publisher_class = EntryClass::kInvalid;
    v.blamed.push_back(facts.pub_first_component);
    v.detail = "out-entry by '" + facts.pub_first_component +
               "' for a topic published by '" + v.publisher + "'";
    plan.done = true;
    return true;
  }

  if (facts.pub_base || facts.sub_base) {
    // Naive scheme: nothing is provable (Section III-B). Report only
    // consistency.
    if (plan.has_publisher && plan.has_subscriber) {
      v.finding = facts.base_agree ? Finding::kUnprovableConsistent
                                   : Finding::kUnprovableConflict;
      v.publisher_class = EntryClass::kValid;
      v.subscriber_class = EntryClass::kValid;
      if (!facts.base_agree) {
        v.detail = "entries conflict; the naive scheme cannot determine "
                   "whose log is correct";
      }
    } else {
      v.finding = Finding::kUnprovableMissing;
      if (plan.has_publisher) v.publisher_class = EntryClass::kValid;
      if (plan.has_subscriber) v.subscriber_class = EntryClass::kValid;
      v.detail = "counterpart entry missing; hiding and fabrication are "
                 "indistinguishable under the naive scheme";
    }
    plan.done = true;
    return true;
  }
  return false;
}

PairVerdict FinalizePairPlan(PairPlan& plan) {
  PairVerdict& v = plan.verdict;
  if (plan.done) return std::move(v);

  const bool pub_self_ok = plan.pub_self_ok;
  const bool pub_ack_ok = plan.pub_ack_ok;
  const bool sub_self_ok = plan.sub_self_ok;
  const bool sub_cross_ok = plan.sub_cross_ok;
  const std::optional<crypto::Digest>& pub_digest = plan.pub_digest;
  const std::optional<crypto::Digest>& sub_digest = plan.sub_digest;

  if (plan.has_publisher && plan.has_subscriber) {
    if (!pub_self_ok) {
      v.finding = Finding::kPublisherSelfAuthFailed;
      v.publisher_class = EntryClass::kInvalid;
      v.blamed.push_back(v.publisher);
      v.subscriber_class = (sub_self_ok && sub_cross_ok) ? EntryClass::kValid
                                                         : EntryClass::kInvalid;
      if (v.subscriber_class == EntryClass::kInvalid) {
        v.blamed.push_back(v.subscriber);
      }
      return v;
    }
    if (!sub_self_ok) {
      v.finding = Finding::kSubscriberSelfAuthFailed;
      v.subscriber_class = EntryClass::kInvalid;
      v.blamed.push_back(v.subscriber);
      v.publisher_class =
          pub_ack_ok ? EntryClass::kValid : EntryClass::kInvalid;
      if (v.publisher_class == EntryClass::kInvalid) {
        v.blamed.push_back(v.publisher);
      }
      return v;
    }

    const bool agree = pub_digest.has_value() && sub_digest.has_value() &&
                       *pub_digest == *sub_digest;
    if (agree && (sub_cross_ok || pub_ack_ok)) {
      v.finding = Finding::kOk;
      v.publisher_class = EntryClass::kValid;
      v.subscriber_class = EntryClass::kValid;
      if (!sub_cross_ok) {
        v.detail = "subscriber entry carries a non-verifying publisher "
                   "signature, but the publisher's ACK evidence proves the "
                   "transmission";
      } else if (!pub_ack_ok) {
        v.detail = "publisher entry carries non-verifying ACK evidence, but "
                   "the subscriber's entry proves the transmission";
      }
      return v;
    }
    if (!agree && sub_cross_ok) {
      // Subscriber provably received what the publisher signed; the
      // publisher's entry says otherwise (Lemma 3 (i)).
      v.finding = Finding::kPublisherFalsified;
      v.publisher_class = EntryClass::kInvalid;
      v.subscriber_class = EntryClass::kValid;
      v.blamed.push_back(v.publisher);
      v.detail = "publisher signed the data the subscriber reports, yet its "
                 "own entry claims different data";
      return v;
    }
    if (!agree && pub_ack_ok) {
      // The subscriber acknowledged the publisher's data, then logged
      // something else (Lemma 3 (ii)).
      v.finding = Finding::kSubscriberFalsified;
      v.publisher_class = EntryClass::kValid;
      v.subscriber_class = EntryClass::kInvalid;
      v.blamed.push_back(v.subscriber);
      v.detail = "subscriber acknowledged the publisher's data but logged "
                 "different data it cannot prove";
      return v;
    }
    // Neither side holds provable counterpart evidence: impossible for a
    // non-colluding pair under the protocol.
    v.finding = Finding::kConflictUnresolvable;
    v.publisher_class = EntryClass::kInvalid;
    v.subscriber_class = EntryClass::kInvalid;
    v.detail = "no cross-evidence verifies on either side; indicates "
               "collusion or joint fabrication";
    return v;
  }

  if (plan.has_publisher) {
    // Publisher entry alone.
    if (!pub_self_ok) {
      v.finding = Finding::kPublisherSelfAuthFailed;
      v.publisher_class = EntryClass::kInvalid;
      v.blamed.push_back(v.publisher);
      return v;
    }
    if (pub_ack_ok) {
      // The ACK proves the subscriber received the data and then entered no
      // log (Lemma 2).
      v.finding = Finding::kSubscriberHidEntry;
      v.publisher_class = EntryClass::kValid;
      v.subscriber_class = EntryClass::kHidden;
      v.blamed.push_back(v.subscriber);
      v.detail = "subscriber's valid ACK found in the publisher's entry, but "
                 "the subscriber entered no log entry";
      return v;
    }
    // No provable ACK: the publication cannot be proven (Lemma 1).
    v.finding = Finding::kPublisherFabricated;
    v.publisher_class = EntryClass::kInvalid;
    v.blamed.push_back(v.publisher);
    v.detail = "publisher entry without a provable subscriber "
               "acknowledgement";
    return v;
  }

  if (plan.has_subscriber) {
    // Subscriber entry alone.
    if (!sub_self_ok) {
      v.finding = Finding::kSubscriberSelfAuthFailed;
      v.subscriber_class = EntryClass::kInvalid;
      v.blamed.push_back(v.subscriber);
      return v;
    }
    if (sub_cross_ok) {
      // The publisher's signature proves it published; no publisher entry
      // exists (Lemma 2).
      v.finding = Finding::kPublisherHidEntry;
      v.subscriber_class = EntryClass::kValid;
      v.publisher_class = EntryClass::kHidden;
      v.blamed.push_back(v.publisher);
      v.detail = "publisher's valid signature found in the subscriber's "
                 "entry, but the publisher entered no log entry";
      return v;
    }
    v.finding = Finding::kSubscriberFabricated;
    v.subscriber_class = EntryClass::kInvalid;
    v.blamed.push_back(v.subscriber);
    v.detail = "subscriber entry without a verifying publisher signature";
    return v;
  }

  // No evidence at all (should not occur: pairs are built from entries).
  v.finding = Finding::kConflictUnresolvable;
  v.detail = "no evidence";
  return v;
}

}  // namespace adlp::audit
