#include "audit/provenance.h"

#include <algorithm>
#include <deque>
#include <set>

namespace adlp::audit {

std::string ToString(const PairKey& key) {
  return key.topic + "#" + std::to_string(key.seq) + " -> " + key.subscriber;
}

ProvenanceGraph::ProvenanceGraph(const LogDatabase& db) : db_(db) {
  for (const auto& [key, evidence] : db.Pairs()) {
    // Reception time: the subscriber's own log time.
    if (!evidence.subscriber.empty()) {
      receptions_[key.subscriber][key.topic].push_back(
          Reception{evidence.subscriber.front()->timestamp, key});
    }
    // Emission time: the publisher's action time, else the stamp the
    // subscriber recorded.
    if (!evidence.publisher.empty()) {
      emission_times_[key] = evidence.publisher.front().entry->timestamp;
    } else if (!evidence.subscriber.empty()) {
      emission_times_[key] = evidence.subscriber.front()->message_stamp;
    }
  }
  for (auto& [component, by_topic] : receptions_) {
    for (auto& [topic, list] : by_topic) {
      std::sort(list.begin(), list.end(),
                [](const Reception& a, const Reception& b) {
                  return a.t_in < b.t_in;
                });
    }
  }
}

std::optional<Timestamp> ProvenanceGraph::EmissionTime(
    const PairKey& key) const {
  const auto it = emission_times_.find(key);
  if (it == emission_times_.end()) return std::nullopt;
  return it->second;
}

std::vector<PairKey> ProvenanceGraph::DirectInputs(const PairKey& key) const {
  std::vector<PairKey> inputs;
  const auto publisher = db_.PublisherOf(key.topic);
  if (!publisher) return inputs;
  const auto t_out = EmissionTime(key);
  if (!t_out) return inputs;

  const auto component_it = receptions_.find(*publisher);
  if (component_it == receptions_.end()) return inputs;  // a sensor

  for (const auto& [topic, list] : component_it->second) {
    // Latest reception at or before the emission.
    const Reception* best = nullptr;
    for (const auto& r : list) {
      if (r.t_in <= *t_out) {
        best = &r;
      } else {
        break;
      }
    }
    if (best != nullptr) inputs.push_back(best->key);
  }
  return inputs;
}

std::vector<PairKey> ProvenanceGraph::Ancestry(const PairKey& key) const {
  std::vector<PairKey> out;
  std::set<PairKey> seen;
  std::deque<PairKey> frontier{key};
  seen.insert(key);
  while (!frontier.empty()) {
    const PairKey current = frontier.front();
    frontier.pop_front();
    for (const auto& input : DirectInputs(current)) {
      if (seen.insert(input).second) {
        out.push_back(input);
        frontier.push_back(input);
      }
    }
  }
  return out;
}

std::vector<FlowEdge> ProvenanceGraph::AllEdges() const {
  std::vector<FlowEdge> edges;
  for (const auto& [key, evidence] : db_.Pairs()) {
    for (const auto& input : DirectInputs(key)) {
      edges.push_back(FlowEdge{input, key});
    }
  }
  return edges;
}

std::vector<FlowDependency> ProvenanceGraph::CausalDependencies() const {
  std::vector<FlowDependency> deps;
  for (const auto& edge : AllEdges()) {
    deps.push_back(FlowDependency{edge.from, edge.to});
  }
  return deps;
}

std::string ProvenanceGraph::RenderAncestry(const PairKey& key) const {
  std::string out = "provenance of " + ToString(key) + ":\n";
  std::deque<std::pair<PairKey, int>> frontier{{key, 0}};
  std::set<PairKey> seen{key};
  while (!frontier.empty()) {
    const auto [current, depth] = frontier.front();
    frontier.pop_front();
    for (const auto& input : DirectInputs(current)) {
      out.append(static_cast<std::size_t>(depth) * 2 + 2, ' ');
      out += "<- " + ToString(input) + "\n";
      if (seen.insert(input).second) {
        frontier.push_back({input, depth + 1});
      }
    }
  }
  return out;
}

}  // namespace adlp::audit
