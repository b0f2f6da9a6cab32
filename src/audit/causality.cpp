#include "audit/causality.h"

namespace adlp::audit {

namespace {

struct ChainTimestamps {
  Timestamp t_x_out = 0;
  Timestamp t_y_in = 0;
  Timestamp t_y_out = 0;
  Timestamp t_z_in = 0;
  crypto::ComponentId x, y, z;
  bool complete = false;
};

ChainTimestamps Collect(const LogDatabase& db, const FlowDependency& dep) {
  ChainTimestamps ts;
  const auto& pairs = db.Pairs();

  const auto first_it = pairs.find(dep.first);
  const auto second_it = pairs.find(dep.second);
  if (first_it == pairs.end() || second_it == pairs.end()) return ts;
  const PairEvidence& first = first_it->second;
  const PairEvidence& second = second_it->second;
  if (first.publisher.empty() || first.subscriber.empty() ||
      second.publisher.empty() || second.subscriber.empty()) {
    return ts;
  }

  ts.t_x_out = first.publisher.front().entry->timestamp;
  ts.t_y_in = first.subscriber.front()->timestamp;
  ts.t_y_out = second.publisher.front().entry->timestamp;
  ts.t_z_in = second.subscriber.front()->timestamp;
  ts.x = first.publisher.front().entry->component;
  ts.y = first.subscriber.front()->component;
  ts.z = second.subscriber.front()->component;
  ts.complete = true;
  return ts;
}

}  // namespace

std::vector<CausalityViolation> CausalityChecker::Check(
    const std::vector<FlowDependency>& dependencies) const {
  std::vector<CausalityViolation> violations;
  for (const auto& dep : dependencies) {
    const ChainTimestamps ts = Collect(db_, dep);
    if (!ts.complete) continue;

    if (ts.t_y_out < ts.t_y_in) {
      // c_y claims it published the output before receiving the input: a
      // self-inversion only c_y's own entries produce.
      violations.push_back(
          {dep, "t_in(y) <= t_out(y)", {ts.y}});
    }
    if (ts.t_x_out >= ts.t_y_in) {
      violations.push_back({dep, "t_out(x) < t_in(y)", {ts.x, ts.y}});
    }
    if (ts.t_y_out >= ts.t_z_in) {
      violations.push_back({dep, "t_out(y) < t_in(z)", {ts.y, ts.z}});
    }
    if (ts.t_x_out >= ts.t_z_in) {
      // Reversing the end-to-end precedence requires every component of the
      // chain to lie consistently (Fig. 10(d)).
      violations.push_back(
          {dep, "t_out(x) < t_in(z)", {ts.x, ts.y, ts.z}});
    }
  }
  return violations;
}

}  // namespace adlp::audit
