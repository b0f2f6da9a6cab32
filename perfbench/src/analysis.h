// Reads a fleet's per-transmission slots into end-to-end latencies, layer
// metrics, spans, and the "where the time went" breakdown.
#pragma once

#include "common.h"
#include "fleet.h"

namespace perfbench {

/// Per-transmission outcome of a live run, judged at the drain deadline.
struct TxOutcome {
  std::vector<double> deliver_ms;   // per (tx, subscriber)
  std::vector<double> evidence_ms;  // per tx
  std::vector<double> verdict_ms;   // per tx
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;  // first few failure reasons
};

/// Evidence instant of one entry: logger append returned, or (replicated)
/// the quorum commit covering it. 0 when it never happened.
std::int64_t EvidenceNs(const Fleet& fleet, std::size_t slot);

/// Latencies from due time, and failures: a transmission fails unless it
/// reached every subscriber, all its entries are held by the logger, and
/// (with an online auditor) it got a verdict that did not flag it.
TxOutcome JudgeTransmissions(const Fleet& fleet);

/// Replicated fleets: every replica holds `expected` entries, and replicas
/// agree on (tree_size, root) for every epoch they all sealed.
void CheckReplicas(Fleet& fleet, std::size_t expected, RunResult& out);

/// Layer metrics measured over the fleet's timed window of `window_ns`.
void AddFleetLayerMetrics(Fleet& fleet, std::int64_t window_ns,
                          RunResult& out);

/// Critical-path breakdown of the deliver, evidence and verdict p50s, and
/// the span tree of every transmission.
void AddBreakdown(const Fleet& fleet, RunResult& out);

}  // namespace perfbench
