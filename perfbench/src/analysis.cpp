#include "analysis.h"

#include <cstdio>

namespace perfbench {

namespace {

double Ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// b - a in microseconds, appended only when both instants were stamped.
void PushGap(std::vector<double>& out, std::int64_t a, std::int64_t b) {
  if (a != 0 && b != 0) out.push_back(Us(b - a));
}

enum SpanName : std::uint16_t {
  kTx,
  kGeneratorLate,
  kPublish,
  kDeliverWait,
  kToLogPipe,
  kLogQueueWait,
  kSinkAppend,
  kCommitWait,
  kTapWait,
  kOnEntry,
  kSealWait,
  kSeal,
};

const std::vector<std::string>& SpanNames() {
  static const std::vector<std::string> names = {
      "tx",                  "bench.generator_late", "pubsub.publish",
      "pubsub.deliver_wait", "pubsub.to_log_pipe",   "adlp.log_queue_wait",
      "adlp.sink_append",    "adlp.commit_wait",     "adlp.tap_wait",
      "audit.on_entry",      "audit.seal_wait",      "audit.seal"};
  return names;
}

}  // namespace

std::int64_t EvidenceNs(const Fleet& fleet, std::size_t slot) {
  if (fleet.spec().replicas > 0) return fleet.CommitNs(slot);
  return Fleet::Get(fleet.append_end, slot);
}

TxOutcome JudgeTransmissions(const Fleet& fleet) {
  TxOutcome out;
  const std::size_t n = fleet.Transmissions();
  const std::size_t subs = fleet.Subscribers();
  const std::size_t per_tx = fleet.EntriesPerTx();
  const bool audited = fleet.spec().audit_tap;
  const std::vector<bool> flagged = fleet.FlaggedTx();
  const OpenLoopSchedule schedule(fleet.StartNs(), fleet.PeriodNs());
  auto fail = [&](std::size_t tx, const char* why) {
    ++out.failed;
    if (out.reasons.size() < 5) {
      out.reasons.push_back("tx " + std::to_string(tx) + ": " + why);
    }
  };
  for (std::size_t tx = 0; tx < n; ++tx) {
    bool delivered = true;
    for (std::size_t s = 0; s < subs; ++s) {
      const std::int64_t at = Fleet::Get(fleet.deliver, tx * subs + s);
      if (at == 0) {
        delivered = false;
      } else {
        out.deliver_ms.push_back(Ms(schedule.LatencyNs(tx, at)));
      }
    }
    std::int64_t held = 0;
    for (std::size_t k = 0; k < per_tx && held >= 0; ++k) {
      const std::int64_t at = EvidenceNs(fleet, tx * per_tx + k);
      held = at == 0 ? -1 : std::max(held, at);
    }
    if (held > 0) out.evidence_ms.push_back(Ms(schedule.LatencyNs(tx, held)));
    const std::int64_t verdict = Fleet::Get(fleet.verdict, tx);
    if (audited && verdict != 0) {
      out.verdict_ms.push_back(Ms(schedule.LatencyNs(tx, verdict)));
    }
    if (!delivered) {
      fail(tx, "not delivered to every subscriber");
    } else if (held <= 0) {
      fail(tx, "evidence incomplete");
    } else if (audited && verdict == 0) {
      fail(tx, "no verdict");
    } else if (audited && flagged[tx]) {
      fail(tx, "honest transmission flagged");
    }
  }
  return out;
}

void CheckReplicas(Fleet& fleet, std::size_t expected, RunResult& out) {
  auto& servers = fleet.Servers();
  const auto reference = servers.front()->EpochRoots();
  for (std::size_t i = 0; i < servers.size(); ++i) {
    const std::string name = "replica " + std::to_string(i);
    if (servers[i]->EntryCount() != expected) {
      out.Fail(name + " holds " + std::to_string(servers[i]->EntryCount()) +
               " entries, want " + std::to_string(expected));
    }
    const auto roots = servers[i]->EpochRoots();
    const std::size_t common = std::min(roots.size(), reference.size());
    if (common == 0) out.Fail(name + " sealed nothing");
    for (std::size_t e = 0; e < common; ++e) {
      if (roots[e].tree_size != reference[e].tree_size ||
          roots[e].root != reference[e].root) {
        out.Fail(name + " diverges at epoch " + std::to_string(e));
        break;
      }
    }
  }
}

void AddFleetLayerMetrics(Fleet& fleet, std::int64_t window_ns,
                          RunResult& out) {
  const std::size_t n = fleet.Transmissions();
  const std::size_t subs = fleet.Subscribers();
  const std::size_t per_tx = fleet.EntriesPerTx();
  const bool replicated = fleet.spec().replicas > 0;
  const OpenLoopSchedule schedule(fleet.StartNs(), fleet.PeriodNs());
  std::vector<double> late, publish, deliver_wait, ack, queue, append, commit,
      tap_wait, on_entry;
  for (std::size_t tx = 0; tx < n; ++tx) {
    const std::int64_t ps = Fleet::Get(fleet.pub_start, tx);
    const std::int64_t pe = Fleet::Get(fleet.pub_end, tx);
    if (ps != 0) late.push_back(Us(schedule.LatenessNs(tx, ps)));
    PushGap(publish, ps, pe);
    for (std::size_t s = 0; s < subs; ++s) {
      PushGap(deliver_wait, pe, Fleet::Get(fleet.deliver, tx * subs + s));
    }
    for (std::size_t k = 0; k < per_tx; ++k) {
      const std::size_t slot = tx * per_tx + k;
      const std::int64_t enter = Fleet::Get(fleet.pipe_enter, slot);
      const std::int64_t start = Fleet::Get(fleet.append_start, slot);
      const std::int64_t end = Fleet::Get(fleet.append_end, slot);
      const std::int64_t popped = Fleet::Get(fleet.pop, slot);
      if (k < subs) PushGap(ack, pe, enter);
      PushGap(queue, enter, start);
      PushGap(append, start, end);
      if (replicated) PushGap(commit, end, fleet.CommitNs(slot));
      PushGap(tap_wait, end, popped);
      PushGap(on_entry, popped, Fleet::Get(fleet.fed_end, slot));
    }
  }
  double late_max = 0.0;
  for (double v : late) late_max = std::max(late_max, v);
  out.metrics["bench.generator_late_us"] = Median(late);
  out.metrics["bench.generator_late_max_us"] = late_max;
  out.metrics["pubsub.publish_us"] = Median(publish);
  out.metrics["pubsub.deliver_wait_us"] = Median(deliver_wait);
  out.metrics["pubsub.ack_us"] = Median(ack);
  out.metrics["adlp.log_queue_wait_us"] = Median(queue);
  out.metrics["adlp.sink_append_us"] = Median(append);
  out.metrics["adlp.sink_busy_pct"] =
      100.0 * static_cast<double>(fleet.SinkBusyNs()) /
      static_cast<double>(std::max<std::int64_t>(1, window_ns));
  out.metrics["pubsub.publisher_cpu_us_per_tx"] =
      Us(fleet.PublisherCpuNs()) / static_cast<double>(n);
  auto& server = fleet.PrimaryServer();
  out.metrics["adlp.log_bytes_per_entry"] =
      static_cast<double>(server.TotalBytes()) /
      static_cast<double>(std::max<std::size_t>(1, server.EntryCount()));
  if (fleet.Auditor() != nullptr) {
    std::vector<double> seal;
    for (std::int64_t ns : fleet.SealDurations()) seal.push_back(Us(ns));
    out.metrics["audit.on_entry_us"] = Median(on_entry);
    out.metrics["audit.seal_us"] = Median(seal);
    out.metrics["audit.late_entries"] =
        static_cast<double>(fleet.Auditor()->Stats().late_entries);
    out.metrics["adlp.tap_wait_us"] = Median(tap_wait);
  }
  if (replicated) {
    out.metrics["adlp.commit_wait_us"] = Median(commit);
    auto* repl = fleet.Replicated();
    double sent = 0.0;
    double retries = 0.0;
    for (std::size_t i = 0; i < repl->ReplicaCount(); ++i) {
      const adlp::proto::SinkStats st = repl->ReplicaStats(i);
      sent += static_cast<double>(st.entries_sent);
      retries += static_cast<double>(st.reconnects + st.connect_failures +
                                     st.entries_dropped +
                                     st.entries_evicted_unacked);
    }
    // Frames = entries + key registrations; above 1 means retransmission.
    const double frames = static_cast<double>(repl->LastSeq());
    out.metrics["adlp.sink_frames_per_entry"] =
        sent / (frames * static_cast<double>(repl->ReplicaCount()));
    out.metrics["adlp.sink_retries"] = retries;
  }
}

void AddBreakdown(const Fleet& fleet, RunResult& out) {
  const std::size_t n = fleet.Transmissions();
  const std::size_t subs = fleet.Subscribers();
  const std::size_t per_tx = fleet.EntriesPerTx();
  const bool replicated = fleet.spec().replicas > 0;
  const bool audited = fleet.spec().audit_tap;
  const OpenLoopSchedule schedule(fleet.StartNs(), fleet.PeriodNs());
  auto get = [](const auto& v, std::size_t i) { return Fleet::Get(v, i); };

  // One critical path per latency: named segments, each sample's total.
  struct Path {
    std::string name;
    std::vector<std::string> segments;
    std::vector<std::vector<double>> samples;
    std::vector<double> totals;
    void Add(double total, const std::vector<double>& parts) {
      totals.push_back(total);
      for (std::size_t i = 0; i < parts.size(); ++i) samples[i].push_back(parts[i]);
    }
  };
  auto make_path = [](std::string name, std::vector<std::string> segments) {
    Path p{std::move(name), std::move(segments), {}, {}};
    p.samples.resize(p.segments.size());
    return p;
  };
  Path deliver = make_path(
      "deliver",
      {"bench.generator_late", "pubsub.publish", "pubsub.deliver_wait"});
  std::vector<std::string> log_segments = {
      "bench.generator_late", "pubsub.publish", "pubsub.to_log_pipe",
      "adlp.log_queue_wait", "adlp.sink_append"};
  std::vector<std::string> evidence_segments = log_segments;
  if (replicated) evidence_segments.push_back("adlp.commit_wait");
  Path evidence = make_path("evidence", evidence_segments);
  std::vector<std::string> verdict_segments = log_segments;
  for (const char* s : {"adlp.tap_wait", "audit.on_entry", "audit.seal_wait",
                        "audit.seal"}) {
    verdict_segments.push_back(s);
  }
  Path verdict = make_path("verdict", verdict_segments);

  out.span_names = SpanNames();
  out.spans.clear();
  for (std::size_t tx = 0; tx < n; ++tx) {
    const std::int64_t due = schedule.Due(tx);
    const std::int64_t ps = get(fleet.pub_start, tx);
    const std::int64_t pe = get(fleet.pub_end, tx);
    if (ps == 0 || pe == 0) continue;
    const double late = Ms(ps - due);
    const double pub = Ms(pe - ps);
    for (std::size_t s = 0; s < subs; ++s) {
      const std::int64_t at = get(fleet.deliver, tx * subs + s);
      if (at != 0) deliver.Add(Ms(at - due), {late, pub, Ms(at - pe)});
    }
    // The entry that decides each latency: the last one held, the last one
    // the auditor popped.
    std::size_t ev_slot = 0, pop_slot = 0;
    std::int64_t ev_at = 0, pop_at = 0;
    bool complete = true;
    for (std::size_t k = 0; k < per_tx; ++k) {
      const std::size_t slot = tx * per_tx + k;
      const std::int64_t at = EvidenceNs(fleet, slot);
      const std::int64_t popped = get(fleet.pop, slot);
      complete = complete && at != 0 && get(fleet.pipe_enter, slot) != 0;
      if (at > ev_at) ev_at = at, ev_slot = slot;
      if (popped > pop_at) pop_at = popped, pop_slot = slot;
    }
    if (!complete) continue;
    auto log_parts = [&](std::size_t slot) {
      return std::vector<double>{
          late, pub, Ms(get(fleet.pipe_enter, slot) - pe),
          Ms(get(fleet.append_start, slot) - get(fleet.pipe_enter, slot)),
          Ms(get(fleet.append_end, slot) - get(fleet.append_start, slot))};
    };
    std::vector<double> parts = log_parts(ev_slot);
    if (replicated) parts.push_back(Ms(ev_at - get(fleet.append_end, ev_slot)));
    evidence.Add(Ms(ev_at - due), parts);
    const std::int64_t v = get(fleet.verdict, tx);
    const std::int64_t seal0 = get(fleet.seal_start, tx);
    if (audited && v != 0 && pop_at != 0) {
      std::vector<double> vparts = log_parts(pop_slot);
      const std::int64_t fed = get(fleet.fed_end, pop_slot);
      vparts.push_back(Ms(pop_at - get(fleet.append_end, pop_slot)));
      vparts.push_back(Ms(fed - pop_at));
      vparts.push_back(Ms(seal0 - fed));
      vparts.push_back(Ms(v - seal0));
      verdict.Add(Ms(v - due), vparts);
    }

    // Span tree: one root per transmission, one child per layer crossing.
    const std::size_t topic = tx % fleet.spec().topics.size();
    const SpanKey root_key{
        static_cast<std::int32_t>(topic),
        static_cast<std::int32_t>(fleet.spec().topic_publisher[topic]), -1,
        tx / fleet.spec().topics.size() + 1};
    const auto root = static_cast<std::int64_t>(out.spans.size());
    out.spans.push_back({kTx, due, std::max({v, ev_at, pop_at}), -1, root_key});
    auto child = [&](SpanName name, std::int64_t a, std::int64_t b,
                     std::int32_t sub) {
      if (a == 0 || b == 0) return;
      SpanKey key = root_key;
      key.subscriber = sub;
      out.spans.push_back({name, a, b, root, key});
    };
    child(kGeneratorLate, due, ps, -1);
    child(kPublish, ps, pe, -1);
    for (std::size_t s = 0; s < subs; ++s) {
      child(kDeliverWait, pe, get(fleet.deliver, tx * subs + s),
            static_cast<std::int32_t>(s));
    }
    for (std::size_t k = 0; k < per_tx; ++k) {
      const std::size_t slot = tx * per_tx + k;
      const auto sub = static_cast<std::int32_t>(k % subs);
      child(kToLogPipe, pe, get(fleet.pipe_enter, slot), sub);
      child(kLogQueueWait, get(fleet.pipe_enter, slot),
            get(fleet.append_start, slot), sub);
      child(kSinkAppend, get(fleet.append_start, slot),
            get(fleet.append_end, slot), sub);
      if (replicated) {
        child(kCommitWait, get(fleet.append_end, slot), fleet.CommitNs(slot),
              sub);
      }
      child(kTapWait, get(fleet.append_end, slot), get(fleet.pop, slot), sub);
      child(kOnEntry, get(fleet.pop, slot), get(fleet.fed_end, slot), sub);
    }
    if (audited) {
      std::int64_t fed_last = 0;
      for (std::size_t k = 0; k < per_tx; ++k) {
        fed_last = std::max(fed_last, get(fleet.fed_end, tx * per_tx + k));
      }
      child(kSealWait, fed_last, seal0, -1);
      child(kSeal, seal0, v, -1);
    }
  }

  // Root self time: the part of a transmission's life no layer span covers.
  const std::vector<std::int64_t> self = SelfTimes(out.spans);
  std::vector<double> unattributed;
  for (std::size_t i = 0; i < out.spans.size(); ++i) {
    if (out.spans[i].name == kTx) unattributed.push_back(Ms(self[i]));
  }
  out.metrics["bench.tx_self_ms"] = Median(unattributed);

  for (Path* path : {&deliver, &evidence, &verdict}) {
    if (path->totals.empty()) continue;
    const double total = Median(path->totals);
    char line[256];
    std::snprintf(line, sizeof(line), "%s p50 %.3f ms over %zu samples:",
                  path->name.c_str(), total, path->totals.size());
    out.breakdown.push_back(line);
    for (std::size_t i = 0; i < path->segments.size(); ++i) {
      const double median = Median(path->samples[i]);
      std::snprintf(line, sizeof(line), "  %-22s %9.3f ms  %5.1f%%",
                    path->segments[i].c_str(), median,
                    total > 0 ? 100.0 * median / total : 0.0);
      out.breakdown.push_back(line);
    }
  }
}

}  // namespace perfbench
